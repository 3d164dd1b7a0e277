"""Summarize benchmark records into one trajectory point.

    python3 perfbench/summarize.py [--records DIR ...] [--write FILE]

Per workload, over the timed runs (one per seed): the median of each
end-to-end metric, its quartiles and their spread as a share of the
median; the median of each per-layer metric over the traced runs; and
the ratios that show why each workload was chosen, each with its base.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "runs": len(values)}


def summarize(records: list[dict]) -> dict:
    summary = {}
    for workload in sorted({record["workload"] for record in records}):
        timed = [r for r in records
                 if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in records
                  if r["workload"] == workload and r["trace"] == 1]
        entry: dict = {}
        if len(timed) >= 2:
            entry["seeds"] = sorted(r["seed"] for r in timed)
            entry["attempted"] = sum(r["attempted"] for r in timed)
            entry["failed"] = sum(r["failed"] for r in timed)
            entry["end_to_end"] = {
                metric: spread([r["metrics"][metric][0] for r in timed])
                for metric in timed[0]["metrics"]}
            entry["tail_percentiles"] = sorted(
                {r["notes"]["wall_s.tail"] for r in timed})
        if traced:
            entry["traced_seeds"] = sorted(r["seed"] for r in traced)
            entry["per_layer"] = {
                metric: statistics.median(r["metrics"][metric][0]
                                          for r in traced)
                for metric in traced[0]["metrics"]}
            entry["trace_notes"] = traced[0]["notes"]
        summary[workload] = entry
    return summary


def ratios(summary: dict) -> dict:
    """The traced run's case for each workload, every ratio with its base."""
    out = {}
    try:
        table = summary["table_cold"]
        wall = table["end_to_end"]["wall_s.p50"]["median"]
        setup = table["end_to_end"]["setup_s"]["median"]
        fill = table["per_layer"]["engine.fill_s.total"]
        out["table_cold"] = (
            f"engine.fill_s.total {fill:.3f} s is {fill / (wall - setup):.0%} "
            f"of wall_s.p50 - setup_s = {wall:.3f} - {setup:.3f} s")
    except KeyError:
        pass
    try:
        verify = summary["verify_oracle"]
        largest = verify["trace_notes"]["largest_self_time"]
        n5 = verify["per_layer"]["oracle.enumerate_s.n5"]
        wall = verify["end_to_end"]["wall_s.p50"]["median"]
        out["verify_oracle"] = (
            f"largest self-time span in the replay: {largest}; "
            f"oracle.enumerate_s.n5 {n5:.3f} s is {n5 / wall:.0%} "
            f"of wall_s.p50 {wall:.3f} s")
    except KeyError:
        pass
    try:
        mix = summary["query_mix"]["end_to_end"]
        wall = mix["wall_s.p50"]["median"]
        setup = mix["setup_s"]["median"]
        out["query_mix"] = (f"setup_s {setup:.4f} s is {setup / wall:.0%} "
                            f"of wall_s.p50 {wall:.4f} s")
    except KeyError:
        pass
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--records", type=Path, nargs="+",
                        default=[HERE / ".out"],
                        help="directories of run records (default .out)")
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()
    records = [json.loads(path.read_text()) for directory in args.records
               for path in sorted(directory.glob("*-seed*-trace*.json"))]
    summary = summarize(records)
    for workload, entry in summary.items():
        for metric, stats in entry.get("end_to_end", {}).items():
            print(f"{workload} {metric} median {stats['median']:.6g} "
                  f"IQR/median {stats['spread']:.3f} ({stats['runs']} runs)")
    result = {"workloads": summary, "ratios": ratios(summary)}
    for workload, text in result["ratios"].items():
        print(f"{workload}: {text}")
    if args.write:
        args.write.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
