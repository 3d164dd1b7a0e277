"""Acceptance gate: one test per release criterion.

Each test prints a PASS line so a -s run reads as a checklist.  Timing
bounds use generous wall-clock budgets; they exist to catch accidental
exponential blowups, not to benchmark.
"""
import json
import math
import time

from faults import bump
from kernel_reference import partition_count, two_factorial
from dagdescents import cli
from dagdescents.cache import apply_records, load_records, save_cache
from dagdescents.combinatorics import (
    binomial,
    gaussian_coefficient,
    gaussian_coeffs,
    pow2,
)
from dagdescents.engine import FAMILIES, DescentCounter, labeled_dag_total
from dagdescents.golden import GOLDEN_COUNTS
from dagdescents.oracle import enumerate_counts, subset_pair_histogram
from dagdescents.verify import series_identity_check

EXPECTED_TOTALS = (1, 3, 25, 543, 29281, 3781503, 1138779265, 783702329343)


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    counter = DescentCounter()
    rows = counter.table(8)
    elapsed = time.perf_counter() - started
    for n in range(1, 9):
        assert rows[n - 1] == list(GOLDEN_COUNTS[n]), f"row {n}"
    assert counter.dag_count(5, 2) == 6698
    assert counter.dag_count(7, 10) == 49085984
    assert counter.dag_count(8, 28) == 1
    assert elapsed < 60.0, f"table(8) took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: all rows n<=8 match the fixture "
          f"({elapsed:.2f}s)")


def test_criterion_2_row_totals():
    counter = DescentCounter()
    counter.table(8)
    for n in range(1, 9):
        expected = EXPECTED_TOTALS[n - 1]
        assert counter.row_total(n) == expected
        assert labeled_dag_total(n) == expected
        assert sum(GOLDEN_COUNTS[n]) == expected
    print("PASS criterion 2: row sums equal the labeled-DAG totals, n<=8")


def test_criterion_3_oracle_differential():
    started = time.perf_counter()
    counter = DescentCounter()
    for n in range(1, 7):
        counts = enumerate_counts(n)
        top = math.comb(n, 2)
        for k in range(top + 1):
            for family in FAMILIES:
                assert counter.cell(family, n, k) == \
                    getattr(counts, family)[k], f"{family} {n} {k}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"differential run took {elapsed:.1f}s"
    print(f"PASS criterion 3: six families equal exhaustive counts, "
          f"n<=6 ({elapsed:.2f}s)")


def test_criterion_4_series_identity():
    started = time.perf_counter()
    assert series_identity_check(8)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"series check took {elapsed:.2f}s"
    print(f"PASS criterion 4: reciprocal series identity holds through "
          f"degree 8 ({elapsed:.3f}s)")


def test_criterion_5_subset_histograms():
    for n in range(9):
        for j in range(n + 1):
            histogram = subset_pair_histogram(n, j)
            expected = list(gaussian_coeffs(n, j))
            assert histogram == expected, f"histogram {n} {j}"
    print("PASS criterion 5: subset pair histograms equal the "
          "coefficient triangles, n<=8")


def test_criterion_6_kernel_properties():
    # symmetry and row sums, exhaustively to n = 12
    for n in range(13):
        for j in range(n + 1):
            coeffs = gaussian_coeffs(n, j)
            assert len(coeffs) == j * (n - j) + 1
            assert list(coeffs) == list(reversed(coeffs)), f"sym {n} {j}"
            assert sum(coeffs) == binomial(n, j), f"sum {n} {j}"
    # coefficient == bounded-partition count, exhaustively to n = 10
    for n in range(11):
        for j in range(n + 1):
            for i in range(j * (n - j) + 1):
                assert gaussian_coefficient(n, j, i) == \
                    partition_count(i, j, n - j), f"part {n} {j} {i}"
    # out-of-range conventions
    assert gaussian_coeffs(4, 7) == ()
    assert gaussian_coefficient(4, 2, -1) == 0
    assert gaussian_coefficient(4, 2, 5) == 0
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    # two_factorial: the product of (2^i - 1) for i = 1..n
    assert [two_factorial(n) for n in range(5)] == [1, 1, 3, 21, 315]
    for n in range(1, 30):
        assert two_factorial(n) == two_factorial(n - 1) * (pow2(n) - 1)
    print("PASS criterion 6: kernel identities hold over the stated ranges")


def test_criterion_7_structural_invariants():
    counter = DescentCounter()
    for n in range(1, 9):
        top = math.comb(n, 2)
        assert counter.dag_count(n, 0) == pow2(top)
        assert counter.dag_count(n, top) == 1
        for k in range(top + 1, top + 4):
            assert counter.dag_count(n, k) == 0
        assert counter.cell("t", n, 0) == two_factorial(n - 1)
        assert counter.cell("u", n, 0) == (1 if n == 1 else 0)
    print("PASS criterion 7: structural invariants hold for n<=8")


def test_criterion_8_cli_golden(tmp_path, capsys, monkeypatch):
    def run(*argv):
        return cli.main(list(argv))

    # byte-exact table outputs
    assert run("table", "--max-n", "2") == 0
    assert capsys.readouterr().out == "n,k,count\n1,0,1\n2,0,2\n2,1,1\n"
    assert run("table", "--max-n", "1", "--format", "json") == 0
    assert capsys.readouterr().out == '{"max_n":1,"d":{"1":["1"]}}\n'
    assert run("value", "--n", "4", "--k", "3") == 0
    assert capsys.readouterr().out == "102\n"

    # csv/json agree cell by cell
    assert run("table", "--max-n", "6") == 0
    csv_lines = capsys.readouterr().out.splitlines()[1:]
    assert run("table", "--max-n", "6", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    from_csv = {}
    for line in csv_lines:
        n, k, count = (int(field) for field in line.split(","))
        from_csv.setdefault(n, []).append(count)
    assert from_csv == {int(n): [int(c) for c in row]
                        for n, row in payload["d"].items()}

    # snapshot round-trip is byte-identical across save/load/save
    first = tmp_path / "first.cache"
    second = tmp_path / "second.cache"
    filled = DescentCounter()
    filled.table(6)
    save_cache(first, filled)
    counter = DescentCounter()
    apply_records(counter, load_records(first))
    counter.table(6)
    save_cache(second, counter)
    assert first.read_bytes() == second.read_bytes()

    # exit codes: clean verify 0, capped flag 2, internal inconsistency 1
    # (a verify FAIL is exit 1 too: test_verify_detects_tampered_fixture)
    assert run("verify", "--max-n", "8", "--oracle-max-n", "4") == 0
    assert "FAIL" not in capsys.readouterr().out
    assert run("verify", "--oracle-max-n", "7") == 2
    capsys.readouterr()
    bumps = bump(monkeypatch.setattr, "A", 6, 15)  # only the guard sees it
    assert run("value", "--n", "6", "--k", "3") == 1
    assert bumps == [6]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal inconsistency: ")
    print("PASS criterion 8: CLI outputs and snapshot round-trip "
          "byte-identical, exit codes 0/1/2 as specified")
