import json

import pytest

from dagdescents import cli, golden
from dagdescents.cache import HEADER
from dagdescents.engine import labeled_dag_total


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    monkeypatch.delenv("DESCENTS_CACHE", raising=False)


def run_cli(*argv):
    """Invoke main(); argparse errors surface as SystemExit(2)."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


# ----------------------------------------------------------------------
# value

def test_value_golden(capsys):
    assert run_cli("value", "--n", "4", "--k", "3") == 0
    assert capsys.readouterr().out == "102\n"


def test_value_edges(capsys):
    assert run_cli("value", "--n", "0", "--k", "0") == 0
    assert capsys.readouterr().out == "1\n"
    assert run_cli("value", "--n", "3", "--k", "9") == 0
    assert capsys.readouterr().out == "0\n"


@pytest.mark.parametrize("argv", [
    ("value", "--n", "4"),
    ("value", "--n", "-1", "--k", "0"),
    ("value", "--n", "x", "--k", "0"),
    ("value", "--n", "4", "--k", "-2"),
    ("nonsense",),
    (),
])
def test_usage_errors_exit_2(argv, capsys):
    assert run_cli(*argv) == 2
    assert "usage" in capsys.readouterr().err


# ----------------------------------------------------------------------
# table

def test_table_csv_golden(capsys):
    assert run_cli("table", "--max-n", "2") == 0
    assert capsys.readouterr().out == "n,k,count\n1,0,1\n2,0,2\n2,1,1\n"


def test_table_json_golden(capsys):
    assert run_cli("table", "--max-n", "1", "--format", "json") == 0
    assert capsys.readouterr().out == '{"max_n":1,"d":{"1":["1"]}}\n'


def test_table_json_structure(capsys):
    assert run_cli("table", "--max-n", "5", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_n"] == 5
    assert sorted(payload["d"]) == ["1", "2", "3", "4", "5"]
    row = [int(text) for text in payload["d"]["4"]]
    assert row == list(golden.GOLDEN_COUNTS[4])


def test_table_csv_totals_match_recurrence(capsys):
    assert run_cli("table", "--max-n", "6") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,k,count"
    sums = {}
    for line in lines[1:]:
        n, _k, count = line.split(",")
        sums[int(n)] = sums.get(int(n), 0) + int(count)
    assert sums == {n: labeled_dag_total(n) for n in range(1, 7)}


def test_table_max_k_caps_csv(capsys):
    assert run_cli("table", "--max-n", "4", "--max-k", "1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["n,k,count", "1,0,1", "2,0,2", "2,1,1",
                     "3,0,8", "3,1,11", "4,0,64", "4,1,161"]


def test_table_md_layout(capsys):
    assert run_cli("table", "--max-n", "3", "--format", "md") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| k \\ n | 1 | 2 | 3 |"
    assert lines[2] == "| 0 | 1 | 2 | 8 |"
    assert lines[-1] == "| TOTAL | 1 | 3 | 25 |"


def test_table_md_total_ignores_max_k(capsys):
    assert run_cli("table", "--max-n", "3", "--format", "md",
                   "--max-k", "0") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "| 0 | 1 | 2 | 8 |"
    assert len(lines) == 4  # header, rule, k=0, TOTAL
    assert lines[-1] == "| TOTAL | 1 | 3 | 25 |"


def test_table_latex_total_row(capsys):
    assert run_cli("table", "--max-n", "8", "--format", "latex") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "\\begin{tabular}{l|rrrrrrrr}"
    assert lines[-2] == ("TOTAL & 1 & 3 & 25 & 543 & 29281 & 3781503 & "
                         "1138779265 & 783702329343 \\\\")
    assert lines[-1] == "\\end{tabular}"


def test_table_out_file_matches_stdout(tmp_path, capsys):
    assert run_cli("table", "--max-n", "4", "--format", "json") == 0
    stdout_text = capsys.readouterr().out
    target = tmp_path / "table.json"
    assert run_cli("table", "--max-n", "4", "--format", "json",
                   "--out", str(target)) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == stdout_text


def test_table_out_unwritable(tmp_path, capsys):
    assert run_cli("table", "--max-n", "2", "--out", str(tmp_path)) == 2
    assert "cannot write" in capsys.readouterr().err


def test_table_rejects_bad_format():
    assert run_cli("table", "--max-n", "2", "--format", "yaml") == 2


# ----------------------------------------------------------------------
# verify

def test_verify_quick_all_pass(capsys):
    assert run_cli("verify", "--max-n", "6", "--oracle-max-n", "3") == 0
    out = capsys.readouterr().out
    for name in cli.CHECK_NAMES:
        assert f"PASS {name}" in out
    assert "FAIL" not in out


def test_verify_checks_subset(capsys):
    assert run_cli("verify", "--checks", "golden,totals") == 0
    out = capsys.readouterr().out
    assert "PASS golden" in out and "PASS totals" in out
    assert "oracle" not in out and "series" not in out


def test_verify_detects_tampered_fixture(monkeypatch, capsys):
    altered = list(golden.GOLDEN_COUNTS[5])
    assert altered[2] == 6698
    altered[2] = 6699
    monkeypatch.setitem(golden.GOLDEN_COUNTS, 5, tuple(altered))
    assert run_cli("verify", "--checks", "golden") == 1
    out = capsys.readouterr().out
    assert "FAIL golden: d 5 2 expected 6699 actual 6698" in out


def test_verify_gates_full_oracle():
    assert run_cli("verify", "--oracle-max-n", "6") == 2
    assert run_cli("verify", "--oracle-max-n", "7", "--allow-slow") == 2


def test_verify_rejects_unknown_check(capsys):
    assert run_cli("verify", "--checks", "golden,frobnicate") == 2
    assert "unknown checks: frobnicate" in capsys.readouterr().err


def test_verify_ignores_cache_env(tmp_path, monkeypatch, capsys):
    # verify must recompute even when a poisoned cache is configured;
    # the conflicting value sits outside the fixture so only a cold
    # start can expose it (totals for n=9 would be wrong if preloaded)
    poison = tmp_path / "poison.cache"
    poison.write_text(f"{HEADER}\nd 9 0 1\n")
    monkeypatch.setenv("DESCENTS_CACHE", str(poison))
    assert run_cli("verify", "--checks", "golden,totals",
                   "--max-n", "8") == 0
    assert "warning" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# cache subcommand and env preloading

def test_cache_save_load_clear_cycle(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    assert run_cli("cache", "save", "--path", str(path), "--max-n", "4") == 0
    out = capsys.readouterr().out
    assert f"to {path}" in out and out.startswith("saved ")
    text = path.read_text()
    assert text.startswith(HEADER + "\n")
    record_count = len(text.splitlines()) - 1

    assert run_cli("cache", "load", "--path", str(path)) == 0
    assert capsys.readouterr().out == (
        f"loaded {record_count} entries from {path} "
        f"(fixture overlap verified)\n")

    assert run_cli("cache", "clear", "--path", str(path)) == 0
    assert capsys.readouterr().out == f"cleared {path}\n"
    assert path.read_bytes() == b""


def test_cache_path_from_env(tmp_path, monkeypatch, capsys):
    path = tmp_path / "memo.cache"
    monkeypatch.setenv("DESCENTS_CACHE", str(path))
    assert run_cli("cache", "save", "--max-n", "3") == 0
    capsys.readouterr()
    assert run_cli("cache", "load") == 0
    assert "fixture overlap verified" in capsys.readouterr().out


def test_cache_requires_a_path(capsys):
    assert run_cli("cache", "save") == 2
    assert "no cache path" in capsys.readouterr().err


def test_cache_load_rejects_old_header(tmp_path, capsys):
    path = tmp_path / "old.cache"
    path.write_text("DESCENTS-CACHE v0\nd 0 0 1\n")
    assert run_cli("cache", "load", "--path", str(path)) == 1
    assert "bad cache header" in capsys.readouterr().err


def test_cache_load_rejects_fixture_conflict(tmp_path, capsys):
    path = tmp_path / "evil.cache"
    path.write_text(f"{HEADER}\nd 3 1 12\n")
    assert run_cli("cache", "load", "--path", str(path)) == 1
    err = capsys.readouterr().err
    assert "d 3 1 expected 11, cache has 12" in err


def test_cache_save_unwritable(tmp_path, capsys):
    assert run_cli("cache", "save", "--path", str(tmp_path),
                   "--max-n", "2") == 2
    assert "cannot write" in capsys.readouterr().err


def test_env_cache_preloads_table(tmp_path, monkeypatch, capsys):
    assert run_cli("table", "--max-n", "5") == 0
    cold = capsys.readouterr().out

    path = tmp_path / "memo.cache"
    assert run_cli("cache", "save", "--path", str(path), "--max-n", "5") == 0
    capsys.readouterr()
    monkeypatch.setenv("DESCENTS_CACHE", str(path))
    assert run_cli("table", "--max-n", "5") == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err == ""


def test_corrupt_env_cache_warns_and_continues(tmp_path, monkeypatch,
                                               capsys):
    path = tmp_path / "mangled.cache"
    path.write_text(f"{HEADER}\nd 3 1\n")
    monkeypatch.setenv("DESCENTS_CACHE", str(path))
    assert run_cli("value", "--n", "5", "--k", "2") == 0
    captured = capsys.readouterr()
    assert captured.out == "6698\n"
    assert captured.err.startswith(f"warning: ignoring cache {path}:")


def test_poisoned_env_cache_exits_cleanly(tmp_path, monkeypatch, capsys):
    # t(5,1) is 942 in truth; 999 passes the cache's checks, which only
    # compare d records with the fixture, but drives d(5,5) negative
    path = tmp_path / "poison.cache"
    path.write_text(f"{HEADER}\nt 5 1 999\n")
    monkeypatch.setenv("DESCENTS_CACHE", str(path))
    assert run_cli("value", "--n", "6", "--k", "3") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal inconsistency: d(5,5) = -11485\n"


def test_missing_env_cache_is_silent(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DESCENTS_CACHE", str(tmp_path / "absent.cache"))
    assert run_cli("value", "--n", "2", "--k", "1") == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert captured.err == ""
