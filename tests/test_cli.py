import contextlib
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from faults import bump
from dagdescents import cli, golden, oracle, verify
from dagdescents.cache import HEADER
from dagdescents.combinatorics import gaussian_coefficient
from dagdescents.engine import labeled_dag_total
from dagdescents.oracle import enumerate_counts


def run_cli(*argv):
    """Invoke main(); a usage error or --help returns argparse's exit code."""
    return cli.main(list(argv))


TESTS = Path(__file__).resolve().parent


def python_env(**env_vars):
    """This process's environment plus ``env_vars``, with the package's
    sources first on PYTHONPATH and every warning an error."""
    env = dict(os.environ, PYTHONWARNINGS="error", **env_vars)
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(*args, **env_vars):
    """Run a fresh interpreter on the package's sources, with ``env_vars``
    added to its environment, so that import side effects and any
    uncaught traceback can be seen."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=python_env(**env_vars), timeout=60)


# ----------------------------------------------------------------------
# value

# Runs one command in a fresh interpreter and prints its exit code and
# the modules it loaded.  Records the modules loaded before the package,
# so that whatever the host's ``site`` preloads does not count against it.
# (In-process tests share ``sys.modules``, so only a fresh interpreter can
# see what a command loads.)
MODULES_SCRIPT = """
import contextlib, io, sys
before = set(sys.modules)
from dagdescents import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, " ".join(sorted(set(sys.modules) - before)))
"""

NOT_FOR_VALUE_OR_TABLE = ("dagdescents.verify", "dagdescents.golden",
                          "dagdescents.oracle", "dagdescents.cache",
                          "__future__")


def loaded_modules(*argv):
    """(exit code, modules loaded) of ``cli.main(argv)`` in a fresh
    interpreter."""
    result = run_python("-c", MODULES_SCRIPT, *argv)
    assert result.returncode == 0, result.stderr
    code, *added = result.stdout.split()
    return int(code), added


def test_value_imports_neither_oracle_nor_cache():
    code, added = loaded_modules("value", "--n", "4", "--k", "3")
    assert code == 0
    assert "dagdescents.engine" in added
    not_for_value = NOT_FOR_VALUE_OR_TABLE + ("dataclasses", "fractions",
                                              "json")
    assert [name for name in not_for_value if name in added] == []
    for fmt in cli.FORMATTERS:
        code, added = loaded_modules("table", "--max-n", "5",
                                     "--format", fmt)
        assert code == 0
        assert "dagdescents.engine" in added
        assert [name for name in NOT_FOR_VALUE_OR_TABLE
                if name in added] == [], fmt
    code, added = loaded_modules("verify", "--checks", "golden")
    assert code == 0
    assert {"dagdescents.verify", "dagdescents.golden"} <= set(added)


def test_cache_does_not_load_the_golden_fixture():
    # snapshot records are checked against computed cells, not the fixture
    result = run_python("-c", "import sys, dagdescents.cache; print("
                        "'dagdescents.golden' in sys.modules)")
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "False\n", "")


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
    ("value", "--n", "41", "--k", "0"),
    ("table", "--max-n", "41"),
    ("verify", "--max-n", "41"),
    ("verify", "--oracle-max-n", "41"),
    ("table", "--max-n", "2", "--out", os.devnull),  # stdout is the output
    ("value", "--n", "9" * 4301, "--k", "0"),  # past int()'s digit limit
    ("value", "--n", "5", "--k", "9" * 4301),
])
def test_usage_errors_exit_2(argv, capsys):
    assert run_cli(*argv) == 2
    assert "usage" in capsys.readouterr().err


def test_option_past_the_digit_limit_is_named_not_echoed(capsys):
    limit = sys.get_int_max_str_digits()
    assert run_cli("value", "--n", "5", "--k", "9" * (limit + 1)) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"dagdescents value: error: argument --k: more than {limit} digits")
    assert run_cli("value", "--n", "5", "--k", "9" * limit) == 0
    assert capsys.readouterr().out == "0\n"
    assert run_cli("value", "--n", "5", "--k", "x") == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "dagdescents value: error: argument --k: not an integer: 'x'")


def test_vertex_ceiling_is_inclusive():
    # parsed only: a fill to n = 40 would take most of a minute
    parser = cli.build_parser()
    assert parser.parse_args(["value", "--n", "40", "--k", "0"]).n == 40
    assert parser.parse_args(["table", "--max-n", "40"]).max_n == 40


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


def _bumped_oracle(n):
    counts = enumerate_counts(n)
    if n == 3:
        counts.B[2] += 1
    return counts


@pytest.mark.parametrize("check, module, name, fake, detail", [
    ("totals", verify, "labeled_dag_total",
     lambda n: labeled_dag_total(n) + (n == 3),
     "total 3 expected 26 actual 25"),
    ("series", verify, "series_identity_check", lambda degree: False,
     "reciprocal series identity fails by degree 8"),
    ("subsets", verify, "gaussian_coefficient",
     lambda n, j, i: gaussian_coefficient(n, j, i) + ((n, j, i) == (5, 2, 3)),
     "histogram 5 2 index 3 expected 3 actual 2"),
    ("oracle", oracle, "enumerate_counts", _bumped_oracle,
     "B 3 2 expected 2 actual 1"),
], ids=["totals", "series", "subsets", "oracle"])
def test_verify_fail_line_names_first_mismatch(check, module, name, fake,
                                               detail, monkeypatch, capsys):
    # each check's source is made to disagree with the engine in one cell
    monkeypatch.setattr(module, name, fake)
    assert run_cli("verify", "--checks", check) == 1
    assert capsys.readouterr().out == f"FAIL {check}: {detail}\n"


class Reads:
    """Stands in for a check's source, called or indexed by n first, and
    records each n it is asked for."""

    def __init__(self, source):
        self.source, self.levels = source, set()

    def __call__(self, n, *rest):
        self.levels.add(n)
        return self.source(n, *rest)

    __getitem__ = __call__


# each check at a depth other than the default: the deepest n its source
# is asked for, and the n its PASS line states, is ``depth``
@pytest.mark.parametrize("check, module, name, source, argv, depth, scope", [
    ("golden", verify, "GOLDEN_COUNTS", golden.GOLDEN_COUNTS.__getitem__,
     ("--max-n", "5"), 5, "rows 1..{} vs fixture"),
    ("golden", verify, "GOLDEN_COUNTS", golden.GOLDEN_COUNTS.__getitem__,
     ("--max-n", "10"), golden.GOLDEN_MAX_N, "rows 1..{} vs fixture"),
    ("totals", verify, "labeled_dag_total", labeled_dag_total,
     ("--max-n", "5"), 5, "row sums vs alternating recurrence, n <= {}"),
    ("series", verify, "series_identity_check", verify.series_identity_check,
     ("--max-n", "5"), 5, "reciprocal series through degree {}"),
    ("subsets", oracle, "subset_pair_histogram", oracle.subset_pair_histogram,
     ("--max-n", "5"), verify.SUBSETS_MAX_N,
     "pair histograms vs coefficients, n <= {}"),
    ("oracle", oracle, "enumerate_counts", enumerate_counts,
     ("--oracle-max-n", "3"), 3,
     "six families vs exhaustive enumeration, n <= {}"),
], ids=["golden", "golden-capped", "totals", "series", "subsets", "oracle"])
def test_pass_line_states_the_depth_it_read(check, module, name, source, argv,
                                            depth, scope, monkeypatch,
                                            capsys):
    reads = Reads(source)
    monkeypatch.setattr(module, name, reads)
    assert run_cli("verify", "--checks", check, *argv) == 0
    assert capsys.readouterr().out == f"PASS {check}: {scope.format(depth)}\n"
    assert max(reads.levels) == depth


def test_oracle_help_states_the_oracle_cap(capsys):
    assert run_cli("verify", "--help") == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(default 4, max {oracle.MAX_ORACLE_N})" in help_text


def test_check_names_match_the_checks_in_order():
    assert cli.CHECK_NAMES == tuple(row[0] for row in verify.VERIFY_CHECKS)


# verify's usage errors print verify's own usage line, as argparse's do
VERIFY_USAGE = "usage: dagdescents verify [-h]"


def test_verify_gates_full_oracle(capsys):
    # n = 6 needs no confirmation; only n = 7 and up is refused
    assert run_cli("verify", "--oracle-max-n", "6", "--checks", "golden") == 0
    assert capsys.readouterr().out == "PASS golden: rows 1..8 vs fixture\n"
    assert run_cli("verify", "--oracle-max-n", "7") == 2
    err = capsys.readouterr().err
    assert err.startswith(VERIFY_USAGE)
    assert ("dagdescents verify: error: argument --oracle-max-n: "
            "must be <= 6, got 7\n" in err)
    assert run_cli("verify", "--oracle-max-n", "6", "--allow-slow") == 2
    assert ("dagdescents: error: unrecognized arguments: --allow-slow\n"
            in capsys.readouterr().err)


def test_verify_rejects_unknown_check(capsys):
    valid = "(valid: golden, totals, series, subsets, oracle)"
    assert run_cli("verify", "--checks", "golden,frobnicate") == 2
    err = capsys.readouterr().err
    assert err.startswith(VERIFY_USAGE)
    assert f"unknown checks: frobnicate {valid}" in err
    for empty in (",", ""):  # an empty list must not pass vacuously
        assert run_cli("verify", "--checks", empty) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(VERIFY_USAGE)
        assert f"no checks named {valid}" in captured.err


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
# no cache subcommand

def test_cache_subcommand_is_gone(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    assert run_cli("cache", "save", "--path", str(path)) == 2
    assert "invalid choice: 'cache'" in capsys.readouterr().err
    assert not path.exists()


# ----------------------------------------------------------------------
# internal inconsistency (exit 1) and DESCENTS_CACHE

# Runs ``value --n 9 --k 36`` with one computed cell raised by one: A(6,15)
# feeds no d cell, so only the insertion identities can see it.
BUMPED_SCRIPT = """
import sys
from dagdescents import cli
from faults import bump
bump(setattr, "A", 6, 15)
sys.exit(cli.main(["value", "--n", "9", "--k", "36"]))
"""


def test_broken_insertion_identity_exits_1():
    result = run_python("-c", BUMPED_SCRIPT, PYTHONPATH=str(TESTS))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: internal inconsistency: (n-1) d(n,k-1) = A(n,k-1) "
        "+ B(n,k-1) + A(n,k) fails at n=6, k=15\n")


def interrupt_a_fill(**popen_args):
    """(exit code, stdout, stderr) of ``value --n 36``, sent SIGINT after
    1 s; it fills for several seconds, so the signal lands mid-fill."""
    child = subprocess.Popen(
        [sys.executable, "-m", "dagdescents", "value", "--n", "36",
         "--k", "3"],
        stdout=subprocess.PIPE, text=True, env=python_env(), **popen_args)
    try:
        time.sleep(1)
        child.send_signal(signal.SIGINT)
        stdout, stderr = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    return child.returncode, stdout, stderr


def test_sigint_during_a_fill_exits_130():
    assert interrupt_a_fill(stderr=subprocess.PIPE) == (
        130, "", "error: interrupted\n")


# one command per subcommand, each writing to stdout, and two help texts
WRITING_COMMANDS = [
    ("value", "--n", "9", "--k", "20"),
    ("table", "--max-n", "10"),
    ("verify", "--checks", "golden"),
    ("--help",),
    ("verify", "--help"),
]


def run_writing(argv, stdout, unbuffered, **popen_args):
    """Run ``python -m dagdescents argv`` with stdout on ``stdout``, and
    PYTHONUNBUFFERED set (a failed write raises at once) or removed (it
    raises at the final flush), whatever this process has."""
    env = python_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "dagdescents", *argv], stdout=stdout,
        stderr=subprocess.PIPE, text=True, env=env, timeout=60, **popen_args)


def write_error(code):
    return (f"error: cannot write stdout: [Errno {code}] "
            f"{os.strerror(code)}\n")


# Each stdout test runs both buffering modes in turn, so that its ids
# stay one per command.
@pytest.mark.parametrize("argv", WRITING_COMMANDS)
def test_closed_stdout_pipe_exits_141(argv):
    for unbuffered in (True, False):
        # the reader is gone before the child starts, so every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_writing(argv, write_end, unbuffered)
        finally:
            os.close(write_end)
        assert (unbuffered, result.returncode, result.stderr) == (
            unbuffered, 141, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this host")
@pytest.mark.parametrize("argv", WRITING_COMMANDS)
def test_failed_stdout_write_exits_1(argv):
    for unbuffered in (True, False):
        # every write to /dev/full fails with ENOSPC
        with open("/dev/full", "wb") as full:
            result = run_writing(argv, full, unbuffered)
        assert (unbuffered, result.returncode, result.stderr) == (
            unbuffered, 1, write_error(errno.ENOSPC))


@pytest.mark.parametrize("argv", WRITING_COMMANDS)
def test_closed_stdout_fd_exits_1(argv):
    for unbuffered in (True, False):
        # the child starts with fd 1 closed, so sys.stdout is None
        result = run_writing(argv, subprocess.DEVNULL, unbuffered,
                             preexec_fn=lambda: os.close(1))
        assert (unbuffered, result.returncode, result.stderr) == (
            unbuffered, 1, write_error(errno.EBADF))


def test_closed_stderr_fd_keeps_error_text_off_stdout():
    # the child starts with fd 2 closed, so sys.stderr is None; a usage
    # error and a SIGINT still exit 2 and 130, and their text goes nowhere
    def close_stderr():
        os.close(2)

    for argv in (("verify", "--oracle-max-n", "7"),
                 ("verify", "--checks", "frobnicate"),
                 ("value", "--n", "41", "--k", "0")):
        result = run_writing(argv, subprocess.PIPE, False,
                             preexec_fn=close_stderr)
        assert (argv, result.returncode, result.stdout) == (argv, 2, "")
    assert interrupt_a_fill(preexec_fn=close_stderr) == (130, "", None)


def test_negative_cell_exits_1(monkeypatch, capsys):
    # t(5,1) is 942 in truth; 999 drives d(5,5) negative
    bumps = bump(monkeypatch.setattr, "t", 5, 1, by=57)
    assert run_cli("value", "--n", "6", "--k", "3") == 1
    assert bumps == [5]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal inconsistency: d(5,5) = -11485\n"


def test_descents_cache_is_not_read(tmp_path):
    # d(9,36) is 1: only the graph with every edge x -> y, x > y, has
    # C(9,2) = 36 descents.  A snapshot claiming 2 changes nothing.
    path = tmp_path / "deep.cache"
    path.write_text(f"{HEADER}\nd 9 36 2\n")
    result = run_python("-m", "dagdescents", "value", "--n", "9", "--k", "36",
                        DESCENTS_CACHE=str(path))
    assert result.returncode == 0
    assert result.stdout == "1\n"
    assert result.stderr == ""


def test_missing_env_cache_is_silent(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DESCENTS_CACHE", str(tmp_path / "absent.cache"))
    assert run_cli("value", "--n", "2", "--k", "1") == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert captured.err == ""


# ----------------------------------------------------------------------
# the exit-code contract over generated argv

def spelled(value, zero):
    """``value`` in the decimal digits that start at ``zero``."""
    return "".join(chr(ord(zero) + int(digit)) for digit in str(value))


def numbers(top):
    """Option values: 0..top in spellings that ``int()`` takes, small
    negatives, and text that is no valid count (41 is past engine.MAX_N;
    4,301 digits are past Python's int/str limit)."""
    return st.one_of(
        st.integers(0, top).map(str),
        st.integers(0, top).flatmap(lambda value: st.sampled_from([
            spelled(value, "\uff10"), spelled(value, "\u0660"),
            "_".join(str(value)), f"+{value}", f" {value} "])),
        st.sampled_from(["-1", "-3", "", "x", "1.5", "1e3", "0x1", "41",
                         "9" * 4301, "-" + "9" * 4301]))


# every value a vertex count can take is at most 12, and --oracle-max-n
# at most 4 or the refused 7, so that each example runs in milliseconds
OPTIONS = {
    "value": {"--n": numbers(12), "--k": numbers(70)},
    "table": {"--max-n": numbers(12), "--max-k": numbers(70),
              "--format": st.sampled_from([*cli.FORMATTERS, "yaml", ""])},
    "verify": {"--max-n": numbers(12),
               "--oracle-max-n": st.one_of(numbers(4), st.just("7")),
               "--checks": st.lists(st.sampled_from(
                   [*cli.CHECK_NAMES, "", "frobnicate"]),
                   max_size=3).map(",".join)},
}


@st.composite
def argvs(draw):
    """A subcommand and its flags, each given once, twice or not at all,
    in any order."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    flags = [flag for flag in options
             for _ in range(draw(st.sampled_from((1, 1, 0, 2))))]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(options[flag])]
    return argv


def read_table(fmt, text):
    """``table`` output read back as ({n: counts by k}, {n: TOTAL}).  md
    and latex have the TOTAL line; their zero padding past C(n,2) is cut."""
    lines = text.splitlines()
    if fmt == "json":
        payload = json.loads(text)
        assert payload["max_n"] == len(payload["d"])
        return {int(n): [int(count) for count in row]
                for n, row in payload["d"].items()}, {}
    if fmt == "csv":
        assert lines.pop(0) == "n,k,count"
        rows = {}
        for line in lines:
            n, k, count = map(int, line.split(","))
            assert k == len(rows.setdefault(n, []))
            rows[n].append(count)
        return rows, {}
    if fmt == "md":
        del lines[1]  # the rule under the header
        grid = [line.strip("| ").split(" | ") for line in lines]
    else:
        assert lines.pop(0).startswith("\\begin{tabular}{l|")
        assert lines.pop() == "\\end{tabular}"
        grid = [line.split(" \\\\")[0].split(" & ") for line in lines
                if line != "\\hline"]
    (_, *columns), *body, (total, *totals) = grid
    assert total == "TOTAL"
    assert [int(k) for k, *_ in body] == list(range(len(body)))
    rows = {}
    for index, n in enumerate(map(int, columns)):
        cells = [int(line[index + 1]) for line in body]
        rows[n] = cells[:math.comb(n, 2) + 1]
        assert not any(cells[len(rows[n]):])
    return rows, dict(zip(map(int, columns), map(int, totals)))


def assert_output_reads_back(args, text):
    golden_n = range(1, golden.GOLDEN_MAX_N + 1)
    if args.command == "value":
        assert text == f"{int(text)}\n"
        if args.n in golden_n:
            row = golden.GOLDEN_COUNTS[args.n]
            assert int(text) == (row[args.k] if args.k < len(row) else 0)
    elif args.command == "table":
        rows, totals = read_table(args.format, text)
        assert list(rows) == list(range(1, args.max_n + 1))
        cap = None if args.max_k is None else args.max_k + 1
        for n in golden_n[:args.max_n]:
            assert rows[n] == list(golden.GOLDEN_COUNTS[n][:cap])
        for n, total in totals.items():
            assert total == labeled_dag_total(n)
    else:
        assert [line.split(":")[0] for line in text.splitlines()] == [
            f"PASS {name}" for name in cli.CHECK_NAMES if name in args.checks]


# every format is read back on every run, whatever is generated
@example(["table", "--max-n", "9"])
@example(["table", "--max-n", "9", "--format", "json", "--max-k", "3"])
@example(["table", "--max-n", "9", "--format", "md", "--max-k", "3"])
@example(["table", "--max-n", "9", "--format", "latex"])
@settings(max_examples=80, deadline=None)
@given(argvs())
def test_generated_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert_output_reads_back(cli.build_parser().parse_args(argv),
                                 out.getvalue())
