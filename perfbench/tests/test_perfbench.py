"""Tests for the benchmark's own reference, parsers and checker.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import itertools
import random

import pytest

from check import FORMATS, PARSERS, VERIFY_CHECKS, check_output, reference_rows
from dagdescents.cli import FORMATTERS
from dagdescents.engine import labeled_dag_total
from dagdescents.golden import GOLDEN_COUNTS
from run import tail
from workloads import MAX_N, VERIFY_ARGV, WORKLOADS

REFERENCE = reference_rows(12)


def test_reference_matches_golden_fixture():
    for n, row in GOLDEN_COUNTS.items():
        assert REFERENCE[n] == list(row), n


def test_reference_row_sums_are_a003024():
    for n in range(13):
        assert sum(REFERENCE[n]) == labeled_dag_total(n), n


@pytest.mark.parametrize("fmt", FORMATS)
def test_parsers_round_trip_program_formats(fmt):
    rows = REFERENCE[1:7]
    parsed, totals = PARSERS[fmt](FORMATTERS[fmt](rows, None))
    assert parsed == rows
    if totals is not None:
        assert totals == [sum(row) for row in rows]


def table_output(fmt, max_n=6):
    return ["table", "--max-n", str(max_n), "--format", fmt], \
        FORMATTERS[fmt](REFERENCE[1:max_n + 1], None)


@pytest.mark.parametrize("fmt", FORMATS)
def test_checker_accepts_correct_table(fmt):
    argv, text = table_output(fmt)
    assert check_output(argv, 0, text, REFERENCE) is None


@pytest.mark.parametrize("fmt", FORMATS)
def test_checker_flags_one_corrupted_cell(fmt):
    argv, _ = table_output(fmt)
    rows = [list(row) for row in REFERENCE[1:7]]
    rows[4][7] += 1
    assert check_output(argv, 0, FORMATTERS[fmt](rows, None), REFERENCE)


@pytest.mark.parametrize("fmt", ("md", "latex"))
def test_checker_flags_a_wrong_total(fmt):
    argv, text = table_output(fmt)
    total = str(sum(REFERENCE[6]))
    assert check_output(argv, 0, text.replace(total, total + "0"), REFERENCE)


@pytest.mark.parametrize("fmt", FORMATS)
def test_checker_flags_truncated_output(fmt):
    argv, text = table_output(fmt)
    for cut in (len(text) // 2, len(text) - 1, 0):
        assert check_output(argv, 0, text[:cut], REFERENCE), cut


def test_checker_flags_nonzero_exit():
    argv, text = table_output("csv")
    assert check_output(argv, 1, text, REFERENCE) == "exit code 1"


def test_checker_value_and_verify():
    assert check_output(["value", "--n", "4", "--k", "3"], 0, "102\n",
                        REFERENCE) is None
    assert check_output(["value", "--n", "4", "--k", "3"], 0, "103\n",
                        REFERENCE)
    passes = "".join(f"PASS {name}: scope\n" for name in VERIFY_CHECKS)
    assert check_output(VERIFY_ARGV, 0, passes, REFERENCE) is None
    assert check_output(VERIFY_ARGV, 0, passes.replace("PASS o", "FAIL o"),
                        REFERENCE)
    assert check_output(VERIFY_ARGV, 0, passes[:-20], REFERENCE)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_streams_are_seeded_and_in_range(name):
    stream_of = WORKLOADS[name].stream
    first = list(itertools.islice(stream_of(random.Random(7)), 50))
    assert first == list(itertools.islice(stream_of(random.Random(7)), 50))
    for argv in first:
        if argv[0] == "value":
            n, k = int(argv[2]), int(argv[4])
            assert 0 <= n <= MAX_N and 0 <= k <= n * (n - 1) // 2
        elif argv[0] == "table":
            assert 1 <= int(argv[2]) <= MAX_N and argv[4] in FORMATS


def test_tail_keeps_ten_samples_above():
    assert tail(list(range(100))) == (89, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)
