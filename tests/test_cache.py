import sys

import pytest

from dagdescents.cache import (
    HEADER,
    CacheError,
    apply_records,
    load_records,
    save_cache,
)
from dagdescents.engine import DescentCounter


# Python 3.10.7+ limits int() on text to 4,300 digits by default.
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python has no int/str digit limit")


def _filled(n_max):
    counter = DescentCounter()
    counter.table(n_max)
    return counter


def test_save_writes_header_then_records(tmp_path):
    path = tmp_path / "memo.cache"
    counter = DescentCounter()
    counter.dag_count(0, 0)
    count = save_cache(path, counter)
    assert count == 1
    assert path.read_text() == f"{HEADER}\nd 0 0 1\n"


def test_round_trip_is_byte_identical(tmp_path):
    first = tmp_path / "a.cache"
    second = tmp_path / "b.cache"
    save_cache(first, _filled(6))

    warmed = DescentCounter()
    apply_records(warmed, load_records(first))
    warmed.table(6)
    save_cache(second, warmed)
    assert first.read_bytes() == second.read_bytes()


def test_loaded_counter_extends_correctly(tmp_path):
    path = tmp_path / "memo.cache"
    save_cache(path, _filled(5))

    warmed = DescentCounter()
    apply_records(warmed, load_records(path))
    assert warmed.table(7) == DescentCounter().table(7)


def test_empty_cache_is_legal(tmp_path):
    path = tmp_path / "empty.cache"
    path.write_text(HEADER + "\n")
    assert load_records(path) == []


def test_missing_file(tmp_path):
    with pytest.raises(CacheError, match="cannot read"):
        load_records(tmp_path / "nope.cache")


def test_wrong_header_version(tmp_path):
    path = tmp_path / "old.cache"
    path.write_text("DESCENTS-CACHE v0\nd 0 0 1\n")
    with pytest.raises(CacheError, match="bad cache header"):
        load_records(path)


def test_truly_empty_file(tmp_path):
    path = tmp_path / "zero.cache"
    path.write_bytes(b"")
    with pytest.raises(CacheError, match="bad cache header"):
        load_records(path)


@pytest.mark.parametrize("line", [
    "d 3 1",              # too few fields
    "d 3 1 11 extra",     # too many fields
    "d  3 1 11",          # double space makes an empty field
    "d 3 1 11\x1cd 3 0 8",  # a file separator ends no line
])
def test_field_count_enforced(tmp_path, line):
    path = tmp_path / "bad.cache"
    path.write_text(f"{HEADER}\n{line}\n")
    with pytest.raises(CacheError, match="line 2"):
        load_records(path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_every_line_ending_loads_alike(tmp_path, ending):
    path = tmp_path / "memo.cache"
    path.write_bytes(ending.join([HEADER, "d 0 0 1", "d 1 0 1", ""])
                     .encode("ascii"))
    assert load_records(path) == [("d", 0, 0, 1), ("d", 1, 0, 1)]


def test_unknown_family(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text(f"{HEADER}\nz 3 1 11\n")
    with pytest.raises(CacheError, match="unknown family 'z'"):
        load_records(path)


@pytest.mark.parametrize("line", [
    "d -3 1 11",
    "d 3 +1 11",
    "d 3 1 1.5",
    "d 3 1 0x11",
    "d three 1 11",
    "d 3 1 11\x0c",  # a form feed ends no line: the fault is on line 2
])
def test_non_decimal_fields(tmp_path, line):
    path = tmp_path / "bad.cache"
    path.write_text(f"{HEADER}\n{line}\n")
    with pytest.raises(CacheError, match="line 2: fields must be decimal"):
        load_records(path)


@needs_digit_limit
def test_oversized_integer_is_a_cache_error(tmp_path):
    # past Python's default 4,300-digit limit, int() itself raises
    path = tmp_path / "bad.cache"
    path.write_text(f"{HEADER}\nd 3 1 11\nd 3 0 {'9' * 5000}\n")
    with pytest.raises(CacheError, match="line 3: integer field longer"):
        load_records(path)


def test_duplicate_key(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text(f"{HEADER}\nd 3 1 11\nd 3 1 11\n")
    with pytest.raises(CacheError, match="line 3: duplicate key d 3 1"):
        load_records(path)


def test_wrong_record_rejected_after_the_fill_before_it(tmp_path):
    path = tmp_path / "evil.cache"
    # wrong value last: it is found by its computed cell, after the
    # fill for the record before it
    path.write_text(f"{HEADER}\nt 2 0 1\nd 3 1 12\n")
    counter = DescentCounter()
    with pytest.raises(CacheError) as excinfo:
        apply_records(counter, load_records(path))
    assert str(excinfo.value) == ("rejected cache entry d 3 1 12: "
                                  "d(3,1) is 11, not 12")
    # nothing read was stored: the counter holds computed cells only
    assert list(counter.entries()) == list(_filled(3).entries())


def test_record_past_the_row_rejected_against_zero(tmp_path):
    path = tmp_path / "bad.cache"
    # k = 4 > C(3,2): the computed cell is zero
    path.write_text(f"{HEADER}\nd 3 4 7\n")
    counter = DescentCounter()
    with pytest.raises(CacheError) as excinfo:
        apply_records(counter, load_records(path))
    assert str(excinfo.value) == ("rejected cache entry d 3 4 7: "
                                  "d(3,4) is 0, not 7")
    assert list(counter.entries()) == list(_filled(3).entries())


def test_impossible_record_beyond_fixture_range(tmp_path):
    path = tmp_path / "bad.cache"
    # n = 9 is past the fixture, but k = 37 > C(9,2) is still impossible
    path.write_text(f"{HEADER}\nd 9 37 5\n")
    with pytest.raises(CacheError, match="rejected cache entry d 9 37 5"):
        apply_records(DescentCounter(), load_records(path))


def test_deep_records_outside_fixture_are_checked(tmp_path):
    # values beyond the fixture (n > 8) are checked against a fill
    path = tmp_path / "deep.cache"
    source = _filled(9)
    save_cache(path, source)
    warmed = DescentCounter()
    apply_records(warmed, load_records(path))
    assert warmed.dag_count(9, 3) == source.dag_count(9, 3)


def test_wrong_record_beyond_fixture_range(tmp_path):
    # d(9,36) is 1: only the graph with every edge x -> y, x > y, has
    # C(9,2) = 36 descents.  n = 9 is past the fixture, so only a fill
    # can refute the record.
    path = tmp_path / "deep.cache"
    path.write_text(f"{HEADER}\nd 9 36 2\n")
    with pytest.raises(CacheError) as excinfo:
        apply_records(DescentCounter(), load_records(path))
    assert str(excinfo.value) == ("rejected cache entry d 9 36 2: "
                                  "d(9,36) is 1, not 2")


def test_apply_records_conflicts_with_computed_value():
    c = DescentCounter()
    c.dag_count(3, 1)  # materializes row 3
    apply_records(c, [("t", 3, 1, 2)])  # matching value is a no-op
    for value in (3, -5):
        with pytest.raises(CacheError) as excinfo:
            apply_records(c, [("t", 3, 1, value)])
        assert str(excinfo.value) == (f"rejected cache entry t 3 1 {value}: "
                                      f"t(3,1) is 2, not {value}")
    with pytest.raises(CacheError) as excinfo:
        apply_records(c, [("t", 0, 0, 1)])  # only d is defined at n=0
    assert str(excinfo.value) == ("rejected cache entry t 0 0 1: "
                                  "n must be at least 1, got 0")


def test_apply_records_rejects_a_value_past_the_fixture():
    # the record list itself, no file: d(9,36) is 1, and n = 9 is past
    # the fixture, so the comparison with the filled cell refutes it
    c = DescentCounter()
    with pytest.raises(CacheError, match=r"d\(9,36\) is 1, not 2$"):
        apply_records(c, [("d", 9, 36, 2)])
    apply_records(c, [("d", 9, 36, 1)])
    assert c.cell("d", 9, 36) == 1


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("whole_level", [False, True])
def test_apply_records_rejects_a_cell_nothing_else_reads(family, whole_level):
    # A(6,15) and B(6,15) feed no d cell, so a value one too high there
    # would drive nothing negative; apply_records refuses it all the same
    reference = _filled(6)
    checked = DescentCounter()
    for tag, n, k, value in reference.entries():
        if (tag, n, k) == (family, 6, 15):
            with pytest.raises(CacheError, match=rf"{family}\(6,15\) is "):
                apply_records(checked, [(tag, n, k, value + 1)])
        elif whole_level and n == 6:
            apply_records(checked, [(tag, n, k, value)])
    # the rejected value is not kept: the counter holds computed cells only
    assert checked.table(6) == reference.table(6)
    assert list(checked.entries()) == list(reference.entries())


def test_load_rejects_n_above_ceiling(tmp_path):
    path = tmp_path / "deep.cache"
    path.write_text(f"{HEADER}\nd 300 0 1\n")
    with pytest.raises(CacheError) as excinfo:
        load_records(path)
    assert str(excinfo.value) == ("line 2: n = 300 is above the supported "
                                  "maximum 40")


def test_load_accepts_n_at_ceiling(tmp_path):
    path = tmp_path / "deep.cache"
    path.write_text(f"{HEADER}\nd 40 0 1\n")
    assert load_records(path) == [("d", 40, 0, 1)]
