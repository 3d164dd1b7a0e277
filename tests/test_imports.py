"""The package's public names load on first use."""
import pytest

import dagdescents


@pytest.mark.parametrize("name", dagdescents.__all__)
def test_every_public_name_resolves(name):
    value = getattr(dagdescents, name)
    assert value is not None
    assert getattr(dagdescents, name) is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from dagdescents import *", namespace)
    assert set(dagdescents.__all__) <= set(namespace)
    assert namespace["DescentCounter"] is dagdescents.DescentCounter
    assert namespace["enumerate_counts"] is dagdescents.enumerate_counts


def test_dir_lists_every_public_name():
    assert set(dagdescents.__all__) <= set(dir(dagdescents))
    assert "__version__" in dir(dagdescents)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        dagdescents.no_such_name
    assert not hasattr(dagdescents, "no_such_name")


@pytest.mark.parametrize("name", ["reachable", "all_dags", "per_graph_counts",
                                  "Dag", "DagStats", "is_acyclic", "stats",
                                  "ordered_pairs"])
def test_per_graph_reference_is_not_package_api(name):
    # the enumerator's per-graph reference lives in tests/dag_reference.py
    import dagdescents.oracle

    assert name not in dagdescents.__all__
    assert not hasattr(dagdescents, name)
    assert not hasattr(dagdescents.oracle, name)


@pytest.mark.parametrize("name", ["golden_value", "partition_count",
                                  "two_factorial", "GOLDEN_TOTALS"])
def test_test_only_names_are_not_package_api(name):
    # the kernel references live in tests/kernel_reference.py, snapshot
    # records are checked against computed cells, not the fixture, and
    # the tests keep their own copy of the row totals
    import dagdescents.combinatorics
    import dagdescents.golden

    assert name not in dagdescents.__all__
    assert not hasattr(dagdescents, name)
    assert not hasattr(dagdescents.combinatorics, name)
    assert not hasattr(dagdescents.golden, name)

