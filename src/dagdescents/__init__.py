"""Exact counts of labeled acyclic digraphs by number of descents.

A descent of a labeled digraph is an edge x -> y with x > y.  The
package computes d(n,k), the number of acyclic digraphs on vertices
1..n with exactly k descents, through memoized exact-integer
recurrences (`DescentCounter`), and ships the machinery used to trust
those numbers: an exhaustive brute-force enumerator for small n, a
golden fixture of known-good values, classical cross-checks on the row
totals and their reciprocal series (the ``verify`` module), a plain-text
snapshot format, and a CLI.

The public names below load on first use: importing the package (or
running ``python -m dagdescents``) imports no submodule, so a command
only pays for the modules it runs.  ``value`` and ``table`` load
``cli``, ``engine`` and ``combinatorics``, and no ``typing``; only
``verify`` loads the ``verify`` module, the golden fixture and the
oracle.  A test in ``tests/test_cli.py`` pins this in a fresh
``python -S`` interpreter, where no ``site`` hook preloads a module.
"""
import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it, grouped by submodule.
_EXPORTS = {
    "combinatorics": ("binomial", "gaussian_coeffs", "gaussian_coefficient",
                      "pow2"),
    "engine": ("FAMILIES", "DescentCounter", "labeled_dag_total"),
    "golden": ("GOLDEN_COUNTS", "GOLDEN_MAX_N"),
    "oracle": ("OracleCounts", "enumerate_counts", "subset_pair_histogram"),
    "verify": ("series_identity_check",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__),
                            name)
            globals()[name] = value  # later lookups skip this hook
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
