"""The engine's fault seam: one computed cell of a level made wrong."""
from dagdescents.engine import FAMILIES, DescentCounter

# captured at import, so that a second bump replaces the first
_packed_rows = DescentCounter._packed_rows


def bump(patch, family, n, k, by=1):
    """Patch ``DescentCounter`` so that computing level ``n`` adds ``by`` to
    cell (n, k) of ``family`` (t, u, A, B or Cw) at every fill of level n.
    ``patch`` is ``setattr`` or ``monkeypatch.setattr``.  Returns the list
    of levels bumped, which grows as fills happen."""
    bumps = []

    def bumped(self, level, size):
        rows = _packed_rows(self, level, size)
        if level == n:
            rows[FAMILIES.index(family) - 1][k] += by
            bumps.append(level)
        return rows

    patch(DescentCounter, "_packed_rows", bumped)
    return bumps
