"""Vectorised arrow relations and arrow witness reports against the loop
oracles in ``helpers`` on lattices that fail a clause. No finite lattice
does, so the failures are provoked through the accessors both sides read;
every input family meets these oracles unprovoked in
``tests/test_lattice_tables.py``."""

from chipfire.fixtures import diamond, gated_cube_lattice, pentagon
from chipfire.lattice import Lattice, arrow_witness_report

from helpers import naive_arrow_relations, naive_arrow_witness_report, with_duals


def test_failures_keep_their_order(monkeypatch):
    """No finite lattice fails a clause, so the failures are provoked: with
    j_lower(j) = j no down arrow exists, with m_upper(m) = m no up arrow;
    the oracle reads the same accessors."""
    kinds = set()
    for accessor in ("j_lower", "m_upper"):
        with monkeypatch.context() as patch:
            patch.setattr(Lattice, accessor, lambda self, x: x)
            for lat in with_duals([pentagon(), diamond(), gated_cube_lattice(), Lattice.boolean(3)]):
                assert lat.arrow_relations == naive_arrow_relations(lat), lat.labels
                report = arrow_witness_report(lat)
                assert report == naive_arrow_witness_report(lat), lat.labels
                assert not report.passed
                kinds.update(kind for kind, _, _ in report.failures)
    assert kinds == {"down", "updown", "up"}
