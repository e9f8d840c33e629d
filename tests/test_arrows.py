"""Vectorised arrow relations and arrow witness reports against the loop
oracles in ``helpers``, on ULD and non-ULD lattices alike."""

import random

from hypothesis import given, settings

from chipfire.fixtures import diamond, gated_cube_lattice, pentagon
from chipfire.lattice import Lattice, arrow_witness_report

from helpers import (
    all_posets_upto,
    dense_leq,
    naive_arrow_relations,
    naive_arrow_witness_report,
    with_duals,
)
from test_coloured import coloured_games
from test_lattice_tables import bounded, convergent_games, random_dag_poset


def assert_matches_oracles(lat):
    assert lat.arrow_relations == naive_arrow_relations(lat), lat.labels
    report = arrow_witness_report(lat)
    assert report == naive_arrow_witness_report(lat), lat.labels
    return report


def test_corpora_and_duals(space_corpus, coloured_space_corpus, distributive_corpus):
    spaces = [space.lattice() for space in space_corpus + coloured_space_corpus]
    for lat in with_duals(spaces + distributive_corpus):
        assert_matches_oracles(lat)


def test_fixtures_and_bounded_posets():
    lattices = [pentagon(), diamond(), gated_cube_lattice(), Lattice.chain(1), Lattice.boolean(3)]
    rng = random.Random(11)
    posets = all_posets_upto(4) + [random_dag_poset(rng, rng.randint(2, 7)) for _ in range(150)]
    for poset in map(bounded, posets):
        try:
            lattices.append(Lattice(dense_leq(poset), labels=poset.labels, _checked=True))
        except ValueError:
            pass
    reports = [assert_matches_oracles(lat) for lat in with_duals(lattices)]
    assert any(report.updown_ok is None for report in reports)


def test_failures_keep_their_order(monkeypatch):
    """No finite lattice fails a clause, so the failures are provoked: with
    j_lower(j) = j no down arrow exists, with m_upper(m) = m no up arrow;
    the oracle reads the same accessors."""
    kinds = set()
    for accessor in ("j_lower", "m_upper"):
        with monkeypatch.context() as patch:
            patch.setattr(Lattice, accessor, lambda self, x: x)
            for lat in with_duals([pentagon(), diamond(), gated_cube_lattice(), Lattice.boolean(3)]):
                report = assert_matches_oracles(lat)
                assert not report.passed
                kinds.update(kind for kind, _, _ in report.failures)
    assert kinds == {"down", "updown", "up"}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_generated_games(game):
    for lat in with_duals([game.enumerate_space().lattice()]):
        assert_matches_oracles(lat)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_generated_coloured_games(game):
    for lat in with_duals([game.enumerate_space().lattice()]):
        assert_matches_oracles(lat)
