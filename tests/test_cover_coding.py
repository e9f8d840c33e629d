"""The lattice facts read off the cover-step coding, against their definitions.

The arrow partition takes each join-irreducible's partner from the label of
its lower cover instead of scanning J×M; these tests compare it with the
up-down relation of ``arrow_relations`` on the seeded corpora, the fixtures
and hypothesis-generated classical and coloured games. The stock shapes, the
ideal lattices and the ideal quotient are built from their known covers (a
set family's one-element steps); their order, labels, covers and joins are
compared with the dense inclusion order of the same family, and the covers
with those derived from the order.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire.fixtures import diamond, funnel_game, gated_cube_lattice, pentagon
from chipfire.lattice import Lattice, Poset, ideal_lattice

from helpers import (
    dense_ideal_quotient,
    dense_join_table,
    dense_leq,
    dense_union_closed_lattice,
    naive_cover_pairs,
)
from test_coloured import coloured_games
from test_lattice_tables import convergent_games


def assert_partner_is_updown_arrow(lat):
    if not lat.is_uld:
        with pytest.raises(ValueError):
            lat.arrow_partition()
        return
    partner = lat.arrow_partition().partner
    updown = lat.arrow_relations.updown
    assert set(partner) == set(lat.J)
    for j in lat.J:
        assert [m for m in lat.M if (j, m) in updown] == [partner[j]], (lat.labels, j)


def test_partner_matches_arrows_on_corpora(space_corpus, coloured_space_corpus, distributive_corpus):
    lattices = [space.lattice() for space in space_corpus + coloured_space_corpus]
    lattices += distributive_corpus
    lattices += [gated_cube_lattice(), funnel_game().enumerate_space().lattice()]
    assert any(lat.is_uld and not lat.is_distributive for lat in lattices)
    for lat in lattices:
        assert_partner_is_updown_arrow(lat)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_partner_matches_arrows_on_generated_games(game):
    assert_partner_is_updown_arrow(game.enumerate_space().lattice())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_partner_matches_arrows_on_generated_coloured_games(game):
    assert_partner_is_updown_arrow(game.enumerate_space().lattice())


def test_partner_self_check_reports_a_missing_up_arrow(monkeypatch):
    # with m_upper(m) = m no join-irreducible lies below its candidate's cover
    monkeypatch.setattr(Lattice, "m_upper", lambda self, m: m)
    with pytest.raises(RuntimeError, match="0 up-down partners"):
        gated_cube_lattice().arrow_partition()


def test_stock_shapes_skip_cover_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("slow path called")

    with monkeypatch.context() as patch:
        patch.setattr(Poset, "_cover_matrix", property(refuse))
        funnel = funnel_game().enumerate_space().lattice()
        fence = ideal_lattice(Poset.from_covers(5, [(0, 1), (2, 1), (2, 3), (4, 3)]))
        shapes = [
            Lattice.chain(1),
            Lattice.chain(5),
            Lattice.boolean(0),
            Lattice.boolean(3),
            Lattice.boolean(5),
            fence,
            fence.ideal_quotient(),
            gated_cube_lattice().ideal_quotient(),
            Lattice.boolean(4).interval(1, 15),
            funnel.interval(funnel.bottom, funnel.top),
            funnel.interval(1, funnel.top),
            pentagon(),
            diamond(),
        ]
        for lat in shapes:
            lat.is_distributive, lat.is_uld
    # orders given by leq alone, checked for transitivity, derive their covers
    rng = random.Random(3)
    for n in (2, 5, 9, 14):
        perm = rng.sample(range(n), n)
        up = np.triu(np.array([[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]), 1)
        closed = Poset.from_covers(n, [(perm[i], perm[j]) for i, j in zip(*np.nonzero(up))])
        shapes.append(Poset(dense_leq(closed)))
    for lat in shapes:
        leq = dense_leq(lat)
        assert lat.cover_pairs == Poset(leq, _checked=True).cover_pairs, lat.labels
        assert list(lat.cover_pairs) == naive_cover_pairs(leq), lat.labels


def assert_matches_dense(lat, dense):
    assert lat.labels == dense.labels
    assert np.array_equal(dense_leq(lat), dense_leq(dense))
    assert lat.cover_pairs == dense.cover_pairs, lat.labels
    assert np.array_equal(dense_join_table(lat), dense_join_table(dense))


def assert_family_lattices_match_dense(poset):
    lat = ideal_lattice(poset)
    assert_matches_dense(lat, dense_union_closed_lattice(poset.ideal_masks(), poset.labels))
    assert_matches_dense(lat.ideal_quotient(), dense_ideal_quotient(lat))


def test_family_lattices_match_the_dense_order(small_posets, space_corpus, coloured_space_corpus):
    for poset in small_posets:
        assert_family_lattices_match_dense(poset)
    lattices = [space.lattice() for space in space_corpus + coloured_space_corpus]
    uld = [lat for lat in lattices + [gated_cube_lattice()] if lat.is_uld]
    assert any(not lat.is_distributive for lat in uld)
    for lat in uld:
        assert_matches_dense(lat.ideal_quotient(), dense_ideal_quotient(lat))
        assert_family_lattices_match_dense(lat.join_irreducible_poset())


@st.composite
def posets(draw):
    """Orders on up to 8 elements, closed from random pairs i < j."""
    n = draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Poset.from_covers(n, [pair for pair, keep in zip(pairs, chosen) if keep])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(posets())
def test_family_lattices_match_the_dense_order_on_generated_posets(poset):
    assert_family_lattices_match_dense(poset)
