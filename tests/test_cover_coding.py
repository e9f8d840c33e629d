"""The lattice facts read off the cover-step coding, against their definitions.

The arrow partition takes each join-irreducible's partner from the label of
its lower cover instead of scanning J×M; its self-check must report a
join-irreducible with no up-down partner. The partition itself meets the
up-down arrows in ``tests/test_lattice_tables.py``. The stock shapes, the
ideal lattices and the ideal quotient are built from their known covers (a
set family's one-element steps). The ideal lattices and the quotient are
checked against the definition of a family ordered by inclusion
(``helpers.assert_set_family``), the quotient's members grouped as in the
paper; the covers of the stock shapes against those derived from the order:
as pairs, per element, and in the first cover-step witness, also on orders
given as a ``leq`` matrix.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from chipfire.fixtures import diamond, funnel_game, gated_cube_lattice, pentagon
from chipfire.lattice import Lattice, Poset, ideal_lattice

from helpers import (
    all_posets_upto,
    assert_adjacencies_match,
    assert_set_family,
    dense_ideal_quotient,
    dense_leq,
    naive_cover_pairs,
    posets,
)


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
    shapes += all_posets_upto(4)
    for lat in [pentagon(), diamond(), gated_cube_lattice(), Lattice.boolean(3), funnel]:
        perm = rng.sample(range(lat.n), lat.n)
        shapes.append(Lattice(dense_leq(lat)[np.ix_(perm, perm)]))  # renumbered, by leq
    for lat in shapes:
        leq = dense_leq(lat)
        assert lat.cover_pairs == Poset(leq, _checked=True).cover_pairs, lat.labels
        assert list(lat.cover_pairs) == naive_cover_pairs(leq), lat.labels
        assert_adjacencies_match(lat, leq)


def assert_quotient_matches_the_grouping(lat):
    labels = lat.join_irreducible_poset().labels
    assert_set_family(lat.ideal_quotient(), dense_ideal_quotient(lat), labels)


def assert_family_lattices_match_the_definition(poset):
    lat = ideal_lattice(poset)
    assert_set_family(lat, poset.ideal_masks(), poset.labels)
    assert_quotient_matches_the_grouping(lat)


def test_family_lattices_match_the_dense_order(small_posets, space_corpus, coloured_space_corpus):
    for poset in small_posets:
        assert_family_lattices_match_the_definition(poset)
    lattices = [space.lattice() for space in space_corpus + coloured_space_corpus]
    uld = [lat for lat in lattices + [gated_cube_lattice()] if lat.is_uld]
    assert any(not lat.is_distributive for lat in uld)
    for lat in uld:
        assert_quotient_matches_the_grouping(lat)
        assert_family_lattices_match_the_definition(lat.join_irreducible_poset())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(posets())
def test_family_lattices_match_the_dense_order_on_generated_posets(poset):
    assert_family_lattices_match_the_definition(poset)
