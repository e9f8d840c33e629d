"""The lattice facts read off the cover-step coding, against their definitions.

The arrow partition takes each join-irreducible's partner from the label of
its lower cover instead of scanning J×M; these tests compare it with the
up-down relation of ``arrow_relations`` on the seeded corpora, the fixtures
and hypothesis-generated classical and coloured games. The stock shapes are
built from their known covers; the covers are compared with those derived
from the order.
"""

import pytest
from hypothesis import given, settings

from chipfire.fixtures import diamond, funnel_game, gated_cube_lattice, pentagon
from chipfire.lattice import Lattice, Poset

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
        shapes = [
            Lattice.chain(1),
            Lattice.chain(5),
            Lattice.boolean(0),
            Lattice.boolean(3),
            Lattice.boolean(4).interval(1, 15),
            funnel.interval(funnel.bottom, funnel.top),
            funnel.interval(1, funnel.top),
            pentagon(),
            diamond(),
        ]
        for lat in shapes:
            lat.is_distributive, lat.is_uld
    for lat in shapes:
        assert lat.cover_pairs == Poset(lat.leq, _checked=True).cover_pairs, lat.labels
