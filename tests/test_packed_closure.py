"""The packed closures against the tuple closures they replaced: the one
place where each input family meets its closure oracle.

``engine._closure`` keeps each firing vector as one int,
``Cfg.enumerate_space`` each configuration as one int and
``ColouredCfg.enumerate_space`` each coloured state as a tuple of ints, one
chip block per colour and the open-set mask.
``helpers.tuple_space`` runs the same breadth-first closure on tuples, with
successors read off the edge multiplicities alone; ``helpers.full_scan_space``
runs it on ``ColouredState``s of chip tuples, with the full-scan opening rule
on tuples. Both sides must give the same vectors, configurations and covers,
and, past a cap or on a faulty game, the same exception and text.

- classical games: the 200-game corpus, whose top must also be
  ``run_to_fixpoint``'s final configuration (``test_game_corpus``);
  ``convergent_games()`` draws, plain and scaled past 2^64; chip totals past
  2^64; games with no chips or no vertices; capped games
- coloured games: the 100-game corpus with ``shared_gate_game`` and
  ``split_track_game`` (``test_coloured_corpus``); ``coloured_games()``
  draws (``test_generated_coloured_games``); ``coloured_from_uld`` on
  boolean 2^1-2^10 and the gated cube (``test_uld_games``); chip totals past
  2^64; games with no chips or no colours; capped games. Every coloured
  firing vector is in {0, 1}: a vertex opens once.

The closure hands a space its covers as each state's upper covers and its
mask of moves, with no sorted triple. So the space's ``covers``,
``_upper_covers`` and ``move_masks`` are also checked against the oracle's
own sorted triples, grouped per state by ``helpers.grouped_by_state``, and
the rule that lets the closure skip the sort is checked on those triples:
among one state's upper covers, a larger element fires a smaller vertex.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire.coloured import ColouredCfg
from chipfire.engine import Cfg
from chipfire.errors import FiringVectorConflict, StateCapExceeded
from chipfire.fixtures import gated_cube_lattice, shared_gate_game, split_track_game
from chipfire.formats import parse_game
from chipfire.lattice import Lattice
from chipfire.multigraph import ColouredMultigraph, Multigraph
from chipfire.transforms import coloured_from_uld

from helpers import (
    coloured_games,
    convergent_games,
    fired_vertex,
    full_scan_parts,
    full_scan_space,
    grouped_by_state,
    grouped_space,
    sand_pile_text,
    tuple_parts,
    tuple_space,
)


def assert_fired_vertices_descend(covers):
    """Sorted (lower, upper, vertex) triples: per lower state, the vertex
    falls as the upper state rises."""
    for (lo, hi, v), (lo2, hi2, v2) in zip(covers, covers[1:]):
        assert lo != lo2 or (hi < hi2 and v > v2), (lo, hi, v, hi2, v2)


def assert_same_covers(space, names, parts):
    """The space's covers against the oracle space of ``parts`` and against
    the oracle's sorted triples themselves, grouped here per state."""
    oracle, covers = grouped_space(names, *parts), parts[2]
    assert tuple(space.covers) == tuple(oracle.covers)
    assert tuple(space.covers) == covers and len(space.covers) == len(covers)
    ups, masks = grouped_by_state(len(space), covers)
    assert space._upper_covers == oracle._upper_covers == ups
    assert space.move_masks == oracle.move_masks == masks
    assert_fired_vertices_descend(covers)


def assert_same_space(game, state_cap=None):
    space, parts = game.enumerate_space(state_cap), tuple_parts(game, state_cap)
    assert space.vectors == parts[0]
    assert space.configs == parts[1]
    assert_same_covers(space, game.graph.names, parts)
    assert all(type(c) is int for conf in space.configs for c in conf)
    return space


def assert_same_failure(game, state_cap):
    with pytest.raises(Exception) as oracle:
        tuple_space(game, state_cap)
    with pytest.raises(oracle.type, match=f"^{re.escape(str(oracle.value))}$"):
        game.enumerate_space(state_cap)


def test_a_larger_upper_cover_fires_a_smaller_vertex(game_corpus, coloured_corpus):
    # vertex 0 is the most significant field of a firing vector, so the
    # closure's successor lists, reversed, are upper covers in canonical order
    games = game_corpus + [parse_game(sand_pile_text(28))]
    parts = [tuple_parts(g) for g in games] + [full_scan_parts(g) for g in coloured_corpus]
    for _, _, covers in parts:
        assert_fired_vertices_descend(covers)
    wide = Cfg(Multigraph.from_edges("abcdt", [(v, "t", 1) for v in "abcd"]), (1, 1, 1, 1, 0))
    space = wide.enumerate_space()
    assert space.ups[0] == (1, 2, 3, 4)
    assert [fired_vertex(space.vectors, 0, hi) for hi in space.ups[0]] == [3, 2, 1, 0]


def test_game_corpus(game_corpus):
    for game in game_corpus:
        space = assert_same_space(game)
        assert space.configs[space.top] == game.run_to_fixpoint().final


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_generated_games(game):
    assert_same_space(game)


@st.composite
def heavy_games(draw):
    """``convergent_games`` with every chip count and multiplicity scaled by
    one factor, up to 2^70: the total passes 2^64 and the fields are wide."""
    game = draw(convergent_games())
    k = draw(st.sampled_from([3, 2**31 + 1, 2**64 - 1, 2**64, 2**70]))
    graph = Multigraph(game.graph.names, {e: m * k for e, m in game.graph.mult.items()})
    return Cfg(graph, tuple(c * k for c in game.init))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(heavy_games())
def test_generated_games_with_huge_chip_counts(game):
    assert_same_space(game)


def test_chip_total_past_two_to_the_64():
    big = 2**64
    graph = Multigraph.from_edges("abt", [("a", "b", big), ("a", "t", big), ("b", "t", 2 * big)])
    game = Cfg(graph, (4 * big + 1, big - 1, 0))
    assert sum(game.init).bit_length() > 64
    assert_same_space(game)
    assert game.enumerate_space().configs[-1] == (1, big - 1, 4 * big)


def test_zero_chip_and_zero_vertex_games():
    zero = Cfg(Multigraph.from_edges("abt", [("a", "b", 1), ("b", "t", 2)]), (0, 0, 0))
    empty = Cfg(Multigraph(()), ())
    for game in (zero, empty):
        assert_same_space(game)
        space = game.enumerate_space()
        assert space.vectors == ((0,) * game.graph.n,) and space.configs == (game.init,)


@pytest.mark.parametrize("cap", range(8))
def test_capped_games_fail_alike(cap, game_corpus):
    cycle = Cfg(Multigraph.from_edges("ab", [("a", "b", 1), ("b", "a", 1)]), (1, 0))
    assert_same_failure(cycle, cap)  # the cap up to 1, then a revisit
    triangle = Cfg(Multigraph.from_edges("abc", [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)]), (2, 1, 0))
    assert_same_failure(triangle, cap)
    drain = Cfg(Multigraph.from_edges("abc", [("a", "b", 1), ("b", "a", 1), ("b", "c", 1)]), (3, 0, 0))
    assert_same_failure(drain, cap)  # a cycle with a way out: past every cap here
    for game in game_corpus[:20]:
        if len(tuple_space(game)) > cap:
            assert_same_failure(game, cap)
        else:
            assert_same_space(game, cap)


def test_cyclic_game_failures_are_the_closure_checks():
    cycle = Cfg(Multigraph.from_edges("ab", [("a", "b", 1), ("b", "a", 1)]), (1, 0))
    with pytest.raises(FiringVectorConflict, match="^revisited state with a different firing vector$"):
        cycle.enumerate_space(state_cap=10)
    loop = Cfg(Multigraph.from_edges("a", [("a", "a", 1)]), (1,))
    with pytest.raises(StateCapExceeded, match="^state space exceeds cap 0$"):
        loop.enumerate_space(state_cap=0)


def assert_same_coloured_space(game, state_cap=None):
    space, parts = game.enumerate_space(state_cap), full_scan_parts(game, state_cap)
    assert space.vectors == parts[0]
    assert space.configs == parts[1]
    assert_same_covers(space, game.graph.names, parts)
    assert all(type(c) is int for chips in space.configs for conf in chips for c in conf)
    assert all(set(vec) <= {0, 1} for vec in space.vectors)  # each vertex opens once


def test_coloured_corpus(coloured_corpus):
    for game in coloured_corpus + [shared_gate_game(), split_track_game()]:
        assert_same_coloured_space(game)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_generated_coloured_games(game):
    assert_same_coloured_space(game)


def test_uld_games():
    for lattice in [Lattice.boolean(k) for k in range(1, 11)] + [gated_cube_lattice()]:
        assert_same_coloured_space(coloured_from_uld(lattice))


def test_coloured_chip_totals_past_two_to_the_64_and_zero():
    # colour 1 moves 3·2^64 + 5 chips down a path, colour 2 holds no chips,
    # colour 3 gates b on a's first opening
    big = 2**64
    graph = ColouredMultigraph.from_edges(
        "abt",
        [("a", "b", big, 1), ("b", "t", 2 * big, 1), ("a", "t", 1, 2), ("b", "t", 1, 2),
         ("a", "b", 1, 3), ("b", "t", 1, 3)],
    )
    several = ColouredCfg(graph, {1: (3 * big + 5, 0, 0), 3: (1, 0, 0)})
    assert sum(several.init[1]).bit_length() > 64 and several.init[2] == (0, 0, 0)
    one = ColouredCfg(ColouredMultigraph(graph.names, {1: graph.layers[1]}), {1: several.init[1]})
    for game in (several, one):
        assert_same_coloured_space(game)
    assert several.enumerate_space().configs[-1] == ((5, big, 2 * big), (0, 0, 0), (0, 0, 1))
    assert len(one.enumerate_space()) == 3


def test_zero_chip_coloured_games():
    graph = ColouredMultigraph.from_edges("abt", [("a", "b", 1, 1), ("b", "t", 1, 2)])
    for init in ({}, {1: (0, 0, 0)}, {2: (0, 0, 0)}):
        game = ColouredCfg(graph, init)
        assert_same_coloured_space(game)
        assert game.enumerate_space().configs == (((0, 0, 0), (0, 0, 0)),)
    colourless = ColouredCfg(ColouredMultigraph(("a", "b")), {})
    assert_same_coloured_space(colourless)
    assert colourless.enumerate_space().configs == ((),)


@pytest.mark.parametrize("cap", range(8))
def test_capped_coloured_games_fail_alike(cap, coloured_corpus):
    for game in [shared_gate_game(), split_track_game()] + coloured_corpus[:20]:
        if len(full_scan_space(game)) > cap:
            with pytest.raises(StateCapExceeded, match=f"^state space exceeds cap {cap}$"):
                full_scan_space(game, cap)
            with pytest.raises(StateCapExceeded, match=f"^state space exceeds cap {cap}$"):
                game.enumerate_space(cap)
        else:
            assert_same_coloured_space(game, cap)

