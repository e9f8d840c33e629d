"""The packed closure against the tuple closure it replaced.

``engine._closure`` keeps each firing vector as one int and
``Cfg.enumerate_space`` each configuration as one int; ``helpers.tuple_space``
runs the same breadth-first closure on tuples, with successors read off the
edge multiplicities alone. Both must give the same vectors, configurations
and covers, and, past a cap or on a faulty game, the same exception and text.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire.engine import Cfg
from chipfire.errors import FiringVectorConflict, StateCapExceeded
from chipfire.multigraph import Multigraph

from helpers import tuple_closure, tuple_space
from test_coloured import coloured_games
from test_lattice_tables import convergent_games


def assert_same_space(game, state_cap=None):
    space, oracle = game.enumerate_space(state_cap), tuple_space(game, state_cap)
    assert space.vectors == oracle.vectors
    assert space.configs == oracle.configs
    assert space.covers == oracle.covers
    assert all(type(c) is int for conf in space.configs for c in conf)


def assert_same_failure(game, state_cap):
    with pytest.raises(Exception) as oracle:
        tuple_space(game, state_cap)
    with pytest.raises(oracle.type, match=f"^{re.escape(str(oracle.value))}$"):
        game.enumerate_space(state_cap)


def test_game_corpus(game_corpus):
    for game in game_corpus:
        assert_same_space(game)


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


def coloured_tuple_space(game):
    successors = lambda state: [(v, game._open(state, v)) for v in sorted(game._openable(state))]
    return tuple_closure(game, game.initial_state(), successors, None)


def assert_same_coloured_space(game):
    space, oracle = game.enumerate_space(), coloured_tuple_space(game)
    assert space.vectors == oracle.vectors
    assert space.configs == tuple(state.chips for state in oracle.configs)
    assert space.covers == oracle.covers


def test_coloured_corpus(coloured_corpus):
    for game in coloured_corpus:
        assert_same_coloured_space(game)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_generated_coloured_games(game):
    assert_same_coloured_space(game)
