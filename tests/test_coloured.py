import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import coloured
from chipfire.coloured import ColouredCfg, from_classical
from chipfire.engine import Cfg
from chipfire.errors import StateCapExceeded, StepCapExceeded
from chipfire.fixtures import (
    funnel_game,
    gated_cube_lattice,
    relay_chain_game,
    shared_gate_game,
    split_track_game,
)
from chipfire.lattice import Lattice, is_isomorphic
from chipfire.multigraph import ColouredMultigraph
from chipfire.transforms import coloured_from_uld, simplify

import helpers
from helpers import (
    coloured_tuple_space,
    dfs_coloured_reachable,
    full_scan_space,
    random_coloured_game,
)


def v(game, name):
    return game.graph.vertex(name)


def chips_of(game, state, name, colour):
    return state.chips[game.colours.index(colour)][v(game, name)]


def test_guard_rejects_closed_cycle_colour():
    graph = ColouredMultigraph(("a", "b"), {1: {(0, 1): 1, (1, 0): 1}})
    with pytest.raises(ValueError):
        ColouredCfg(graph, {1: (1, 0)})


def test_openable_initial_shared_gate():
    game = shared_gate_game()
    state = game.initial_state()
    assert game.openable(state) == {v(game, "a"), v(game, "b")}


def test_openable_mid_state_gate():
    game = shared_gate_game()
    state = game.initial_state()
    state = game.open_vertex(state, v(game, "a"))
    state = game.open_vertex(state, v(game, "b"))
    assert game.openable(state) == {v(game, "c")}


def test_openable_all_open_empty():
    game = shared_gate_game()
    state = game.initial_state()
    for name in ("a", "b", "c"):
        state = game.open_vertex(state, v(game, name))
    assert game.openable(state) == frozenset()


def test_open_vertex_moves_chips_to_closed_vertices():
    game = shared_gate_game()
    state = game.open_vertex(game.initial_state(), v(game, "a"))
    # colour-1 chip lands on the still-closed gate, colour-3 chip on the sink
    assert chips_of(game, state, "c", 1) == 1
    assert chips_of(game, state, "bot", 3) == 1
    assert chips_of(game, state, "a", 1) == 0
    assert chips_of(game, state, "a", 3) == 0


def test_open_isolated_chip_goes_to_sink():
    graph = ColouredMultigraph(("x", "s"), {1: {(0, 1): 1}})
    game = ColouredCfg(graph, {1: (1, 0)})
    state = game.open_vertex(game.initial_state(), 0)
    assert state.chips[0] == (0, 1)


def test_reopen_errors():
    game = shared_gate_game()
    state = game.open_vertex(game.initial_state(), v(game, "a"))
    with pytest.raises(ValueError):
        game.open_vertex(state, v(game, "a"))


def test_open_non_openable_errors():
    game = shared_gate_game()
    with pytest.raises(ValueError):
        game.open_vertex(game.initial_state(), v(game, "c"))


def test_enumerate_shared_gate_space():
    space = shared_gate_game().enumerate_space()
    assert len(space) == 7
    lat = space.lattice()
    assert lat.is_uld and not lat.is_distributive
    assert is_isomorphic(lat, funnel_game().enumerate_space().lattice())


def test_enumerate_split_track_space():
    space = split_track_game().enumerate_space()
    assert len(space) == 9
    assert space.lattice().is_distributive


def test_enumerate_empty_game():
    graph = ColouredMultigraph(("x", "s"), {1: {(0, 1): 1}})
    game = ColouredCfg(graph, {1: (0, 0)})
    assert len(game.enumerate_space()) == 1


def test_opening_order_independence():
    rng = random.Random(13)
    for _ in range(25):
        game = random_coloured_game(rng)
        finals = set()
        shot_sets = set()
        for seed in range(4):
            order_rng = random.Random(seed)
            state = game.initial_state()
            while True:
                options = sorted(game.openable(state))
                if not options:
                    break
                state = game.open_vertex(state, order_rng.choice(options))
            finals.add(state.chips)
            shot_sets.add(state.opened)
        assert len(finals) == 1
        assert len(shot_sets) == 1


def test_openable_monotone():
    rng = random.Random(37)
    for _ in range(25):
        game = random_coloured_game(rng)
        state = game.initial_state()
        while True:
            options = game.openable(state)
            if not options:
                break
            w = min(options)
            nxt = game.open_vertex(state, w)
            for other in options - {w}:
                assert other in game.openable(nxt)
            state = nxt


def test_union_closed_shot_sets():
    rng = random.Random(59)
    for _ in range(25):
        game = random_coloured_game(rng)
        space = game.enumerate_space()
        shots = {space.shot_set(i) for i in range(len(space))}
        for x in shots:
            for y in shots:
                assert x | y in shots


def test_space_is_uld_both_detectors():
    rng = random.Random(71)
    for _ in range(25):
        lat = random_coloured_game(rng).enumerate_space().lattice()
        assert lat.uld_detectors == (True, True)
        assert lat.is_uld


def test_from_classical_funnel():
    game = from_classical(funnel_game())
    assert game.colours == (1,)
    space = game.enumerate_space()
    assert is_isomorphic(space.lattice(), funnel_game().enumerate_space().lattice())


def test_from_classical_zero_chips():
    base = Cfg(funnel_game().graph, (0, 0, 0, 0))
    assert len(from_classical(base).enumerate_space()) == 1


def test_from_classical_rejects_non_simple():
    with pytest.raises(ValueError):
        from_classical(relay_chain_game())


def test_from_classical_after_simplify():
    simple, _ = simplify(relay_chain_game())
    game = from_classical(simple)
    assert is_isomorphic(
        game.enumerate_space().lattice(),
        relay_chain_game().enumerate_space().lattice(),
    )


def test_enumerate_space_cap():
    with pytest.raises(StateCapExceeded):
        shared_gate_game().enumerate_space(state_cap=2)


def assert_matches_full_scan(game, space):
    oracle = full_scan_space(game)
    assert space.vectors == oracle.vectors
    assert space.configs == oracle.configs
    assert space.covers == oracle.covers


def assert_matches_dfs_oracle(game):
    space = game.enumerate_space()
    assert_matches_full_scan(game, space)
    chips, covers = dfs_coloured_reachable(game)
    opened = [space.shot_set(i) for i in range(len(space))]
    assert len(space) == len(chips)
    assert dict(zip(opened, space.configs)) == chips
    assert all(set(vec) <= {0, 1} for vec in space.vectors)
    assert len(space.covers) == len(covers)
    assert {(opened[lo], v, opened[hi]) for lo, hi, v in space.covers} == covers


def test_enumerate_space_matches_dfs_oracle(coloured_corpus):
    for game in coloured_corpus + [shared_gate_game(), split_track_game()]:
        assert_matches_dfs_oracle(game)


@st.composite
def coloured_games(draw):
    """Coloured games whose every vertex with a colour-c edge also has a
    colour-c edge to a later vertex, so each colour drains to the last
    vertex; loops and parallel edges allowed."""
    n = draw(st.integers(2, 5))
    layers = {}
    init = {}
    for c in range(1, draw(st.integers(1, 3)) + 1):
        layer: dict[tuple[int, int], int] = {}
        for v in range(n - 1):
            if v == 0 or draw(st.booleans()):
                layer[(v, draw(st.integers(v + 1, n - 1)))] = draw(st.integers(1, 2))
        sources = sorted({u for u, _ in layer})
        for _ in range(draw(st.integers(0, n))):
            edge = (draw(st.sampled_from(sources)), draw(st.integers(0, n - 1)))
            layer[edge] = layer.get(edge, 0) + 1
        layers[c] = layer
        init[c] = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return ColouredCfg(ColouredMultigraph(tuple("abcde"[:n]), layers), init)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_generated_spaces_match_dfs_oracle(game):
    assert_matches_dfs_oracle(game)


def test_revisit_with_another_firing_vector_is_reported(monkeypatch):
    # an opening that changes nothing brings every move back to the start
    successors = ColouredCfg._successors
    monkeypatch.setattr(
        ColouredCfg, "_successors", lambda self, x: [(v, x) for v, _ in successors(self, x)]
    )
    with pytest.raises(RuntimeError, match="revisited"):
        shared_gate_game().enumerate_space()


def test_open_set_with_two_chip_contents_is_reported(monkeypatch):
    # tag the chips with the last opened vertex, so {a,b} opened as a-then-b
    # and as b-then-a holds two chip contents; the tag sits above every field
    successors, tag = ColouredCfg._successors, 2**1000

    def tagged(self, x):
        return [(v, nxt % tag + v * tag) for v, nxt in successors(self, x % tag)]

    monkeypatch.setattr(ColouredCfg, "_successors", tagged)
    with pytest.raises(RuntimeError, match="share a firing vector"):
        shared_gate_game().enumerate_space()


def test_uld_games_match_full_scan():
    for lattice in [Lattice.boolean(k) for k in range(1, 9)] + [gated_cube_lattice()]:
        game = coloured_from_uld(lattice)
        assert_matches_full_scan(game, game.enumerate_space())


def test_opening_touches_only_colours_the_vertex_fires_in(coloured_corpus, monkeypatch):
    visits = []
    stabilize = ColouredCfg._stabilize

    def recording(self, x, ci, v):
        [chips] = self._unpack([x])
        visits.append((self, ci, chips[ci], v))
        return stabilize(self, x, ci, v)

    monkeypatch.setattr(ColouredCfg, "_stabilize", recording)
    for game in coloured_corpus + [shared_gate_game(), split_track_game()]:
        game.enumerate_space()
    assert visits
    for game, ci, chips, v in visits:
        assert 0 < game.graph.restriction_to_colour(game.colours[ci]).out_degree(v) <= chips[v]


def test_firing_count_matches_full_scan(coloured_corpus, monkeypatch):
    counts = {}

    class CountedDelta(int):
        """A packed firing delta that counts each time a state adds it."""

        def __radd__(self, x):
            counts["worklist"] = counts.get("worklist", 0) + 1
            return x + int(self)

    fire = helpers._fire_in_place

    def fire_and_count(chips, graph, v):
        counts["full scan"] = counts.get("full scan", 0) + 1
        fire(chips, graph, v)

    monkeypatch.setattr(helpers, "_fire_in_place", fire_and_count)
    games = coloured_corpus + [shared_gate_game(), coloured_from_uld(Lattice.boolean(5))]
    for game in games:
        colours, gates = game._packing
        colours = tuple(
            (*layout[:6], tuple(map(CountedDelta, layout[6])), layout[7]) for layout in colours
        )
        game.__dict__["_packing"] = colours, gates
        game.enumerate_space()
        full_scan_space(game)
    assert counts["worklist"] == counts["full scan"] > 0


def test_stabilize_cap_bound_and_message(monkeypatch):
    # colour 1 on a looped vertex with a drain: 10 chips fire 9 times
    graph = ColouredMultigraph(("a", "s"), {1: {(0, 0): 1, (0, 1): 1}})
    game = ColouredCfg(graph, {1: (10, 0)})
    enumerators = (ColouredCfg.enumerate_space, full_scan_space, coloured_tuple_space)
    monkeypatch.setattr(coloured, "_STABILIZE_CAP", 9)
    assert {enumerate_(game).configs for enumerate_ in enumerators} == {(((10, 0),), ((1, 9),))}
    monkeypatch.setattr(coloured, "_STABILIZE_CAP", 8)
    for enumerate_ in enumerators:
        with pytest.raises(StepCapExceeded, match="^colour 1 did not stabilize within 8 firings$"):
            enumerate_(game)
