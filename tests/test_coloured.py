import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from chipfire import coloured
from chipfire.coloured import ColouredCfg, ColouredState, from_classical
from chipfire.engine import Cfg, _unpack_block
from chipfire.errors import StateCapExceeded, StepCapExceeded
from chipfire.fixtures import (
    funnel_game,
    relay_chain_game,
    shared_gate_game,
    split_track_game,
)
from chipfire.lattice import Lattice, is_isomorphic
from chipfire.multigraph import ColouredMultigraph
from chipfire.transforms import coloured_from_uld, simplify

import helpers
from helpers import (
    full_scan_firable,
    full_scan_open,
    full_scan_openable,
    full_scan_space,
    paper_coloured_from_uld,
    random_coloured_game,
    v,
)


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


def test_given_states_open_like_the_tuple_rule_and_build_no_game(monkeypatch):
    """``openable`` and ``open_vertex`` on states with fewer, as many or far
    more chips than the game's own: the packed layout is chosen or laid out
    from the state's chip totals, no game is built, and an open vertex that
    can still fire is refused. The random states never need a restart to go
    on through a second out-neighbour, so one given state does: a fires into
    b and c, both open, and each must fire on to t."""
    rng = random.Random(26)
    games = [shared_gate_game(), split_track_game()]
    games += [random_coloured_game(rng) for _ in range(20)]
    edges = [("a", "b", 1, 1), ("a", "c", 1, 1), ("b", "t", 1, 1), ("c", "t", 1, 1)]
    fork = ColouredCfg(ColouredMultigraph.from_edges("abct", edges), {1: (2, 0, 0, 0)})
    built = []
    monkeypatch.setattr(ColouredCfg, "__post_init__", lambda self: built.append(self))
    for game in games:
        for _ in range(20):
            n = game.graph.n
            chips = tuple(
                tuple(rng.choice([0, 0, 1, 2, 3, 9, 300]) for _ in range(n)) for _ in game.colours
            )
            opened = frozenset(x for x in range(n) if rng.random() < 0.3)
            state = ColouredState(chips, opened)
            if full_scan_firable(game, state) & opened:
                with pytest.raises(ValueError, match="^open vertex .* can still fire in colour"):
                    game.openable(state)
                continue
            openable = full_scan_openable(game, state)
            assert game.openable(state) == openable
            for x in sorted(openable):
                assert game.open_vertex(state, x) == full_scan_open(game, state, x)
    forked = ColouredState(((2, 0, 0, 0),), frozenset({1, 2}))
    assert fork.open_vertex(forked, 0) == full_scan_open(fork, forked, 0)
    assert built == []


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
    assert space.ups == oracle.ups and space.move_masks == oracle.move_masks


def test_revisit_with_another_firing_vector_is_reported(monkeypatch):
    # an opening that changes nothing brings every move back to the start
    successors = ColouredCfg._successors
    monkeypatch.setattr(
        ColouredCfg,
        "_successors",
        lambda self, x, restarts: [(v, x) for v, _ in successors(self, x, restarts)],
    )
    with pytest.raises(RuntimeError, match="revisited"):
        shared_gate_game().enumerate_space()


def test_open_set_with_two_chip_contents_is_reported(monkeypatch):
    # tag the state with the last opened vertex, so {a,b} opened as a-then-b
    # and as b-then-a holds two chip contents; the tag sits in the open-set
    # entry, above every vertex's bit
    successors, tag = ColouredCfg._successors, 2**1000

    def tagged(self, x, restarts):
        x = (*x[:-1], x[-1] % tag)
        moves = successors(self, x, restarts)
        return [(v, (*nxt[:-1], nxt[-1] % tag + v * tag)) for v, nxt in moves]

    monkeypatch.setattr(ColouredCfg, "_successors", tagged)
    with pytest.raises(RuntimeError, match="share a firing vector"):
        shared_gate_game().enumerate_space()


def test_opening_touches_only_colours_the_vertex_fires_in(coloured_corpus, monkeypatch):
    visits = []
    stabilize = ColouredCfg._stabilize

    def recording(self, x, opened, colour, v):
        [chips] = _unpack_block([x], colour[1])
        ci = self.colours.index(colour[0])
        visits.append((self, ci, chips, v))
        return stabilize(self, x, opened, colour, v)

    monkeypatch.setattr(ColouredCfg, "_stabilize", recording)
    for game in coloured_corpus + [shared_gate_game(), split_track_game()]:
        game.enumerate_space()
    assert visits
    for game, ci, chips, v in visits:
        assert 0 < game.graph.restriction_to_colour(game.colours[ci]).out_degree(v) <= chips[v]


def product_games():
    """Disjoint unions of shared_gate and split_track blocks, the shape of the
    ``space`` workload's coloured games, where restarts recur."""
    rng = random.Random(32)
    shapes = [(2, 0), (1, 1), (0, 2), (3, 0), (1, 2)]
    return [
        helpers.coloured_union([shared_gate_game()] * gates + [split_track_game()] * tracks, rng)
        for gates, tracks in shapes
    ]


def test_firing_count_matches_full_scan(coloured_corpus, monkeypatch):
    # each stabilization enumeration runs fires as often as the full scan
    # does on the same colour, chips and open set, and ends on its chips
    counts = {}

    class CountedDelta(int):
        """A packed firing delta that counts each time a state adds it."""

        def __radd__(self, x):
            counts["worklist"] += 1
            return x + int(self)

    fire = helpers._fire_in_place

    def fire_and_count(chips, graph, v):
        counts["full scan"] += 1
        fire(chips, graph, v)

    stabilize, checked = ColouredCfg._stabilize, []

    def compared(self, x, opened, colour, v):
        counts["worklist"] = counts["full scan"] = 0
        y = stabilize(self, x, opened, colour, v)
        c, block = colour[:2]
        [chips], [after] = _unpack_block([x], block), _unpack_block([y], block)
        open_set = frozenset(u for u in range(self.graph.n) if opened >> u & 1)
        assert helpers.full_scan_stabilize_colour(self, c, chips, open_set) == after
        assert counts["worklist"] == counts["full scan"]
        checked.append(counts["worklist"])
        return y

    monkeypatch.setattr(helpers, "_fire_in_place", fire_and_count)
    monkeypatch.setattr(ColouredCfg, "_stabilize", compared)
    games = coloured_corpus + [shared_gate_game(), coloured_from_uld(Lattice.boolean(5))]
    for game in games + product_games():
        colours, *moves = game._packing
        colours = tuple(
            (c, (*block[:3], tuple(map(CountedDelta, block[3]))), *rest)
            for c, block, *rest in colours
        )
        game.__dict__["_packing"] = colours, *moves
        game.enumerate_space()
    assert sum(checked) > 0


def restarts(game, space):
    """The colour restarts of a space's covers: per move v of a state x, the
    colours in which v holds its out-degree in chips at x."""
    degrees = [game.graph.restriction_to_colour(c)._out_degrees for c in game.colours]
    return sum(
        0 < deg[v] <= chips[v]
        for lo, mask in enumerate(space.move_masks)
        for v in range(mask.bit_length()) if mask >> v & 1
        for deg, chips in zip(degrees, space.configs[lo])
    )


def test_product_games_match_full_scan_with_remembered_restarts(monkeypatch):
    stabilize, calls = ColouredCfg._stabilize, []

    def counted(self, *args):
        calls.append(args)
        return stabilize(self, *args)

    monkeypatch.setattr(ColouredCfg, "_stabilize", counted)
    for game in product_games():
        calls.clear()
        space = game.enumerate_space()
        assert_matches_full_scan(game, space)
        assert 0 < len(calls) < restarts(game, space)


def test_restart_memo_is_held_per_level_and_dropped(monkeypatch):
    successors, openings, calls, levels = ColouredCfg._successors, ColouredCfg._openings, [], []

    def owned(self, x, restarts):
        calls.append(restarts)
        return successors(self, x, restarts)

    def scoped(self, x, packing, memo, vertices):
        [(level, held)] = calls[-1].items()
        assert held is memo and level == x[-1].bit_count()
        levels.append(level)
        return openings(self, x, packing, memo, vertices)

    monkeypatch.setattr(ColouredCfg, "_successors", owned)
    monkeypatch.setattr(ColouredCfg, "_openings", scoped)
    for game in product_games():
        game._packing
        before = dict(vars(game))
        calls.clear()
        levels.clear()
        space = game.enumerate_space()
        assert levels == sorted(levels) and len(set(levels)) == space.height + 1
        assert vars(game) == before
        first = calls[0]
        assert all(restarts is first for restarts in calls)  # one memo per call
        with pytest.raises(StateCapExceeded):
            game.enumerate_space(state_cap=5)
        assert vars(game) == before
        assert calls[-1] is not first  # and a later call starts its own


def test_two_threads_enumerate_one_game():
    # each call owns its restart memo, so concurrent calls on one game
    # neither collide nor see each other's restarts
    game = coloured_from_uld(Lattice.boolean(8))
    expected = game.enumerate_space()
    barrier = threading.Barrier(2)

    def enumerate_five():
        barrier.wait(timeout=60)
        return [game.enumerate_space() for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside one enumeration
    try:
        with ThreadPoolExecutor(2) as pool:
            runs = [pool.submit(enumerate_five) for _ in range(2)]
            spaces = [space for run in runs for space in run.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert len(spaces) == 10 and all(space == expected for space in spaces)


def test_stabilize_cap_bound_and_message(monkeypatch):
    # colour 1 on a looped vertex with a drain: 10 chips fire 9 times
    graph = ColouredMultigraph(("a", "s"), {1: {(0, 0): 1, (0, 1): 1}})
    game = ColouredCfg(graph, {1: (10, 0)})
    enumerators = (ColouredCfg.enumerate_space, full_scan_space)
    monkeypatch.setattr(coloured, "_STABILIZE_CAP", 9)
    assert {enumerate_(game).configs for enumerate_ in enumerators} == {(((10, 0),), ((1, 9),))}
    monkeypatch.setattr(coloured, "_STABILIZE_CAP", 8)
    text = "^colour 1 converges, but the step cap came first: not stable within 8 firings$"
    for enumerate_ in enumerators:
        with pytest.raises(StepCapExceeded, match=text):
            enumerate_(game)


def test_every_colour_block_sits_at_bit_0_and_no_delta_is_wider(coloured_corpus):
    # the paper's game has one colour per join-irreducible: chain(k) has
    # k - 1 colours. A vertex fires only with its out-degree in chips, at most
    # the colour's total, so each multiplicity a firing moves fits one field;
    # a vertex whose degree exceeds the total never fires, and its delta is
    # never added
    games = [paper_coloured_from_uld(Lattice.chain(k)) for k in range(2, 61)]
    for game in games + coloured_corpus + [shared_gate_game(), split_track_game()]:
        n = game.graph.n
        start = game._pack(game.initial_state(), game._packing)
        assert len(start) == len(game.colours) + 1
        for (c, (width, shifts, _, deltas), degs, _), x in zip(game._packing[0], start):
            assert shifts == tuple(range(0, width * n, width))
            assert x.bit_length() <= width * n
            fired = [d for d, deg in zip(deltas, degs) if 0 < deg <= sum(game.init[c])]
            assert all(abs(d).bit_length() <= width * n for d in fired)


def test_a_long_chain_game_holds_each_colour_in_its_own_block():
    # the game is built untraced; its enumeration, layout included, peaks at
    # 4.6 MB with an int per block, and at 27 MB with all blocks packed into
    # one int per state, each delta as wide as every block below its own
    game = paper_coloured_from_uld(Lattice.chain(150))  # 149 colours
    space, _, peak = helpers.peak_traced(game.enumerate_space)
    assert len(space) == 150
    assert peak < 8_000_000


def test_many_colour_chain_games_match_the_tuple_closure():
    for k in range(2, 41):
        game = paper_coloured_from_uld(Lattice.chain(k))
        assert len(game.colours) == k - 1
        assert_matches_full_scan(game, game.enumerate_space())
