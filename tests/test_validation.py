"""Validation, caps, and corner cases across modules."""

import re

import numpy as np
import pytest

from chipfire.cli import main
from chipfire.coloured import ColouredCfg, ColouredState
from chipfire.engine import Cfg
from chipfire.errors import CapExceeded, StateCapExceeded
from chipfire.fixtures import funnel_game, pentagon, shared_gate_game
from chipfire.formats import parse_game
from chipfire.lattice import Lattice, Poset
from chipfire.multigraph import ColouredMultigraph, Multigraph
from chipfire.transforms import interval_cfg, simplify, split_vertex


def test_from_edges_by_name():
    g = Multigraph.from_edges("abc", [("a", "b", 1), ("a", "b", 2), ("c", "c", 1)])
    assert g.multiplicity(0, 1) == 3
    assert g.loops(2) == 1


def test_coloured_from_edges_by_name():
    g = ColouredMultigraph.from_edges("ab", [("a", "b", 1, 2), ("a", "b", 1, 2)])
    assert g.colours == (2,)
    assert g.restriction_to_colour(2).multiplicity(0, 1) == 2


def test_from_edges_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown vertex 'z'"):
        Multigraph.from_edges("ab", [("a", "b", 1), ("a", "z", 1)])


def test_coloured_from_edges_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown vertex 'z'"):
        ColouredMultigraph.from_edges("ab", [("z", "b", 1, 1)])


def test_lattice_interval_rejects_unknown_element_ids():
    lattice = funnel_game().enumerate_space().lattice()
    for a, b in ((-1, -1), (0, 99)):
        with pytest.raises(ValueError, match=r"^unknown element id (-1|99)$"):
            lattice.interval(a, b)


ELEMENT_ACCESSORS = {
    "le": lambda lat, x: lat.le(x, 0),
    "le second": lambda lat, x: lat.le(0, x),
    "lt": lambda lat, x: lat.lt(x, 0),
    "lt second": lambda lat, x: lat.lt(0, x),
    "upper_covers": lambda lat, x: lat.upper_covers(x),
    "lower_covers": lambda lat, x: lat.lower_covers(x),
    "join": lambda lat, x: lat.join(x, 0),
    "join second": lambda lat, x: lat.join(0, x),
    "meet": lambda lat, x: lat.meet(x, 0),
    "meet second": lambda lat, x: lat.meet(0, x),
    "ji_below": lambda lat, x: lat.ji_below(x),
    "mi_above": lambda lat, x: lat.mi_above(x),
    "le_by_coding": lambda lat, x: lat.le_by_coding(x, 0),
    "le_by_coding second": lambda lat, x: lat.le_by_coding(0, x),
    "restrict": lambda lat, x: lat.restrict([0, x]),
    "interval": lambda lat, x: lat.interval(x, 3),
    "interval second": lambda lat, x: lat.interval(0, x),
    "j_lower": lambda lat, x: lat.j_lower(x),
    "m_upper": lambda lat, x: lat.m_upper(x),
}


@pytest.mark.parametrize("bad", [-1, 4, 2.5])
@pytest.mark.parametrize("accessor", ELEMENT_ACCESSORS)
def test_element_accessors_reject_unknown_ids(accessor, bad):
    with pytest.raises(ValueError, match=f"unknown element id {bad!r}"):
        ELEMENT_ACCESSORS[accessor](Lattice.chain(4), bad)


def test_element_accessors_take_numpy_ints_and_bools():
    lat = Lattice.chain(4)
    assert lat.join(np.int64(2), True) == 2
    assert type(lat.meet(np.intp(3), np.int32(1))) is int
    assert lat.le(False, np.int8(3)) and not lat.lt(np.int64(3), 3)
    assert lat.upper_covers(np.int64(1)) == (2,)
    assert lat.lower_covers(True) == (0,)


SPACE_ACCESSORS = {
    "join_of": lambda space, x: space.join_of(x, 0),
    "join_of second": lambda space, x: space.join_of(0, x),
    "shot_set": lambda space, x: space.shot_set(x),
    "shot_label": lambda space, x: space.shot_label(x),
}


@pytest.mark.parametrize("bad", [-1, 7, 2.5])
@pytest.mark.parametrize("accessor", SPACE_ACCESSORS)
def test_space_accessors_reject_unknown_ids(accessor, bad):
    space = funnel_game().enumerate_space()  # 7 states
    with pytest.raises(ValueError, match=f"unknown element id {bad!r}"):
        SPACE_ACCESSORS[accessor](space, bad)


def opened_a(game):
    """The shared-gate game after opening vertex 0 (a)."""
    return game.open_vertex(game.initial_state(), 0)


GRAPH_ACCESSORS = {
    "multiplicity": lambda g, x: g.multiplicity(x, 0),
    "multiplicity second": lambda g, x: g.multiplicity(0, x),
    "out_degree": lambda g, x: g.out_degree(x),
    "in_degree": lambda g, x: g.in_degree(x),
    "loops": lambda g, x: g.loops(x),
    "nonloop_out_degree": lambda g, x: g.nonloop_out_degree(x),
    "induced_subgraph": lambda g, x: g.induced_subgraph([0, x]),
}

# Every public entry point that takes an element or vertex id, as
# (subject, its id kind and count, call); the float 0.0 equals a valid id.
CHAIN = (lambda: Lattice.chain(4), "element", 4)
SPACE = (lambda: funnel_game().enumerate_space(), "element", 7)
FUNNEL_SPACE = (funnel_game, "element", 7)
FUNNEL = (funnel_game, "vertex", 4)
FUNNEL_GRAPH = (lambda: funnel_game().graph, "vertex", 4)
GATE = (shared_gate_game, "vertex", 4)
ID_ENTRY_POINTS = {
    **{f"Lattice.{name}": (CHAIN, call) for name, call in ELEMENT_ACCESSORS.items()},
    **{f"ConfigSpace.{name}": (SPACE, call) for name, call in SPACE_ACCESSORS.items()},
    **{f"Multigraph.{name}": (FUNNEL_GRAPH, call) for name, call in GRAPH_ACCESSORS.items()},
    "ColouredMultigraph.pair_multiplicity": (GATE, lambda g, x: g.graph.pair_multiplicity(x, 3)),
    "ColouredMultigraph.pair_multiplicity second": (
        GATE, lambda g, x: g.graph.pair_multiplicity(0, x)
    ),
    "interval_cfg": (FUNNEL_SPACE, lambda g, x: interval_cfg(g, x, 6)),
    "interval_cfg second": (FUNNEL_SPACE, lambda g, x: interval_cfg(g, 0, x)),
    "Cfg.fire": (FUNNEL, lambda g, x: g.fire(g.init, x)),
    "callable policy": (FUNNEL, lambda g, x: g.run_to_fixpoint(policy=lambda fs: x)),
    "split_vertex": (FUNNEL, split_vertex),
    "ColouredCfg.open_vertex": (GATE, lambda g, x: g.open_vertex(opened_a(g), x)),
}
BAD_IDS = {"-1": lambda n: -1, "n": lambda n: n, "2.5": lambda n: 2.5, "0.0": lambda n: 0.0}


@pytest.mark.parametrize("bad", BAD_IDS)
@pytest.mark.parametrize("entry", ID_ENTRY_POINTS)
def test_every_id_entry_point_rejects_bad_ids(entry, bad):
    (make, kind, n), call = ID_ENTRY_POINTS[entry]
    x = BAD_IDS[bad](n)
    with pytest.raises(ValueError, match=f"^unknown {kind} id {re.escape(repr(x))}$"):
        call(make(), x)


def test_id_entry_points_take_numpy_ints_and_bools():
    lat, game = Lattice.chain(4), funnel_game()
    assert lat.interval(np.int64(1), np.intp(3)).n == 3
    assert lat.j_lower(np.int64(2)) == 1 and lat.m_upper(True) == 2
    assert interval_cfg(game, np.int64(0), np.int8(6)) == interval_cfg(game, 0, 6)
    assert game.fire(game.init, np.int64(0)) == game.fire(game.init, 0)
    policy = game.run_to_fixpoint(policy=lambda fs: np.int64(max(fs)))
    assert policy == game.run_to_fixpoint(policy="max")
    assert split_vertex(game, np.int64(2)) == split_vertex(game, 2)
    gate = shared_gate_game()
    assert gate.open_vertex(gate.initial_state(), np.int64(0)) == opened_a(gate)
    assert gate.graph.pair_multiplicity(np.int64(0), True) == 0


@pytest.mark.parametrize("lattice_name", ["chain", "pentagon"])
def test_irreducible_covers_name_an_element_outside_j_or_m(lattice_name):
    lat = Lattice.chain(4) if lattice_name == "chain" else pentagon()
    for x in range(lat.n):
        named = f"^element {re.escape(lat.labels[x])} is not"
        if x not in lat.J:
            with pytest.raises(ValueError, match=f"{named} join-irreducible$"):
                lat.j_lower(x)
        if x not in lat.M:
            with pytest.raises(ValueError, match=f"{named} meet-irreducible$"):
                lat.m_upper(x)


def test_space_accessors_take_numpy_ints_and_bools():
    space = funnel_game().enumerate_space()
    assert space.join_of(np.int64(1), True) == space.join_of(1, 1)
    assert space.shot_set(np.intp(6)) == space.shot_set(6)
    assert space.shot_label(np.int8(6)) == space.shot_label(6)


def test_multigraph_rejects_bad_input():
    with pytest.raises(ValueError):
        Multigraph(("a", "a"), {})
    with pytest.raises(ValueError):
        Multigraph(("a",), {(0, 3): 1})
    with pytest.raises(ValueError):
        Multigraph(("a",), {(0, 0): -1})
    # one integer rule: no float endpoint, no truncated multiplicity
    with pytest.raises(ValueError, match=r"edge \(0.5,1\) with multiplicity 1: ids and mult"):
        Multigraph(("a", "b"), {(0.5, 1): 1})
    with pytest.raises(ValueError, match=r"edge \(0,1\) with multiplicity 1.7: ids and mult"):
        Multigraph(("a", "b"), {(0, 1): 1.7})
    with pytest.raises(ValueError, match="multiplicity must be an integer, got '2'"):
        Multigraph.from_edges("ab", [("a", "b", "2")])
    with pytest.raises(ValueError, match="colour must be an integer, got 1.5"):
        ColouredMultigraph(("a", "b"), {1.5: {(0, 1): 1}})
    g = Multigraph(("a", "b"), {(np.int64(0), True): np.int32(2)})
    assert g.mult == {(0, 1): 2}
    assert all(type(x) is int for key, k in g.mult.items() for x in (*key, k))


def test_cfg_rejects_bad_init():
    g = funnel_game().graph
    with pytest.raises(ValueError):
        Cfg(g, (1, 1, 1))
    with pytest.raises(ValueError):
        Cfg(g, (1, 1, 1, -1))
    for bad in (1.9, "2"):
        with pytest.raises(ValueError, match=f"chip count must be an integer, got {bad!r}"):
            Cfg(g, (bad, 1, 1, 0))
    init = Cfg(g, (np.int64(1), True, np.int8(1), False)).init
    assert init == (1, 1, 1, 0) and all(type(c) is int for c in init)


def test_callable_policy():
    game = funnel_game()
    run = game.run_to_fixpoint(policy=lambda fs: max(fs))
    assert run.final == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        game.run_to_fixpoint(policy="sideways")


def numpy_int(value):
    return pytest.param(np.int64(value), id=f"np.int64({value})")


@pytest.mark.parametrize("bad", [9, -1, numpy_int(9), numpy_int(-1)])
def test_fire_rejects_unknown_vertex_id(bad):
    game = funnel_game()
    with pytest.raises(ValueError, match=f"unknown vertex id {re.escape(repr(bad))}"):
        game.fire(game.init, bad)


@pytest.mark.parametrize("bad", [99, -1, numpy_int(99)])
def test_callable_policy_rejects_unknown_vertex_id(bad):
    with pytest.raises(ValueError, match=f"unknown vertex id {re.escape(repr(bad))}"):
        funnel_game().run_to_fixpoint(policy=lambda fs: bad)


@pytest.mark.parametrize("bad", [9, -1, numpy_int(9)])
def test_open_vertex_rejects_unknown_vertex_id(bad):
    game = shared_gate_game()
    with pytest.raises(ValueError, match=f"unknown vertex id {re.escape(repr(bad))}"):
        game.open_vertex(game.initial_state(), bad)


def test_vertex_accessors_take_numpy_ints():
    """Vertex ids follow the element-id rule: any int with ``__index__``."""
    game = funnel_game()
    with pytest.raises(ValueError, match="^vertex c is not firable$"):
        game.fire(game.init, np.int64(2))
    assert game.graph.multiplicity(np.int64(0), np.int64(2)) == 1
    coloured = shared_gate_game()
    with pytest.raises(ValueError, match="^vertex c cannot be opened$"):
        coloured.open_vertex(coloured.initial_state(), np.int64(2))


def test_coloured_cfg_rejects_bad_chips():
    graph = shared_gate_game().graph
    with pytest.raises(ValueError):
        ColouredCfg(graph, {9: (0, 0, 0, 0)})
    with pytest.raises(ValueError):
        ColouredCfg(graph, {1: (0, 0)})
    for bad in (1.9, "2"):
        with pytest.raises(ValueError, match=f"chip count of colour 1 must be an integer, got {bad!r}"):
            ColouredCfg(graph, {1: (bad, 0, 0, 0)})
    with pytest.raises(ValueError, match="colour must be an integer, got 1.0"):
        ColouredCfg(graph, {1.0: (1, 0, 0, 0)})
    game = ColouredCfg(graph, {np.int64(1): (np.int64(1), True, 0, 0)})
    assert game.init[1] == (1, 1, 0, 0) and all(type(c) is int for c in game.init[1])


# a configuration handed to an entry point follows the rule of a game's
# initial chips: one non-negative integer per vertex
BAD_CONFS = {
    "short": ((1, 1), "^configuration must cover every vertex$"),
    "long": ((1, 1, 1, 0, 0), "^configuration must cover every vertex$"),
    "half chip": ((1.5, 0, 0, 0), r"^chip count must be an integer, got 1\.5$"),
    "string": (("1", 1, 1, 0), "^chip count must be an integer, got '1'$"),
    "negative": ((1, 1, 1, -1), "^chip counts must be non-negative$"),
}
CONF_ENTRY_POINTS = {
    "Cfg.fire": lambda g, conf: g.fire(conf, 0),
    "Cfg.firable": lambda g, conf: g.firable(conf),
}


@pytest.mark.parametrize("bad", BAD_CONFS)
@pytest.mark.parametrize("entry", CONF_ENTRY_POINTS)
def test_conf_entry_points_reject_bad_configurations(entry, bad):
    conf, message = BAD_CONFS[bad]
    with pytest.raises(ValueError, match=message):
        CONF_ENTRY_POINTS[entry](funnel_game(), conf)


def test_conf_entry_points_take_numpy_ints_and_bools():
    game = funnel_game()
    conf = (np.int64(1), True, np.int8(1), False)
    assert game.firable(conf) == game.firable((1, 1, 1, 0))
    nxt = game.fire(conf, 0)
    assert nxt == (0, 1, 2, 0) and all(type(c) is int for c in nxt)


def gate_state(game, chips=None, opened=()):
    """A shared-gate state: the initial chips unless given, and the given open set."""
    return ColouredState(
        chips=game.initial_state().chips if chips is None else chips, opened=frozenset(opened)
    )


BAD_STATES = {
    "three colours": (lambda c: c[:3], None, "^a state holds one chip vector per colour, 4$"),
    "short vector": (lambda c: ((1, 0),) + c[1:], None, "^bad chip vector for colour 1$"),
    "half chip": (
        lambda c: ((1.5, 0, 0, 0),) + c[1:],
        None,
        r"^chip count of colour 1 must be an integer, got 1\.5$",
    ),
    "negative": (lambda c: c[:3] + ((0, 1, -1, 0),), None, "^bad chip vector for colour 4$"),
    "unknown open vertex": (lambda c: c, (9,), "^unknown vertex id 9$"),
    "float open vertex": (lambda c: c, (0.0,), r"^unknown vertex id 0\.0$"),
    "unstable open vertex": (lambda c: c, (0,), "^open vertex a can still fire in colour 1$"),
}
STATE_ENTRY_POINTS = {
    "ColouredCfg.open_vertex": lambda g, state: g.open_vertex(state, 1),
    "ColouredCfg.openable": lambda g, state: g.openable(state),
}


@pytest.mark.parametrize("bad", BAD_STATES)
@pytest.mark.parametrize("entry", STATE_ENTRY_POINTS)
def test_state_entry_points_reject_bad_states(entry, bad):
    change, opened, message = BAD_STATES[bad]
    game = shared_gate_game()
    state = gate_state(game, change(game.initial_state().chips), opened or ())
    with pytest.raises(ValueError, match=message):
        STATE_ENTRY_POINTS[entry](game, state)


def test_state_entry_points_take_numpy_ints_and_bools():
    game = shared_gate_game()
    start = game.initial_state()
    chips = tuple(tuple(np.int64(x) for x in c) for c in start.chips)
    state = gate_state(game, chips, [np.int64(3)])
    assert game.openable(state) == game.openable(gate_state(game, opened=[3]))
    nxt = game.open_vertex(state, np.int64(0))
    assert nxt == game.open_vertex(gate_state(game, opened=[3]), 0)
    assert all(type(x) is int for c in nxt.chips for x in c)
    assert all(type(v) is int for v in nxt.opened)


def test_hot_paths_do_not_recheck_configurations(monkeypatch):
    # fixpoint runs and both closures read states they built themselves
    game, gate = funnel_game(), shared_gate_game()
    expected = (game.run_to_fixpoint(), game.enumerate_space(), gate.enumerate_space())

    def refuse(*args):
        raise AssertionError("a hot path re-checked a state it built")

    monkeypatch.setattr(Cfg, "_conf", refuse)
    monkeypatch.setattr(ColouredCfg, "_state", refuse)
    assert (game.run_to_fixpoint(), game.enumerate_space(), gate.enumerate_space()) == expected


def test_poset_input_validation():
    with pytest.raises(ValueError):
        Poset(np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        Poset(np.zeros((2, 2), dtype=bool))  # not reflexive
    bad = np.eye(3, dtype=bool)
    bad[0, 1] = bad[1, 0] = True
    with pytest.raises(ValueError):
        Poset(bad)  # not antisymmetric
    bad = np.eye(3, dtype=bool)
    bad[0, 1] = bad[1, 2] = True
    with pytest.raises(ValueError):
        Poset(bad)  # not transitive
    with pytest.raises(ValueError):
        Poset(np.eye(2, dtype=bool), labels=("a",))


def test_poset_extremes():
    p = Poset.from_covers(3, [(0, 1), (0, 2)])
    assert p.minimal_elements == (0,)
    assert p.maximal_elements == (1, 2)


def test_ideal_cap():
    antichain = Poset(np.eye(10, dtype=bool))
    with pytest.raises(CapExceeded):
        antichain.ideal_masks(cap=100)


def test_ideal_cap_counts_the_empty_ideal():
    empty, point = Poset(np.zeros((0, 0), dtype=bool)), Poset(np.eye(1, dtype=bool))
    for poset, count in ((empty, 1), (point, 2)):
        with pytest.raises(CapExceeded, match=f"^ideal family exceeds cap {count - 1}$"):
            poset.ideal_masks(cap=count - 1)
        assert len(poset.ideal_masks(cap=count)) == count


ONE_STATE_GAMES = (
    "vertices: a s\nedge: a s 1\nchips: a=0\n",
    "vertices: a s\nedge: a s 1 colour=1\nchips: a=0@1\n",
)


@pytest.mark.parametrize(
    "game",
    [parse_game(text) for text in ONE_STATE_GAMES] + [funnel_game(), shared_gate_game()],
    ids=["classical-one", "coloured-one", "funnel", "shared-gate"],
)
def test_state_cap_admits_at_most_cap_states(game):
    size = len(game.enumerate_space())
    for cap in {0, 1, size - 1, size}:
        if cap < size:
            with pytest.raises(StateCapExceeded, match=f"^state space exceeds cap {cap}$"):
                game.enumerate_space(state_cap=cap)
        else:
            assert len(game.enumerate_space(state_cap=cap)) == size


def test_isomorphism_cap():
    from chipfire.lattice import find_isomorphism

    lat = Lattice.boolean(3)
    with pytest.raises(CapExceeded):
        find_isomorphism(lat, lat, cap=4)


def test_simplify_round_cap():
    from chipfire.fixtures import relay_chain_game

    with pytest.raises(RuntimeError):
        simplify(relay_chain_game(), max_rounds=1)


def test_split_name_collision_gets_fresh_names():
    g = Multigraph(("v", "v_0", "z"), {(0, 1): 1, (1, 2): 1})
    game = Cfg(g, (2, 0, 0))
    split = split_vertex(game, 0)
    assert len(set(split.graph.names)) == 4
    assert "v_0_" in split.graph.names


def test_cli_run_rejects_coloured_file(capsys):
    from importlib import resources

    path = str(resources.files("chipfire.data").joinpath("shared_gate.ccfg"))
    assert main(["run", path]) == 1
    assert "classical" in capsys.readouterr().err


def test_cli_synth_to_stdout(tmp_path, capsys):
    lat = tmp_path / "c2.lat"
    lat.write_text("elements: x y\ncover: x y\n")
    assert main(["synth", str(lat), "--mode", "distributive"]) == 0
    captured = capsys.readouterr()
    assert "vertices:" in captured.out
    assert "round-trip: isomorphic" in captured.err


def test_repr_smoke():
    assert "Multigraph" in repr(funnel_game().graph)
    assert "Lattice" in repr(Lattice.boolean(1))
    assert "Poset" in repr(Poset(np.eye(1, dtype=bool)))
