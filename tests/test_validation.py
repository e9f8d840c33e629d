"""Validation, caps, and corner cases across modules."""

import numpy as np
import pytest

from chipfire.cli import main
from chipfire.coloured import ColouredCfg
from chipfire.engine import Cfg
from chipfire.errors import CapExceeded, StateCapExceeded
from chipfire.fixtures import funnel_game, shared_gate_game
from chipfire.formats import parse_game
from chipfire.lattice import Lattice, Poset
from chipfire.multigraph import ColouredMultigraph, Multigraph
from chipfire.transforms import simplify, split_vertex


def test_from_edges_by_name():
    g = Multigraph.from_edges("abc", [("a", "b", 1), ("a", "b", 2), ("c", "c", 1)])
    assert g.multiplicity(0, 1) == 3
    assert g.loops(2) == 1


def test_coloured_from_edges_by_name():
    g = ColouredMultigraph.from_edges("ab", [("a", "b", 1, 2), ("a", "b", 1, 2)])
    assert g.colours == (2,)
    assert g.restriction_to_colour(2).multiplicity(0, 1) == 2


def test_multigraph_rejects_bad_input():
    with pytest.raises(ValueError):
        Multigraph(("a", "a"), {})
    with pytest.raises(ValueError):
        Multigraph(("a",), {(0, 3): 1})
    with pytest.raises(ValueError):
        Multigraph(("a",), {(0, 0): -1})


def test_cfg_rejects_bad_init():
    g = funnel_game().graph
    with pytest.raises(ValueError):
        Cfg(g, (1, 1, 1))
    with pytest.raises(ValueError):
        Cfg(g, (1, 1, 1, -1))


def test_callable_policy():
    game = funnel_game()
    run = game.run_to_fixpoint(policy=lambda fs: max(fs))
    assert run.final == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        game.run_to_fixpoint(policy="sideways")


def test_coloured_cfg_rejects_bad_chips():
    graph = shared_gate_game().graph
    with pytest.raises(ValueError):
        ColouredCfg(graph, {9: (0, 0, 0, 0)})
    with pytest.raises(ValueError):
        ColouredCfg(graph, {1: (0, 0)})


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
