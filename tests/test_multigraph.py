import random

import pytest

from chipfire.fixtures import funnel_game, split_track_game
from chipfire.multigraph import ColouredMultigraph, Multigraph

from helpers import (
    in_degree,
    nonloop_out_degree,
    pair_multiplicity,
    random_coloured_game,
    random_convergent_game,
    total_multiplicity,
)


def test_out_degree_funnel():
    g = funnel_game().graph
    assert g.out_degree(g.vertex("c")) == 2
    assert g.out_degree(g.vertex("a")) == 1
    assert g.out_degree(g.vertex("d")) == 0


def test_out_degree_edgeless_vertex():
    g = Multigraph(("a", "b"), {})
    assert g.out_degree(0) == 0


def test_out_degree_loop_counts_once():
    g = Multigraph(("a",), {(0, 0): 1})
    assert g.out_degree(0) == 1
    assert g.loops(0) == 1


def test_out_degree_unknown_vertex():
    g = Multigraph(("a",), {})
    with pytest.raises(ValueError):
        g.out_degree(3)
    with pytest.raises(ValueError):
        g.vertex("zz")


def test_sinks():
    g = funnel_game().graph
    assert g.sinks() == {g.vertex("d")}
    complete = Multigraph(("a", "b"), {(0, 1): 1, (1, 0): 1})
    assert complete.sinks() == frozenset()
    isolated = Multigraph(("a",), {})
    assert isolated.sinks() == {0}


def test_sink_reachable_from_all():
    assert funnel_game().graph.sink_reachable_from_all()
    two_cycle = Multigraph(("a", "b"), {(0, 1): 1, (1, 0): 1})
    assert not two_cycle.sink_reachable_from_all()
    # two components, each vertex drains somewhere, but no common sink
    disjoint = Multigraph(("a", "b", "c"), {(0, 1): 1})
    assert not disjoint.sink_reachable_from_all()
    assert disjoint.drain_set() == {0, 1, 2}


def test_induced_subgraph():
    g = funnel_game().graph
    sub = g.induced_subgraph([0, 2, 3])  # a, c, d
    assert sub.names == ("a", "c", "d")
    assert sub.mult == {(0, 1): 1, (1, 2): 2}
    assert g.induced_subgraph(range(4)).mult == g.mult
    assert g.induced_subgraph([]).n == 0


def test_restriction_to_colour():
    g = split_track_game().graph
    r1 = g.restriction_to_colour(1)
    assert r1.mult == {
        (g.vertex("a"), g.vertex("c1")): 1,
        (g.vertex("c1"), g.vertex("bot")): 1,
    }
    with pytest.raises(ValueError):
        g.restriction_to_colour(99)


def test_restriction_colour_without_edges():
    g = ColouredMultigraph(("a", "b"), {1: {(0, 1): 1}, 2: {}})
    assert g.restriction_to_colour(2).mult == {}


def test_single_colour_restriction_is_identity():
    base = funnel_game().graph
    lifted = ColouredMultigraph(base.names, {1: dict(base.mult)})
    assert lifted.restriction_to_colour(1).mult == base.mult


def test_degree_identities_random():
    rng = random.Random(5)
    for _ in range(50):
        game = random_convergent_game(rng)
        g = game.graph
        for v in range(g.n):
            assert g.out_degree(v) == nonloop_out_degree(g, v) + g.loops(v)
        assert sum(g.out_degree(v) for v in range(g.n)) == total_multiplicity(g)
        # firing every vertex once moves in-degree minus out-degree chips onto each
        conf = [max(g.out_degree(v) for v in range(g.n))] * g.n
        fired = conf
        for v in range(g.n):
            if g.out_degree(v):
                fired = game.fire(fired, v)
        assert list(fired) == [c + in_degree(g, v) - g.out_degree(v) for v, c in enumerate(conf)]


def test_colour_union_reconstructs_multiplicities():
    rng = random.Random(9)
    for _ in range(30):
        g = random_coloured_game(rng).graph
        for u in range(g.n):
            for v in range(g.n):
                by_layers = sum(
                    g.restriction_to_colour(c).multiplicity(u, v) for c in g.colours
                )
                assert by_layers == pair_multiplicity(g, u, v)
