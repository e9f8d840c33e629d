import random

import pytest
from hypothesis import given, settings

from chipfire.engine import Cfg
from chipfire.errors import CapExceeded, StepCapExceeded
from chipfire.formats import serialize_game
from chipfire.fixtures import funnel_game, gated_cube_lattice, pentagon, relay_chain_game
from chipfire.lattice import Lattice, ideal_lattice, is_isomorphic
from chipfire.multigraph import Multigraph
from chipfire.transforms import (
    cfg_from_distributive,
    coloured_from_uld,
    coloured_ideal_game,
    interval_cfg,
    simplify,
    split_vertex,
)

from helpers import (
    all_posets_upto,
    convergent_games,
    random_convergent_game,
    replaying_simplify,
)


def space_lattice(game):
    return game.enumerate_space().lattice()


# vertex splitting


def test_split_relay_v_multiplicities():
    game = relay_chain_game()
    split = split_vertex(game, game.graph.vertex("v"))
    g = split.graph
    assert g.names == ("u", "v_0", "bot", "v_1")
    v0, v1 = g.vertex("v_0"), g.vertex("v_1")
    u, bot = g.vertex("u"), g.vertex("bot")
    assert g.multiplicity(u, v0) == 2 and g.multiplicity(u, v1) == 2
    assert g.multiplicity(v0, bot) == 2 and g.multiplicity(v1, bot) == 2
    # surplus 8, one nonloop out-edge: 7 ties each way
    assert g.multiplicity(v0, v1) == 7 and g.multiplicity(v1, v0) == 7
    assert split.init == (8, 8, 0, 0)


def test_split_space_isomorphic():
    game = relay_chain_game()
    before = space_lattice(game)
    split = split_vertex(game, game.graph.vertex("v"))
    assert is_isomorphic(space_lattice(split), before)


def test_split_once_fired_vertex_still_isomorphic():
    game = funnel_game()
    before = space_lattice(game)
    split = split_vertex(game, game.graph.vertex("c"))
    assert is_isomorphic(space_lattice(split), before)


def test_split_surplus_invariant_on_all_states():
    game = relay_chain_game()
    surplus = 2 * sum(game.init)
    split = split_vertex(game, game.graph.vertex("v"))
    v0, v1 = split.graph.vertex("v_0"), split.graph.vertex("v_1")
    for conf in split.enumerate_space().configs:
        assert abs(conf[v0] - conf[v1]) == surplus


def test_split_copies_take_fresh_names():
    # a_0 and a_1 are taken, so the copies of a are a_0_ (in a's slot) and a_1_
    game = Cfg(Multigraph.from_edges(["a", "a_0", "a_1", "t"], [("a", "t", 1)]), (2, 0, 0, 0))
    assert split_vertex(game, 0).graph.names == ("a_0_", "a_0", "a_1", "t", "a_1_")


def test_split_sink_rejected():
    game = funnel_game()
    with pytest.raises(ValueError):
        split_vertex(game, game.graph.vertex("d"))


def test_split_with_loops():
    # loop plus a drain: fires three times from four chips
    g = Multigraph(("a", "bot"), {(0, 0): 1, (0, 1): 1})
    game = Cfg(g, (4, 0))
    assert game.run_to_fixpoint().counts == (3, 0)
    split = split_vertex(game, 0)
    sg = split.graph
    a0, a1 = sg.vertex("a_0"), sg.vertex("a_1")
    assert sg.multiplicity(a0, a0) == 1 and sg.multiplicity(a1, a1) == 1
    assert is_isomorphic(space_lattice(split), space_lattice(game))


def test_split_clamps_the_tie_of_a_vertex_that_can_never_fire():
    # a holds at most 2 chips and has 5 non-loop out-edges: the surplus 4 is less
    g = Multigraph(("a", "b", "t"), {(0, 0): 1, (0, 2): 5, (1, 0): 1})
    game = Cfg(g, (1, 1, 0))
    split = split_vertex(game, 0)
    sg = split.graph
    a0, a1 = sg.vertex("a_0"), sg.vertex("a_1")
    assert sg.multiplicity(a0, a1) == 0 and sg.multiplicity(a1, a0) == 0
    assert split.init == (5, 2, 0, 1)
    assert is_isomorphic(space_lattice(split), space_lattice(game))


# simplification


def test_simplify_already_simple():
    game = funnel_game()
    result, reports = simplify(game)
    assert reports == ()
    assert result is game


def test_simplify_relay_chain():
    game = relay_chain_game()
    simple, reports = simplify(game)
    assert reports
    assert reports[0].vertex == "v" and reports[0].surplus == 8
    assert [r.iteration for r in reports] == list(range(1, len(reports) + 1))
    assert simple.is_simple()
    before = space_lattice(game)
    assert before.n == 9
    assert is_isomorphic(space_lattice(simple), before)


def test_simplify_random_games():
    rng = random.Random(101)
    done = 0
    while done < 15:
        game = random_convergent_game(rng, max_vertices=5, max_chips=6)
        if game.is_simple():
            continue
        simple, reports = simplify(game)
        assert simple.is_simple()
        assert reports
        assert is_isomorphic(space_lattice(simple), space_lattice(game))
        done += 1


def assert_simplify_matches_replays(game):
    simple, reports = simplify(game)
    replayed, replayed_reports = replaying_simplify(game)
    assert reports == replayed_reports, game
    assert simple == replayed, game
    assert serialize_game(simple) == serialize_game(replayed), game


def test_simplify_counts_match_replays_on_the_corpus(game_corpus):
    for game in game_corpus:
        assert_simplify_matches_replays(game)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_simplify_counts_match_replays_on_generated_games(game):
    assert_simplify_matches_replays(game)


def test_simplify_counts_match_replays_on_a_draining_source():
    # one vertex firing 12 times into a sink: 11 splits
    game = Cfg(Multigraph(("a", "t"), {(0, 1): 2}), (24, 0))
    assert_simplify_matches_replays(game)
    assert len(simplify(game)[1]) == 11


def test_simplify_matches_replays_on_the_relay_chain():
    assert_simplify_matches_replays(relay_chain_game())


def test_simplify_matches_replays_on_a_40_chip_source():
    game = Cfg(Multigraph(("a", "t"), {(0, 1): 1}), (40, 0))
    assert_simplify_matches_replays(game)
    assert len(simplify(game)[1]) == 39


def test_simplify_builds_one_multigraph(monkeypatch):
    games = [relay_chain_game(), Cfg(Multigraph(("a", "t"), {(0, 1): 1}), (40, 0))]
    built = []
    post_init = Multigraph.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Multigraph, "__post_init__", counting_post_init)
    for game in games:
        built.clear()
        simple, reports = simplify(game)
        assert reports
        assert built == [simple.graph]


def test_simplify_round_cap_leaves_the_convergence_guard_and_step_cap():
    cycle = Cfg(Multigraph(("a", "b"), {(0, 1): 1, (1, 0): 1}), (1, 0))
    with pytest.raises(ValueError, match="run_to_fixpoint needs a cap"):
        simplify(cycle)
    with pytest.raises(StepCapExceeded, match="no fixpoint within step cap 5"):
        simplify(cycle, step_cap=5)
    with pytest.raises(CapExceeded, match="simplifying takes more than 10 rounds"):
        simplify(cycle, max_rounds=10, step_cap=100)
    # a source firing 12 times: its 11 splits are counted, within and over the cap
    source = Cfg(Multigraph(("a", "t"), {(0, 1): 1}), (12, 0))
    assert len(simplify(source, max_rounds=12)[1]) == 11
    with pytest.raises(CapExceeded, match="takes 12 rounds"):
        simplify(source, max_rounds=11)
    with pytest.raises(CapExceeded, match="takes more than 9 rounds"):
        simplify(source, max_rounds=9)


# distributive lattice -> game


def test_cfg_from_chain3():
    lat = Lattice.chain(3)
    game = cfg_from_distributive(lat)
    assert game.graph.names == ("e0", "e1", "bot")
    assert dict(game.graph.mult) == {(0, 1): 1, (1, 2): 1}
    assert game.init == (1, 0, 0)
    assert is_isomorphic(space_lattice(game), lat)


def test_cfg_from_boolean2():
    lat = Lattice.boolean(2)
    game = cfg_from_distributive(lat)
    assert sorted(game.graph.mult.values()) == [1, 1]
    assert sorted(game.init) == [0, 1, 1]
    assert is_isomorphic(space_lattice(game), lat)


def test_cfg_from_singleton():
    lat = Lattice.from_covers(1, [])
    game = cfg_from_distributive(lat)
    assert game.graph.n == 1
    assert len(game.enumerate_space()) == 1


def test_cfg_from_distributive_every_vertex_fires_once():
    for poset in all_posets_upto(4):
        lat = ideal_lattice(poset)
        game = cfg_from_distributive(lat)
        counts = game.run_to_fixpoint().counts
        non_sink = [v for v in range(game.graph.n) if game.graph.out_degree(v) > 0]
        assert all(counts[v] == 1 for v in non_sink)
        assert sum(counts) == game.graph.n - 1
        assert is_isomorphic(space_lattice(game), lat)


def test_cfg_from_distributive_rejects_funnel_space():
    lat = funnel_game().enumerate_space().lattice()
    with pytest.raises(ValueError):
        cfg_from_distributive(lat)


def test_cfg_from_distributive_rejects_gated_cube_with_witness():
    with pytest.raises(ValueError) as err:
        cfg_from_distributive(gated_cube_lattice())
    assert "not distributive" in str(err.value)


# interval games


def test_interval_cfg_whole_space():
    game = funnel_game()
    space = game.enumerate_space()
    igame = interval_cfg(game, 0, space.top, space)
    assert is_isomorphic(space_lattice(igame), space.lattice())


def test_interval_cfg_singleton():
    game = funnel_game()
    space = game.enumerate_space()
    igame = interval_cfg(game, 3, 3, space)
    assert len(igame.enumerate_space()) == 1


def test_interval_cfg_funnel_boolean():
    game = funnel_game()
    space = game.enumerate_space()
    lat = space.lattice()
    a = next(i for i in range(len(space)) if space.shot_label(i) == "{a}")
    igame = interval_cfg(game, a, space.top, space)
    assert is_isomorphic(space_lattice(igame), Lattice.boolean(2))
    assert is_isomorphic(space_lattice(igame), lat.interval(a, space.top))


def test_interval_cfg_all_pairs_funnel():
    game = funnel_game()
    space = game.enumerate_space()
    lat = space.lattice()
    for a in range(len(space)):
        for b in range(len(space)):
            if not lat.le(a, b):
                continue
            igame = interval_cfg(game, a, b, space)
            assert is_isomorphic(space_lattice(igame), lat.interval(a, b))


def test_interval_cfg_bad_pair():
    game = funnel_game()
    space = game.enumerate_space()
    lat = space.lattice()
    incomparable = [
        (a, b)
        for a in range(len(space))
        for b in range(len(space))
        if not lat.le(a, b) and not lat.le(b, a)
    ]
    a, b = incomparable[0]
    with pytest.raises(ValueError):
        interval_cfg(game, a, b, space)


def test_interval_cfg_rejects_unknown_element_ids():
    game = funnel_game()
    for a, b in ((-1, -1), (0, 99)):
        with pytest.raises(ValueError, match=r"^unknown element id (-1|99)$"):
            interval_cfg(game, a, b)


def test_interval_cfg_rejects_non_simple():
    game = relay_chain_game()
    with pytest.raises(ValueError):
        interval_cfg(game, 0, 0)


def test_interval_cfg_rejects_multiple_sinks():
    g = Multigraph(("a", "s1", "s2"), {(0, 1): 1, (0, 2): 1})
    game = Cfg(g, (2, 0, 0))
    assert game.is_simple()
    with pytest.raises(ValueError):
        interval_cfg(game, 0, 0)


# ULD lattice -> coloured game


def test_coloured_ideal_game_boolean2():
    lat = Lattice.boolean(2)
    game = coloured_ideal_game(lat)
    assert len(game.colours) == 2
    for c in game.colours:
        layer = game.graph.layers[c]
        assert len(layer) == 1  # one vertex, one drain edge
    assert is_isomorphic(
        game.enumerate_space().lattice(),
        ideal_lattice(lat.join_irreducible_poset()),
    )


def test_coloured_ideal_game_chain_paths():
    lat = Lattice.chain(4)
    game = coloured_ideal_game(lat)
    assert len(game.colours) == 1  # J is one chain: one path through its 3 vertices
    [c] = game.colours
    assert game.graph.layers[c] == {(0, 1): 1, (1, 2): 1, (2, 3): 1}
    assert game.init[c] == (1, 0, 0, 0)
    assert is_isomorphic(space_lattice(game), lat)


def test_coloured_ideal_game_funnel_pattern():
    lat = funnel_game().enumerate_space().lattice()
    game = coloured_ideal_game(lat)
    assert len(game.colours) == 2
    totals = sorted(
        sum(game.init[c][v] for c in game.colours) for v in range(game.graph.n)
    )
    # each colour's one chip starts on its own minimal join-irreducible
    assert totals == [0, 0, 0, 1, 1]
    per_vertex_colours = [
        sorted(c for c in game.colours if game.init[c][v])
        for v in range(game.graph.n)
    ]
    charged = [cols for cols in per_vertex_colours if cols]
    assert all(len(cols) == 1 for cols in charged)
    assert is_isomorphic(space_lattice(game), ideal_lattice(lat.join_irreducible_poset()))


def test_coloured_from_uld_funnel_contraction():
    lat = funnel_game().enumerate_space().lattice()
    game = coloured_from_uld(lat)
    assert game.graph.n == 4  # three meet-irreducibles plus the sink
    assert is_isomorphic(game.enumerate_space().lattice(), lat)


def test_coloured_from_uld_gated_cube():
    lat = gated_cube_lattice()
    game = coloured_from_uld(lat)
    assert len(game.colours) == 4  # one path per chain of a first-fit cover of J
    assert game.graph.n == 6  # five meet-irreducibles plus the sink
    assert is_isomorphic(game.enumerate_space().lattice(), lat)


def test_coloured_from_uld_distributive_equals_expanded():
    # the two games name their vertices by M and by J, so their graphs
    # differ; on a distributive lattice both spaces are the lattice, and the
    # chain covers of J and of the join-irreducibles' order match in size
    for poset in all_posets_upto(3):
        lat = ideal_lattice(poset)
        contracted = coloured_from_uld(lat)
        expanded = coloured_ideal_game(lat)
        assert len(contracted.colours) == len(expanded.colours)
        assert is_isomorphic(contracted.enumerate_space().lattice(), lat)
        assert is_isomorphic(expanded.enumerate_space().lattice(), lat)


def test_coloured_from_uld_rejects_pentagon():
    text = "^the construction needs an upper locally distributive lattice$"
    for construction in (coloured_from_uld, coloured_ideal_game):
        with pytest.raises(ValueError, match=text):
            construction(pentagon())
