import random

import pytest
from hypothesis import given, settings

from chipfire.engine import Cfg
from chipfire.errors import StateCapExceeded, StepCapExceeded
from chipfire.fixtures import funnel_game, relay_chain_game
from chipfire.multigraph import Multigraph

from helpers import (
    all_firing_sequences,
    convergent_games,
    grid_sandpile,
    random_convergent_game,
    scan_run,
    v,
)

POLICIES = ("min", "max", "random")


def test_firable_funnel_initial():
    f = funnel_game()
    assert f.firable(f.init) == {v(f, "a"), v(f, "b")}


def test_firable_all_zero():
    f = funnel_game()
    assert f.firable((0, 0, 0, 0)) == frozenset()


def test_firable_after_firing_a():
    f = funnel_game()
    conf = f.fire(f.init, v(f, "a"))
    assert conf == (0, 1, 2, 0)
    assert f.firable(conf) == {v(f, "b"), v(f, "c")}


def test_fire_two_parallel_edges():
    f = funnel_game()
    assert f.fire((0, 1, 2, 0), v(f, "c")) == (0, 1, 0, 2)


def test_fire_loop_returns_chip():
    g = Multigraph(("a",), {(0, 0): 1})
    game = Cfg(g, (1,))
    assert game.fire((1,), 0) == (1,)


def test_fire_non_firable_errors():
    f = funnel_game()
    with pytest.raises(ValueError):
        f.fire(f.init, v(f, "c"))


def test_chip_conservation_random():
    rng = random.Random(3)
    for _ in range(30):
        game = random_convergent_game(rng)
        conf = game.init
        for _ in range(20):
            fs = game.firable(conf)
            if not fs:
                break
            conf = game.fire(conf, min(fs))
            assert sum(conf) == sum(game.init)


def test_run_to_fixpoint_funnel():
    run = funnel_game().run_to_fixpoint()
    assert run.final == (0, 0, 1, 2)
    assert run.counts == (1, 1, 1, 0)


def test_run_to_fixpoint_zero_chips():
    f = funnel_game()
    idle = Cfg(f.graph, (0, 0, 0, 0))
    run = idle.run_to_fixpoint()
    assert run.final == idle.init
    assert run.counts == (0, 0, 0, 0)
    assert run.steps == 0


def test_run_to_fixpoint_relay_counts():
    run = relay_chain_game().run_to_fixpoint()
    assert run.counts == (2, 4, 0)
    assert run.final == (0, 0, 4)


def test_run_matches_sequence_oracle():
    f = funnel_game()
    sequences = all_firing_sequences(f)
    # every maximal sequence fires the same multiset of vertices
    assert len({tuple(sorted(s)) for s in sequences}) == 1
    assert sorted(sequences[0]) == sorted([v(f, "a"), v(f, "b"), v(f, "c")])


def test_run_policy_independence():
    rng = random.Random(17)
    for _ in range(20):
        game = random_convergent_game(rng)
        runs = [
            game.run_to_fixpoint(policy="min"),
            game.run_to_fixpoint(policy="max"),
            game.run_to_fixpoint(policy="random", rng=random.Random(1)),
            game.run_to_fixpoint(policy="random", rng=random.Random(2)),
        ]
        assert len({r.final for r in runs}) == 1
        assert len({r.counts for r in runs}) == 1


def assert_runs_like_the_scan(game, seed):
    """Under every policy the run fires what ``scan_run`` fires, firing by
    firing; a step cap of its firings passes and one less raises."""
    for policy in POLICIES:
        fired = []
        expected = scan_run(game, policy=policy, rng=random.Random(seed))
        steps = len(expected[0])
        run = game.run_to_fixpoint(
            policy=policy,
            step_cap=steps,
            rng=random.Random(seed),
            on_fire=lambda v, conf: fired.append((v, conf)),
        )
        assert (fired, run.final, run.counts) == expected, policy
        if steps:
            with pytest.raises(
                StepCapExceeded,
                match="^the game converges, but the step cap came first: "
                f"no fixpoint within step cap {steps - 1}$",
            ):
                game.run_to_fixpoint(policy=policy, rng=random.Random(seed), step_cap=steps - 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_runs_fire_like_the_scan_on_generated_games(game):
    assert_runs_like_the_scan(game, seed=sum(game.init))


def test_runs_fire_like_the_scan_on_seeded_games_and_a_grid():
    rng = random.Random(29)
    games = [random_convergent_game(rng, max_chips=16) for _ in range(150)]
    for seed, game in enumerate(games + [grid_sandpile(5, 40)]):
        assert_runs_like_the_scan(game, seed)


def test_run_guard_requires_cap():
    cyclic = Cfg(Multigraph(("a", "b"), {(0, 1): 1, (1, 0): 1}), (1, 0))
    with pytest.raises(ValueError):
        cyclic.run_to_fixpoint()
    with pytest.raises(StepCapExceeded) as err:
        cyclic.run_to_fixpoint(step_cap=50)
    assert "50" in str(err.value)


def test_step_cap_text_says_whether_the_game_converges():
    cyclic = Cfg(Multigraph(("a", "b"), {(0, 1): 1, (1, 0): 1}), (1, 0))
    drain = Cfg(Multigraph(("a", "t"), {(0, 1): 1}), (10**20, 0))
    assert drain.converges_guaranteed
    for policy in POLICIES:
        with pytest.raises(
            StepCapExceeded, match="^possibly divergent: no fixpoint within step cap 7$"
        ):
            cyclic.run_to_fixpoint(policy=policy, step_cap=7)
        with pytest.raises(
            StepCapExceeded,
            match="^the game converges, but the step cap came first: "
            "no fixpoint within step cap 7$",
        ):
            drain.run_to_fixpoint(policy=policy, step_cap=7)
        # the bound counts firings: seven of them fit a step cap of 7
        run = Cfg(drain.graph, (7, 0)).run_to_fixpoint(policy=policy, step_cap=7)
        assert run.steps == 7


def test_is_simple():
    assert funnel_game().is_simple()
    assert not relay_chain_game().is_simple()
    idle = Cfg(funnel_game().graph, (0, 0, 0, 0))
    assert idle.is_simple()


def test_enumerate_space_funnel():
    space = funnel_game().enumerate_space()
    assert len(space) == 7
    assert space.height == 3
    labels = {space.shot_label(i) for i in range(7)}
    assert labels == {"{}", "{a}", "{b}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}"}
    assert space.shot_label(0) == "{}"
    # every cover adds exactly one firing, of a move of its lower state
    for lo, ups in enumerate(space.ups):
        for hi in ups:
            delta = [b - a for a, b in zip(space.vectors[lo], space.vectors[hi])]
            assert sorted(delta) == [0] * (len(delta) - 1) + [1]
            assert space.move_masks[lo] >> delta.index(1) & 1


def test_enumerate_space_zero_chips():
    idle = Cfg(funnel_game().graph, (0, 0, 0, 0))
    assert len(idle.enumerate_space()) == 1


def test_enumerate_space_two_independent_vertices():
    g = Multigraph(("a", "b", "s"), {(0, 2): 1, (1, 2): 1})
    space = Cfg(g, (1, 1, 0)).enumerate_space()
    assert len(space) == 4
    lat = space.lattice()
    assert lat.is_distributive


def test_enumerate_space_cap():
    with pytest.raises(StateCapExceeded):
        relay_chain_game().enumerate_space(state_cap=3)


def test_space_order_is_vector_dominance():
    rng = random.Random(41)
    for _ in range(15):
        game = random_convergent_game(rng, max_vertices=5)
        space = game.enumerate_space()
        lat = space.lattice()
        for i in range(len(space)):
            for j in range(len(space)):
                dom = all(x <= y for x, y in zip(space.vectors[i], space.vectors[j]))
                assert dom == lat.le(i, j)


def test_join_of_funnel():
    space = funnel_game().enumerate_space()
    by_label = {space.shot_label(i): i for i in range(len(space))}
    a, b = by_label["{a}"], by_label["{b}"]
    assert space.join_of(a, b) == by_label["{a,b}"]
    assert space.join_of(a, a) == a
    assert space.join_of(by_label["{a,c}"], b) == by_label["{a,b,c}"]


def test_join_of_matches_lattice_join():
    rng = random.Random(53)
    for _ in range(20):
        game = random_convergent_game(rng, max_vertices=5)
        space = game.enumerate_space()
        lat = space.lattice()
        for i in range(len(space)):
            for j in range(len(space)):
                assert space.join_of(i, j) == lat.join(i, j)


def test_simple_single_sink_height():
    f = funnel_game()
    assert f.enumerate_space().height == f.graph.n - 1


def test_revisit_with_another_firing_vector_is_reported(monkeypatch):
    # a step that never moves a chip brings every firing back to the start
    successors = Cfg._successors
    monkeypatch.setattr(
        Cfg, "_successors", lambda self, conf: [(v, conf) for v, _ in successors(self, conf)]
    )
    with pytest.raises(RuntimeError, match="revisited"):
        funnel_game().enumerate_space()


def test_two_states_with_one_firing_vector_are_reported(monkeypatch):
    # tag each configuration with the last fired vertex, so {a,b} reached
    # as a-then-b and as b-then-a gives two states with one firing vector
    successors = Cfg._successors
    game = funnel_game()
    top = game._packing[0][0] * game.graph.n  # the tag sits above every vertex's field
    untag = (1 << top) - 1
    monkeypatch.setattr(
        Cfg,
        "_successors",
        lambda self, conf: [(v, nxt | v + 1 << top) for v, nxt in successors(self, conf & untag)],
    )
    with pytest.raises(RuntimeError, match="share a firing vector"):
        game.enumerate_space()
