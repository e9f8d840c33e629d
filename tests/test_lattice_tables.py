"""Differential tests of the lattice core: the one place where each input
family meets the oracles of the lattice layer.

A lattice keeps its order as up-set and down-set ints. It is verified by a
least element and a lookup of x∨j for every element x and join-irreducible
j (every join then exists); joins and meets are lookups of common up-sets
and down-sets. Distributivity comes from the irreducible coding (ULD with as
many join- as meet-irreducibles). ``helpers.assert_lattice_layer`` checks
each concept of the layer against its one oracle, on a lattice and its dual:
joins and meets, the distributivity verdict and witness, the
meet-irreducible codes, the arrow partition, the arrow relations and the
arrow witness report; given the configuration space the lattice views, also
every verdict and query the space reads off its firing vectors and moves.

- ``test_stock_shapes_and_duals``: the pentagon, the diamond, the gated
  cube, chains and boolean lattices; the bounded posets that are lattices;
  the bundled games' spaces; the 2^10-state wide game; codes past one
  machine word (a 71-state chain space, a 100-element chain)
- ``test_game_spaces_and_duals``: the 200-game corpus
- ``test_coloured_spaces_and_duals``: the 100-game coloured corpus
- ``test_ideal_lattices_and_duals``: the ideal lattice of every poset on at
  most five elements, each distributive
- ``test_generated_game_spaces_and_duals``: ``convergent_games()`` draws
- ``test_generated_coloured_game_spaces_and_duals``: ``coloured_games()``
  draws

The errors for non-lattices are checked against the first failing pair.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from chipfire import cli
from chipfire.engine import Cfg
from chipfire.errors import NotALatticeError
from chipfire.fixtures import (
    diamond,
    funnel_game,
    gated_cube_lattice,
    pentagon,
    relay_chain_game,
    shared_gate_game,
    split_track_game,
)
from chipfire.formats import parse_game
from chipfire.lattice import Lattice, Poset, ideal_lattice
from chipfire.multigraph import Multigraph

from helpers import (
    all_posets_upto,
    assert_lattice_layer,
    bounded,
    coloured_games,
    convergent_games,
    dense_leq,
    naive_not_a_lattice_message,
    random_dag_poset,
    wide_text,
)


def test_stock_shapes_and_duals():
    lattices = [pentagon(), diamond(), gated_cube_lattice(), Lattice.chain(1), Lattice.chain(4)]
    lattices += [Lattice.boolean(3), Lattice.chain(100)]
    rng = random.Random(11)
    posets = all_posets_upto(4) + [random_dag_poset(rng, rng.randint(2, 7)) for _ in range(150)]
    for poset in map(bounded, posets):
        try:
            lattices.append(Lattice(dense_leq(poset), labels=poset.labels, _checked=True))
        except NotALatticeError:
            pass
    assert any(lat.is_uld and not lat.is_distributive for lat in lattices)
    assert not all(lat.is_uld for lat in lattices)
    for lat in lattices:
        assert_lattice_layer(lat)
    games = [funnel_game(), relay_chain_game(), shared_gate_game(), split_track_game()]
    # one vertex firing 70 times: a chain of 71 states, 70 of them in M
    games += [Cfg(Multigraph(("a", "t"), {(0, 1): 1}), (70, 0)), parse_game(wide_text(10))]
    spaces = [game.enumerate_space() for game in games]
    assert len(spaces[-2].M) == 70 and len(spaces[-1]) == 1024
    for space in spaces:
        assert_lattice_layer(space.lattice(), space)


def test_game_spaces_and_duals(space_corpus):
    for space in space_corpus:
        assert_lattice_layer(space.lattice(), space)


def test_coloured_spaces_and_duals(coloured_space_corpus):
    for space in coloured_space_corpus:
        assert_lattice_layer(space.lattice(), space)


def test_ideal_lattices_and_duals(distributive_corpus):
    for lat in distributive_corpus:
        assert_lattice_layer(lat)
        assert lat.is_distributive


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_generated_game_spaces_and_duals(game):
    space = game.enumerate_space()
    assert_lattice_layer(space.lattice(), space)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_generated_coloured_game_spaces_and_duals(game):
    space = game.enumerate_space()
    assert_lattice_layer(space.lattice(), space)


def test_non_lattice_error_names_the_first_failing_pair():
    rng = random.Random(5)
    posets = all_posets_upto(4) + [random_dag_poset(rng, rng.randint(2, 7)) for _ in range(150)]
    # bounded posets fail only by ambiguous bounds, never by missing ones
    posets += [bounded(poset) for poset in posets]
    # boolean 2^5 plus two elements covering its top: only the last pair fails
    steps = [(m ^ 1 << b, m) for m in range(32) for b in range(5) if m >> b & 1]
    posets.append(Poset.from_covers(34, steps + [(31, 32), (31, 33)]))
    # two minimal elements with six minimal common upper bounds: four are named
    posets.append(Poset.from_covers(9, [(a, u) for a in (0, 1) for u in range(2, 8)] + [(u, 8) for u in range(2, 8)]))
    failures = 0
    for poset in posets:
        expected = naive_not_a_lattice_message(poset)
        if expected is None:
            Lattice(dense_leq(poset), labels=poset.labels, _checked=True)
            continue
        failures += 1
        with pytest.raises(NotALatticeError) as err:
            Lattice(dense_leq(poset), labels=poset.labels, _checked=True)
        assert str(err.value) == expected
        with pytest.raises(NotALatticeError) as err:
            Lattice.from_covers(poset.n, poset.cover_pairs, labels=poset.labels)
        assert str(err.value) == expected
    assert failures > 100


def test_joins_with_join_irreducibles_are_checked_from_every_element():
    """Every two join-irreducibles have a join, but a, b and j together have
    none: c = a∨b and j, e = a∨j and b, and f = b∨j and a each have two
    minimal common upper bounds, u and v. In the second numbering each of
    those join-irreducibles comes after its partner, so x∨j must be checked
    for every x, not only for the earlier ones."""
    steps = ["0a", "0b", "0j", "ac", "bc", "ae", "je", "bf", "jf"]
    steps += [x + y for x in "cef" for y in "uv"]
    for labels in ("0abjcefuv", "0cefuvabj"):
        at = {x: i for i, x in enumerate(labels)}
        covers = [(at[lo], at[hi]) for lo, hi in steps]
        expected = naive_not_a_lattice_message(Poset.from_covers(9, covers, labels=labels))
        assert "2 minimal common upper bounds (u, v)" in expected
        with pytest.raises(NotALatticeError) as err:
            Lattice.from_covers(9, covers, labels=labels)
        assert str(err.value) == expected


def test_union_closed_family_order_and_labels():
    # 71 ground elements make the ideal masks wider than one machine word
    lat = ideal_lattice(Lattice.chain(71))
    assert lat.n == 72
    assert lat.labels[-1] == "{" + ",".join(f"e{b}" for b in range(71)) + "}"
    assert np.array_equal(dense_leq(lat), dense_leq(Lattice.chain(72)))


def test_space_skips_cover_matrix_and_triple_law(tmp_path, capsys, monkeypatch):
    """``space`` keeps the covers it enumerated and decides distributivity
    locally: the cover derivation from the order and the triple law are
    never called on the 2^10-state wide game (ten sources, one sink)."""

    def refuse(*args):
        raise AssertionError("slow path called")

    monkeypatch.setattr(Poset, "_cover_matrix", property(refuse))
    monkeypatch.setattr(Lattice, "distributivity_witness", refuse)
    path = tmp_path / "wide.cfg"
    path.write_text(wide_text(10))
    assert cli.main(["space", str(path)]) == 0
    assert capsys.readouterr().out == (
        "elements: 1024\nheight: 10\nranked: yes\ndistributive: yes\nULD: yes\n"
    )
