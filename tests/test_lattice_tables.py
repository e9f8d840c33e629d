"""Differential tests of the lattice core.

A lattice is verified by its join table, a cover recurrence, plus a least
element; its meet table, the same recurrence on the dual, is built on first
use; distributivity comes from the irreducible coding (ULD with as many
join- as meet-irreducibles). These tests compare the tables and the verdict
with the scanning oracles in ``helpers`` and with the triple law, and the
errors for non-lattices with the first failing pair, on the seeded corpora,
the stock shapes, their duals and hypothesis-generated games.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import cli
from chipfire.engine import Cfg
from chipfire.errors import NotALatticeError
from chipfire.fixtures import diamond, gated_cube_lattice, pentagon
from chipfire.lattice import Lattice, Poset, ideal_lattice
from chipfire.multigraph import Multigraph

from helpers import (
    all_posets_upto,
    dual,
    naive_distributive,
    naive_join,
    naive_meet,
    naive_not_a_lattice_message,
)

# the scanning oracles cost about n^4; larger lattices get the triple law only
ORACLE_MAX = 40


def assert_matches_oracles(lat):
    if lat.n <= ORACLE_MAX:
        for x in range(lat.n):
            for y in range(lat.n):
                assert lat.join(x, y) == naive_join(lat, x, y), (lat.labels, x, y)
                assert lat.meet(x, y) == naive_meet(lat, x, y), (lat.labels, x, y)
        assert lat.is_distributive == naive_distributive(lat), lat.labels
    assert lat.is_distributive == (lat.distributivity_witness() is None), lat.labels


def with_duals(lattices):
    return [each for lat in lattices for each in (lat, dual(lat))]


def test_stock_shapes_and_duals():
    shapes = [pentagon(), diamond(), gated_cube_lattice(), Lattice.chain(4), Lattice.boolean(3)]
    for lat in with_duals(shapes):
        assert_matches_oracles(lat)


def test_game_spaces_and_duals(space_corpus):
    for lat in with_duals(space.lattice() for space in space_corpus):
        assert_matches_oracles(lat)


def test_coloured_spaces_and_duals(coloured_space_corpus):
    for lat in with_duals(space.lattice() for space in coloured_space_corpus):
        assert_matches_oracles(lat)


def test_ideal_lattices_and_duals(distributive_corpus):
    for lat in with_duals(distributive_corpus):
        assert_matches_oracles(lat)
        assert lat.is_distributive


@st.composite
def convergent_games(draw):
    """Games whose every non-sink vertex has an edge to a later vertex, so
    the last vertex is a sink reachable from everywhere; loops and parallel
    edges allowed."""
    n = draw(st.integers(2, 5))
    mult: dict[tuple[int, int], int] = {}
    for v in range(n - 1):
        w = draw(st.integers(v + 1, n - 1))
        mult[(v, w)] = draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, n))):
        edge = (draw(st.integers(0, n - 2)), draw(st.integers(0, n - 1)))
        mult[edge] = mult.get(edge, 0) + 1
    chips = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Cfg(Multigraph(tuple("abcde"[:n]), mult), tuple(chips))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_generated_game_spaces_and_duals(game):
    for lat in with_duals([game.enumerate_space().lattice()]):
        assert_matches_oracles(lat)


def random_dag_poset(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    return Poset.from_covers(n, pairs)


def bounded(poset):
    """The poset with a new least and a new greatest element."""
    n = poset.n
    leq = np.zeros((n + 2, n + 2), dtype=bool)
    leq[0, :] = leq[:, n + 1] = True
    leq[1:n + 1, 1:n + 1] = poset.leq
    return Poset(leq, labels=("bot",) + poset.labels + ("top",), _checked=True)


def test_non_lattice_error_names_the_first_failing_pair():
    rng = random.Random(5)
    posets = all_posets_upto(4) + [random_dag_poset(rng, rng.randint(2, 7)) for _ in range(150)]
    # bounded posets fail only by ambiguous bounds, never by missing ones
    posets += [bounded(poset) for poset in posets]
    failures = 0
    for poset in posets:
        expected = naive_not_a_lattice_message(poset)
        if expected is None:
            Lattice(poset.leq, labels=poset.labels, _checked=True)
            continue
        failures += 1
        with pytest.raises(NotALatticeError) as err:
            Lattice(poset.leq, labels=poset.labels, _checked=True)
        assert str(err.value) == expected
        with pytest.raises(NotALatticeError) as err:
            Lattice.from_covers(poset.n, poset.cover_pairs, labels=poset.labels)
        assert str(err.value) == expected
    assert failures > 100


def test_union_closed_family_order_and_labels():
    # 71 ground elements make the ideal masks wider than one machine word
    lat = ideal_lattice(Lattice.chain(71))
    assert lat.n == 72
    assert lat.labels[-1] == "{" + ",".join(f"e{b}" for b in range(71)) + "}"
    assert np.array_equal(lat.leq, Lattice.chain(72).leq)


def test_space_skips_cover_matrix_and_triple_law(tmp_path, capsys, monkeypatch):
    """``space`` keeps the covers it enumerated and decides distributivity
    locally: the boolean-matrix cover derivation and the triple law are
    never called on the 2^10-state wide game (ten sources, one sink)."""

    def refuse(*args):
        raise AssertionError("slow path called")

    monkeypatch.setattr(Poset, "_cover_matrix", property(refuse))
    monkeypatch.setattr(Lattice, "distributivity_witness", refuse)
    k = 10
    sources = [f"s{i}" for i in range(k)]
    text = (
        "vertices: " + " ".join(sources) + " t\n"
        + "".join(f"edge: {s} t 1\n" for s in sources)
        + "chips: " + " ".join(f"{s}=1" for s in sources) + "\n"
    )
    path = tmp_path / "wide.cfg"
    path.write_text(text)
    assert cli.main(["space", str(path)]) == 0
    assert capsys.readouterr().out == (
        "elements: 1024\nheight: 10\nranked: yes\ndistributive: yes\nULD: yes\n"
    )
