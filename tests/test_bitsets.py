"""Element sets as ints, against the numpy constructions they replaced.

``Poset.from_covers`` closes strict up-sets as ints over the covers; it is
compared with Kahn's queue and a numpy row per element
(``helpers.kahn_from_covers``) on order, kept covers and error text. On small
acyclic inputs, with and without a new least and greatest element, and on
fixed lattice-shaped inputs past 64 elements, ``Lattice.from_covers`` and its
one containment check per join-irreducible must give the scanning oracles'
verdict, error text, joins and meets. The
meet-irreducible coding ``Lattice._mx_masks``, read off the upper covers of a
``Lattice`` and, by the same member, off the checked covers of a
``ConfigSpace``, is compared with the columns of the dense order
(``dense_mx_masks``) and with the compared firing vectors
(``vector_mx_masks``).
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire.engine import Cfg
from chipfire.errors import NotALatticeError
from chipfire.fixtures import gated_cube_lattice
from chipfire.lattice import Lattice, Poset
from chipfire.multigraph import Multigraph

from helpers import (
    dense_leq,
    dense_mx_masks,
    dual,
    kahn_from_covers,
    naive_join,
    naive_meet,
    naive_not_a_lattice_message,
    vector_mx_masks,
)
from test_coloured import coloured_games
from test_lattice_tables import bounded, convergent_games


@st.composite
def cover_lists(draw, max_n=90):
    """(n, covers): pairs oriented along a shuffled linear order, so the input
    is acyclic unless some pairs are flipped, with repeats, implied pairs, n
    past one machine word, numpy-integer ids and, sometimes, a bad pair."""
    n = draw(st.integers(0, max_n))
    rank = draw(st.permutations(range(n)))
    pairs = []
    if n >= 2:
        raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
        pairs = [(rank[min(a, b)], rank[max(a, b)]) for a, b in raw if a != b]
        # chains of covers with their shortcuts, which are implied
        for start in draw(st.lists(st.integers(0, n - 2), max_size=3)):
            stop = draw(st.integers(start + 1, n - 1))
            pairs += [(rank[a], rank[a + 1]) for a in range(start, stop)] + [(rank[start], rank[stop])]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))  # repeats
        pairs = draw(st.permutations(pairs))
        flips = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=2))
        for i in flips:  # a flipped pair may close a cycle
            pairs[i] = pairs[i][::-1]
    if draw(st.booleans()):
        bad = draw(st.sampled_from([(-1, 0), (0, n), (n, n + 1), (0, 0)]))
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    if draw(st.booleans()):
        pairs = [(np.int64(lo), np.int64(hi)) for lo, hi in pairs]
    return n, pairs


def outcome(build, n, covers):
    try:
        poset = build(n, covers)
    except ValueError as exc:
        return str(exc)
    return dense_leq(poset).tolist(), poset.cover_pairs


def assert_lattice_verdict(n, covers, poset, pairs=None):
    """``Lattice.from_covers(n, covers)`` against the scanning oracles on
    ``poset``, the same order built by Kahn's queue; joins and meets on
    ``pairs``, all pairs by default."""
    expected = naive_not_a_lattice_message(poset) if n else "not a lattice: empty element set"
    try:
        lat = Lattice.from_covers(n, covers, labels=poset.labels)
    except NotALatticeError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    for x, y in itertools.product(range(n), repeat=2) if pairs is None else pairs:
        assert lat.join(x, y) == naive_join(poset, x, y), (covers, x, y)
        assert lat.meet(x, y) == naive_meet(poset, x, y), (covers, x, y)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.one_of(cover_lists(), cover_lists(max_n=12)))
def test_from_covers_matches_the_kahn_construction(case):
    n, covers = case
    expected = outcome(kahn_from_covers, n, covers)
    assert outcome(Poset.from_covers, n, covers) == expected
    if n <= 12 and not isinstance(expected, str):  # acyclic, no bad pair
        poset = kahn_from_covers(n, covers)
        assert_lattice_verdict(n, covers, poset)
        # the same order between a new least and a new greatest element
        ends = [(0, n + 1)] + [(0, x + 1) for x in range(n)] + [(x + 1, n + 1) for x in range(n)]
        shifted = [(lo + 1, hi + 1) for lo, hi in covers] + ends
        assert_lattice_verdict(n + 2, shifted, bounded(poset))


def chain_product(sizes):
    """(n, covers) of the product of chains with ``sizes`` elements each, its
    elements in lexicographic order: 0 is the bottom, n - 1 the top."""
    elems = list(itertools.product(*map(range, sizes)))
    index = {e: i for i, e in enumerate(elems)}
    covers = [
        (index[e], index[e[:k] + (e[k] + 1,) + e[k + 1:]])
        for e in elems for k, size in enumerate(sizes) if e[k] + 1 < size
    ]
    return len(elems), covers


def wide_cases():
    """Lattice-shaped cover lists past 64 elements, valid and not."""
    cube = Lattice.boolean(7).cover_pairs
    n, grid = chain_product((3, 4, 6))
    return {
        "boolean 2^7 less its first cover": (128, cube[1:]),
        "boolean 2^7 less a middle cover": (128, cube[:200] + cube[201:]),
        "boolean 2^7 less its last cover": (128, cube[:-1]),
        "product with an extra top over a coatom": (n + 1, grid + [(n - 2, n)]),
        "product with an extra top over the top": (n + 1, grid + [(n - 1, n)]),
        # only the pair of new tops, both above bit 63, has no join
        "product with two extra tops over the top": (n + 2, grid + [(n - 1, n), (n - 1, n + 1)]),
        "product with an extra bottom under an atom": (n + 1, grid + [(n, 1)]),
        "product with an extra bottom under the bottom": (n + 1, grid + [(n, 0)]),
        "product with an extra middle element": (n + 1, grid + [(1, n), (n, n - 2)]),
    }


WIDE = wide_cases()


@pytest.mark.parametrize("case", WIDE)
def test_lattice_verdict_past_one_machine_word(case):
    n, covers = WIDE[case]
    assert outcome(Poset.from_covers, n, covers) == outcome(kahn_from_covers, n, covers)
    rng = random.Random(case)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)] + [(x, n - 1) for x in range(n)]
    assert_lattice_verdict(n, covers, kahn_from_covers(n, covers), pairs)


def test_from_covers_reports_a_bad_pair_listed_after_a_cycle():
    covers = [(0, 1), (1, 0), (2, 2)]
    for build in (Poset.from_covers, kahn_from_covers):
        with pytest.raises(ValueError, match=r"bad cover pair \(2,2\)"):
            build(3, covers)
    # a float id is a bad pair too, not a TypeError from indexing with it
    for pair, text in (((0.5, 1), r"\(0.5,1\)"), ((0, 1.5), r"\(0,1.5\)")):
        for build in (Poset.from_covers, Lattice.from_covers):
            with pytest.raises(ValueError, match=r"bad cover pair " + text):
                build(3, [pair])


def test_from_covers_past_bit_63_with_numpy_ids():
    n = 100
    covers = [(np.int64(x), np.int64(x + 1)) for x in range(n - 1)] + [(np.int64(0), np.int64(n - 1))]
    poset = Poset.from_covers(n, covers)
    assert np.array_equal(dense_leq(poset), np.triu(np.ones((n, n), dtype=bool)))
    assert poset.cover_pairs == tuple((x, x + 1) for x in range(n - 1))
    assert all(type(x) is int for pair in poset.cover_pairs for x in pair)


def assert_codes_match(lat, space=None):
    for each in (lat, dual(lat)):
        assert each._mx_masks == dense_mx_masks(each), each.labels
    if space is not None:
        assert space._mx_masks == vector_mx_masks(space) == lat._mx_masks


def test_codes_on_corpora(space_corpus, coloured_space_corpus):
    for space in space_corpus + coloured_space_corpus:
        assert_codes_match(space.lattice(), space)


def test_codes_on_ideal_lattices(distributive_corpus):
    for lat in distributive_corpus:
        assert_codes_match(lat)


def test_codes_past_one_machine_word():
    # one vertex firing 70 times: a chain of 71 states, 70 of them in M
    space = Cfg(Multigraph(("a", "t"), {(0, 1): 1}), (70, 0)).enumerate_space()
    assert len(space.M) == 70
    assert_codes_match(space.lattice(), space)
    assert_codes_match(Lattice.chain(100))
    assert_codes_match(gated_cube_lattice())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_codes_on_generated_games(game):
    space = game.enumerate_space()
    assert_codes_match(space.lattice(), space)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_codes_on_generated_coloured_games(game):
    space = game.enumerate_space()
    assert_codes_match(space.lattice(), space)
