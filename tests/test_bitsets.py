"""Element sets as ints, against the definitions of the order and the lattice.

``Poset.from_covers`` closes strict up-sets as ints over the covers; it is
compared with the reflexive and transitive closure of the pairs
(``helpers.generated_leq``, its own matrix) on order, kept covers and error
text. On small acyclic inputs, with and without a new least and greatest
element, and on fixed lattice-shaped inputs past 64 elements,
``Lattice.from_covers`` and its one containment check per join-irreducible
must give the scanning oracles' verdict, error text, joins and meets. The
meet-irreducible codes ``Lattice._mx_masks``, also past one machine word, are
checked with the rest of the lattice layer in ``tests/test_lattice_tables.py``.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire.errors import NotALatticeError
from chipfire.lattice import Lattice, Poset

from helpers import (
    bounded,
    dense_leq,
    generated_leq,
    generated_order,
    naive_join,
    naive_meet,
    naive_not_a_lattice_message,
)


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


def outcome(n, covers):
    """``Poset.from_covers``'s order, one public ``le`` per cell, and its
    kept covers; or its error text."""
    try:
        poset = Poset.from_covers(n, covers)
    except ValueError as exc:
        return str(exc)
    return dense_leq(poset).tolist(), poset.cover_pairs


def generated_outcome(n, covers):
    """The same from the generated order: its own matrix, and the covers
    ``Poset`` derives from that matrix; or its error text."""
    try:
        leq = generated_leq(n, covers)
    except ValueError as exc:
        return str(exc)
    return leq.tolist(), Poset(leq, _checked=True).cover_pairs


def assert_lattice_verdict(n, covers, poset, pairs=None):
    """``Lattice.from_covers(n, covers)`` against the scanning oracles on
    ``poset``, the same order closed by Warshall's rule; joins and meets on
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
def test_from_covers_matches_the_generated_order(case):
    n, covers = case
    expected = generated_outcome(n, covers)
    assert outcome(n, covers) == expected
    if n <= 12 and not isinstance(expected, str):  # acyclic, no bad pair
        poset = generated_order(n, covers)
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
    assert outcome(n, covers) == generated_outcome(n, covers)
    rng = random.Random(case)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)] + [(x, n - 1) for x in range(n)]
    assert_lattice_verdict(n, covers, generated_order(n, covers), pairs)


def test_from_covers_reports_a_bad_pair_listed_after_a_cycle():
    covers = [(0, 1), (1, 0), (2, 2)]
    for build in (Poset.from_covers, generated_order):
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
