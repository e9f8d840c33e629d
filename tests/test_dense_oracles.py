"""The triple-law witness against its dense form, and the isomorphism search
checked by its own mappings.

``helpers.dense_distributivity_witness`` runs on join and meet tables filled
through the public ``join`` and ``meet``; ``Lattice.distributivity_witness``
must name the same first triple. ``find_isomorphism`` is itself the oracle for
arbitrary pairs: each mapping it returns must pass ``is_hasse_isomorphism`` on
the upper-cover rows, one must be found for every renumbered copy, and none
for lattices that differ in |J|, |M| or height, or for the ideal lattices of
non-isomorphic posets (Birkhoff). The lattices are the fixtures, products of
the pentagon, the diamond and the gated cube with boolean lattices and chains
(also with the join-irreducibles numbered last), the ideal lattices of every
poset on at most five elements, their duals and hypothesis-shuffled copies.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire.fixtures import diamond, gated_cube_lattice, pentagon
from chipfire.lattice import Lattice, find_isomorphism, ideal_lattice
from chipfire.transforms import is_hasse_isomorphism

from helpers import all_posets_upto, dense_distributivity_witness, dual


def product(a, b):
    """a × b ordered componentwise, from the covers of each factor."""
    covers = [(x * b.n + y, u * b.n + y) for x, u in a.cover_pairs for y in range(b.n)]
    covers += [(x * b.n + y, x * b.n + v) for x in range(a.n) for y, v in b.cover_pairs]
    labels = [f"{p}.{q}" for p in a.labels for q in b.labels]
    return Lattice.from_covers(a.n * b.n, covers, labels=labels)


def renumbered(lattice, perm):
    """The same lattice with element x numbered ``perm[x]``."""
    labels = [""] * lattice.n
    for x, label in zip(perm, lattice.labels):
        labels[x] = label
    covers = [(perm[lo], perm[hi]) for lo, hi in lattice.cover_pairs]
    return Lattice.from_covers(lattice.n, covers, labels=labels)


def shuffled(lattice, rng):
    return renumbered(lattice, rng.sample(range(lattice.n), lattice.n))


def join_irreducibles_last(lattice):
    """Renumbered so that every join-irreducible comes after every other
    element: then the only pairs (y, j) with j numbered before y are pairs of
    join-irreducibles, which miss the gated cube's failing joins."""
    J = set(lattice.J)
    order = [x for x in range(lattice.n) if x not in J] + list(lattice.J)
    perm = [0] * lattice.n
    for i, x in enumerate(order):
        perm[x] = i
    return renumbered(lattice, perm)


def shapes():
    """The fixtures and their products with boolean lattices and chains, each
    also with its join-irreducibles numbered last."""
    out = [pentagon(), diamond(), gated_cube_lattice()]
    out += [product(pentagon(), Lattice.boolean(k)) for k in range(6)]
    out += [product(Lattice.boolean(k), diamond()) for k in range(5)]
    out += [product(gated_cube_lattice(), Lattice.chain(k)) for k in (2, 3)]
    return out + [join_irreducibles_last(lat) for lat in out]


SMALL = [lat for lat in shapes() if lat.n <= 40]
SMALL += [ideal_lattice(poset) for poset in all_posets_upto(4)]


def assert_witness_matches(lat):
    assert lat.distributivity_witness() == dense_distributivity_witness(lat), lat.labels


def assert_isomorphism_checks(a, b, isomorphic=None):
    """The mapping found from a to b, if any, passes the row check. One is
    found when a and b are known to be isomorphic, and none when they are
    known not to be or differ in |J|, |M| or height."""
    mapping = find_isomorphism(a, b)
    if isomorphic or mapping is not None:
        assert is_hasse_isomorphism(mapping, a._upper_covers, b._upper_covers), (a.labels, b.labels)
    invariants = [(len(lat.J), len(lat.M), lat.height) for lat in (a, b)]
    if isomorphic is False or invariants[0] != invariants[1]:
        assert mapping is None, (a.labels, b.labels)


def test_witness_on_shapes_ideal_lattices_and_duals(distributive_corpus):
    lattices = shapes() + distributive_corpus
    witnesses = 0
    for lat in lattices + [dual(lat) for lat in lattices]:
        assert_witness_matches(lat)
        witnesses += lat.distributivity_witness() is not None
    assert witnesses == 2 * len(shapes())


def test_isomorphism_on_shapes_ideal_lattices_and_duals(distributive_corpus):
    rng = random.Random(17)
    for lat in shapes() + distributive_corpus:
        for copy in (lat, shuffled(lat, rng)):
            assert_isomorphism_checks(lat, copy, isomorphic=True)
        assert_isomorphism_checks(dual(lat), shuffled(dual(lat), rng), isomorphic=True)
        assert_isomorphism_checks(lat, dual(lat))
    # the corpus holds one poset per isomorphism class, and ideal lattices are
    # isomorphic only when their posets are: of one size, only a and a match
    by_size = {}
    for lat in distributive_corpus:
        by_size.setdefault(lat.n, []).append(lat)
    for group in by_size.values():
        for a in group:
            for b in group:
                assert_isomorphism_checks(a, b, isomorphic=a is b)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SMALL), st.randoms(use_true_random=False), st.booleans())
def test_witness_and_isomorphism_on_shuffled_copies(lat, rng, flip):
    if flip:
        lat = dual(lat)
    copy = shuffled(lat, rng)
    assert_witness_matches(copy)
    assert_isomorphism_checks(lat, copy, isomorphic=True)
    assert_isomorphism_checks(copy, shuffled(lat, rng), isomorphic=True)
    assert_isomorphism_checks(copy, shuffled(dual(lat), rng))
