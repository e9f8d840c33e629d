import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire.errors import CapExceeded, NotALatticeError
from chipfire.fixtures import diamond, funnel_game, gated_cube_lattice, pentagon
from chipfire.lattice import (
    Lattice,
    Poset,
    arrow_witness_report,
    find_isomorphism,
    ideal_lattice,
    is_isomorphic,
)

from helpers import (
    all_posets_upto,
    dense_leq,
    naive_ideals,
    naive_join,
    random_convergent_game,
    random_dag_poset,
)


def funnel_lattice():
    return funnel_game().enumerate_space().lattice()


def by_label(lattice, label):
    return lattice.labels.index(label)


# construction


def test_from_covers_funnel_shape():
    lat = Lattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert lat.bottom == 0 and lat.top == 3
    assert lat.join(1, 2) == 3 and lat.meet(1, 2) == 0


def test_single_element_lattice():
    lat = Lattice.from_covers(1, [])
    assert lat.bottom == lat.top == 0
    assert lat.height == 0
    assert lat.is_distributive and lat.is_uld


def test_two_incomparable_elements_rejected():
    with pytest.raises(NotALatticeError):
        Lattice.from_covers(2, [])


def test_missing_join_witness_names_pair():
    # two minimal upper bounds for the two atoms
    with pytest.raises(NotALatticeError) as err:
        Lattice.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert "minimal common upper bounds" in str(err.value)


def test_cycle_rejected():
    with pytest.raises(ValueError):
        Lattice.from_covers(2, [(0, 1), (1, 0)])


def test_join_meet_match_naive_oracle():
    rng = random.Random(2)
    for _ in range(10):
        lat = random_convergent_game(rng, max_vertices=5).enumerate_space().lattice()
        for x in range(lat.n):
            for y in range(lat.n):
                assert lat.join(x, y) == naive_join(lat, x, y)


# irreducibles and codings


def test_irreducibles_funnel():
    lat = funnel_lattice()
    assert {lat.labels[j] for j in lat.J} == {"{a}", "{b}", "{a,c}", "{b,c}"}
    assert {lat.labels[m] for m in lat.M} == {"{a,b}", "{a,c}", "{b,c}"}


def test_ji_below_bottom_empty():
    lat = funnel_lattice()
    assert lat.ji_below(lat.bottom) == frozenset()


def test_mi_above_top():
    lat = funnel_lattice()
    assert lat.mi_above(lat.top) == frozenset()
    chain = Lattice.chain(3)
    # top of a chain is not meet-irreducible; the element below it is
    assert lat.top not in lat.M
    assert chain.mi_above(2) == frozenset()


def test_shot_set_is_m_complement():
    lat = funnel_lattice()
    x = by_label(lat, "{a,c}")
    assert len(set(lat.M) - lat.mi_above(x)) == 2


def test_reconstruction_from_codings():
    lat = gated_cube_lattice()
    for x in range(lat.n):
        js = sorted(lat.ji_below(x))
        acc = lat.bottom
        for j in js:
            acc = lat.join(acc, j)
        assert acc == x
        ms = sorted(lat.mi_above(x))
        acc = lat.top
        for m in ms:
            acc = lat.meet(acc, m)
        assert acc == x


def test_le_by_coding():
    lat = funnel_lattice()
    a, ab, b = by_label(lat, "{a}"), by_label(lat, "{a,b}"), by_label(lat, "{b}")
    assert lat.le_by_coding(a, a)
    assert lat.le_by_coding(a, ab)
    assert not lat.le_by_coding(a, b)
    assert not lat.le_by_coding(b, a)
    for x in range(lat.n):
        for y in range(lat.n):
            assert lat.le_by_coding(x, y) == lat.le(x, y)


def test_join_coding_formula():
    lat = gated_cube_lattice()
    for x in range(lat.n):
        for y in range(lat.n):
            assert lat.mi_above(lat.join(x, y)) == lat.mi_above(x) & lat.mi_above(y)


# rank structure

def test_ranked_boolean():
    lat = Lattice.boolean(2)
    assert lat.is_ranked and lat.height == 2


def test_pentagon_not_ranked():
    lat = pentagon()
    assert not lat.is_ranked
    assert lat.height == 3  # longest maximal chain


def test_gated_cube_ranked_height_five():
    lat = gated_cube_lattice()
    assert lat.is_ranked and lat.height == 5


# distributivity


def test_boolean_distributive():
    assert Lattice.boolean(3).is_distributive


def test_diamond_not_distributive_with_witness():
    lat = diamond()
    assert not lat.is_distributive
    x, y, z = lat.distributivity_witness()
    lhs = lat.meet(x, lat.join(y, z))
    rhs = lat.join(lat.meet(x, y), lat.meet(x, z))
    assert lhs != rhs


def test_gated_cube_not_distributive():
    lat = gated_cube_lattice()
    assert not lat.is_distributive
    assert lat.distributivity_witness() is not None


# upper local distributivity


def test_uld_examples():
    assert Lattice.boolean(3).is_uld
    assert Lattice.chain(5).is_uld
    assert gated_cube_lattice().is_uld
    assert not pentagon().is_uld
    assert not diamond().is_uld


def test_uld_detectors_agree_everywhere():
    rng = random.Random(43)
    lattices = [pentagon(), diamond(), gated_cube_lattice(), funnel_lattice()]
    lattices += [
        random_convergent_game(rng).enumerate_space().lattice() for _ in range(30)
    ]
    for poset in all_posets_upto(4):
        lattices.append(ideal_lattice(poset))
    for lat in lattices:
        by_cube, by_step = lat.uld_detectors
        assert by_cube == by_step
        lat.is_uld  # must not raise DetectorDisagreement


def test_uld_height_is_m_count():
    for lat in [gated_cube_lattice(), funnel_lattice(), Lattice.boolean(3)]:
        assert lat.is_uld
        assert lat.height == len(lat.M)


def test_distributive_implies_uld():
    for poset in all_posets_upto(4):
        lat = ideal_lattice(poset)
        assert lat.is_distributive
        assert lat.is_uld


# edge labels


def test_edge_labels_chain():
    lat = Lattice.chain(3)
    labels = lat.edge_labels()
    assert labels[(0, 1)] == 0
    assert labels[(1, 2)] == 1


def test_edge_labels_boolean_opposite_edges_match():
    lat = Lattice.boolean(2)
    labels = lat.edge_labels()
    atoms = sorted(lat.upper_covers(lat.bottom))
    u, v = atoms
    assert labels[(lat.bottom, u)] == labels[(v, lat.top)]
    assert labels[(lat.bottom, v)] == labels[(u, lat.top)]


def test_edge_labels_requires_uld():
    with pytest.raises(ValueError):
        pentagon().edge_labels()


def test_edge_labels_funnel_match_fired_vertices():
    space = funnel_game().enumerate_space()
    lat = space.lattice()
    labelling = lat.edge_labels()
    pairing = {}
    for (lo, hi), m in labelling.items():
        fired = lat.cover_labels[(lo, hi)]
        assert pairing.setdefault(m, fired) == fired
    assert len(pairing) == len(lat.M)
    assert set(pairing.values()) == {"a", "b", "c"}


# arrows


def test_arrows_chain():
    lat = Lattice.chain(3)  # 0 < 1 < 2
    arrows = lat.arrow_relations
    assert lat.J == (1, 2) and lat.M == (0, 1)
    assert arrows.updown == {(1, 0), (2, 1)}


def test_arrows_boolean_each_atom_one_partner():
    lat = Lattice.boolean(2)
    part = lat.arrow_partition()
    atoms = lat.upper_covers(lat.bottom)
    for j in atoms:
        assert j in part.partner


def test_arrow_partition_uld_unique_partner():
    for lat in [gated_cube_lattice(), funnel_lattice(), Lattice.boolean(3)]:
        part = lat.arrow_partition()
        assert set(part.partner) == set(lat.J)
        assert len(part.classes) == len(lat.M)
        covered = [j for c in part.classes.values() for j in c]
        assert sorted(covered) == sorted(lat.J)


def test_arrow_partition_funnel_classes():
    part = funnel_lattice().arrow_partition()
    assert part.class_sizes() == (2, 1, 1)


def test_arrow_partition_distributive_singletons():
    for poset in all_posets_upto(4):
        lat = ideal_lattice(poset)
        part = lat.arrow_partition()
        assert part.class_sizes() == (1,) * len(lat.M)
        assert len(lat.J) == len(lat.M)


def test_arrow_partition_chain_singletons():
    part = Lattice.chain(5).arrow_partition()
    assert part.class_sizes() == (1, 1, 1, 1)


def test_arrow_partition_requires_uld():
    with pytest.raises(ValueError):
        pentagon().arrow_partition()


# ideals and the ideal lattice


def test_ideals_antichain():
    poset = Poset(np.eye(2, dtype=bool))
    fam = poset.ideals()
    assert len(fam) == 4
    lat = ideal_lattice(poset)
    assert is_isomorphic(lat, Lattice.boolean(2))


def test_ideals_chain():
    poset = Poset(np.triu(np.ones((2, 2), dtype=bool)))
    assert len(poset.ideals()) == 3
    assert is_isomorphic(ideal_lattice(poset), Lattice.chain(3))


def test_ideals_match_naive_oracle():
    for poset in all_posets_upto(4):
        assert sorted(map(sorted, poset.ideals())) == sorted(
            map(sorted, naive_ideals(poset))
        )


def test_ideals_are_down_closed():
    for poset in all_posets_upto(4):
        for ideal in poset.ideals():
            for x in ideal:
                for y in range(poset.n):
                    if poset.le(y, x):
                        assert y in ideal


def assert_linear_extension(order):
    position = {x: i for i, x in enumerate(order.topo_order)}
    assert sorted(position) == list(range(order.n))
    for x in range(order.n):
        for y in order._upper_covers[x]:
            assert position[x] < position[y], (x, y)


def test_topo_order_is_a_linear_extension(distributive_corpus, space_corpus, coloured_space_corpus):
    # every element comes before each of its upper covers
    for poset in all_posets_upto(4) + distributive_corpus:
        assert_linear_extension(poset)
    for space in space_corpus + coloured_space_corpus:
        assert_linear_extension(space)
        assert_linear_extension(space.lattice())


def assert_ideal_masks_match_the_powerset(poset):
    """All ideals, sorted by (size, value), with or without a cap of their
    count, and refused at one less."""
    masks = [sum(1 << x for x in ideal) for ideal in naive_ideals(poset)]
    expected = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    count = len(expected)
    assert poset.ideal_masks() == expected
    assert poset.ideal_masks(cap=count) == expected
    with pytest.raises(CapExceeded, match=f"^ideal family exceeds cap {count - 1}$"):
        poset.ideal_masks(cap=count - 1)


def test_ideal_masks_match_the_powerset():
    for poset in all_posets_upto(4) + [Poset(np.eye(8, dtype=bool))]:
        assert_ideal_masks_match_the_powerset(poset)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 9))
def test_ideal_masks_match_the_powerset_on_random_dags(seed, n):
    rng = random.Random(seed)
    poset = random_dag_poset(rng, n)
    # shuffled, so that index order need not be a linear extension
    perm = rng.sample(range(n), n)
    shuffled = Poset(dense_leq(poset)[np.ix_(perm, perm)], _checked=True)
    assert_ideal_masks_match_the_powerset(shuffled)


def test_ideal_lattice_always_distributive():
    for poset in all_posets_upto(4):
        assert ideal_lattice(poset).is_distributive


def test_birkhoff_round_trip_distributive():
    candidates = [ideal_lattice(p) for p in all_posets_upto(4)]
    for lat in candidates:
        again = ideal_lattice(lat.meet_irreducible_poset())
        assert is_isomorphic(again, lat)


def test_birkhoff_round_trip_fails_for_funnel():
    lat = funnel_lattice()
    assert not lat.is_distributive
    again = ideal_lattice(lat.meet_irreducible_poset())
    assert again.n == 8  # three incomparable meet-irreducibles
    assert not is_isomorphic(again, lat)


def test_birkhoff_round_trip_on_distributive_space():
    from chipfire.fixtures import relay_chain_game

    lat = relay_chain_game().enumerate_space().lattice()
    assert lat.n == 9
    assert lat.is_distributive
    again = ideal_lattice(lat.meet_irreducible_poset())
    assert again.n == 9
    assert is_isomorphic(again, lat)


# meet-irreducible poset


def test_meet_irreducible_poset_boolean():
    poset = Lattice.boolean(2).meet_irreducible_poset()
    assert poset.n == 2
    assert not poset.le(0, 1) and not poset.le(1, 0)


def test_meet_irreducible_poset_chain():
    poset = Lattice.chain(3).meet_irreducible_poset()
    assert poset.n == 2
    assert poset.le(0, 1)


def test_meet_irreducible_poset_funnel_antichain():
    poset = funnel_lattice().meet_irreducible_poset()
    assert poset.n == 3
    assert all(
        not poset.lt(x, y) for x in range(3) for y in range(3)
    )


# interval


def test_interval_whole():
    lat = gated_cube_lattice()
    assert is_isomorphic(lat.interval(lat.bottom, lat.top), lat)


def test_interval_singleton():
    lat = funnel_lattice()
    assert lat.interval(2, 2).n == 1


def test_interval_funnel_boolean():
    lat = funnel_lattice()
    a, top = by_label(lat, "{a}"), lat.top
    assert is_isomorphic(lat.interval(a, top), Lattice.boolean(2))


def test_interval_bad_endpoints():
    lat = funnel_lattice()
    with pytest.raises(ValueError):
        lat.interval(by_label(lat, "{a}"), by_label(lat, "{b}"))


# ideal quotient


def test_ideal_quotient_distributive_trivial():
    for poset in all_posets_upto(4):
        lat = ideal_lattice(poset)
        quotient = lat.ideal_quotient()
        assert quotient.n == lat.n
        assert is_isomorphic(quotient, lat)


def test_ideal_quotient_gated_cube():
    lat = gated_cube_lattice()
    quotient = lat.ideal_quotient()
    assert quotient.n == 23
    assert is_isomorphic(quotient, lat)


def test_ideal_quotient_chain():
    assert is_isomorphic(Lattice.chain(4).ideal_quotient(), Lattice.chain(4))


def test_ideal_quotient_funnel():
    lat = funnel_lattice()
    assert is_isomorphic(lat.ideal_quotient(), lat)


def test_ideal_quotient_requires_uld():
    with pytest.raises(ValueError):
        diamond().ideal_quotient()


# isomorphism


def test_isomorphism_self_identity_among_witnesses():
    lat = gated_cube_lattice()
    mapping = find_isomorphism(lat, lat)
    assert mapping is not None
    perm, leq = np.array(mapping), dense_leq(lat)
    assert np.array_equal(leq, leq[np.ix_(perm, perm)])


def test_isomorphism_chain_vs_boolean():
    assert not is_isomorphic(Lattice.chain(4), Lattice.boolean(2))


def test_isomorphism_random_relabelling():
    rng = random.Random(77)
    for _ in range(10):
        lat = random_convergent_game(rng, max_vertices=5).enumerate_space().lattice()
        perm = list(range(lat.n))
        rng.shuffle(perm)
        before = dense_leq(lat)
        leq = np.zeros_like(before)
        for i in range(lat.n):
            for j in range(lat.n):
                leq[perm[i], perm[j]] = before[i, j]
        other = Lattice(leq, _checked=True)
        mapping = find_isomorphism(lat, other)
        assert mapping is not None
        back = np.array(mapping)
        assert np.array_equal(before, dense_leq(other)[np.ix_(back, back)])


def test_isomorphism_detects_difference():
    # same size, same height, different shape
    a = ideal_lattice(Poset(np.eye(3, dtype=bool)))  # boolean 3
    covers = [(0, 1), (1, 2), (2, 7), (0, 3), (3, 4), (4, 7), (0, 5), (5, 6), (6, 7)]
    b = Lattice.from_covers(8, covers)
    assert a.n == b.n == 8
    assert not is_isomorphic(a, b)


# arrow witness report


def test_arrow_witnesses_boolean():
    report = arrow_witness_report(Lattice.boolean(3))
    assert report.down_ok and report.updown_ok and report.up_ok
    assert report.passed


def test_arrow_witnesses_gated_cube():
    report = arrow_witness_report(gated_cube_lattice())
    assert report.down_ok and report.updown_ok and report.up_ok


def test_arrow_witnesses_pentagon():
    report = arrow_witness_report(pentagon())
    assert report.down_ok and report.up_ok
    assert report.updown_ok is None  # not ULD, strengthening not asserted
    assert report.passed
