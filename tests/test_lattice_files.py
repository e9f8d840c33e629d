"""Lattice files and the verdicts read off them.

Every written lattice parses back to its labels and covers; the parser's
errors, line numbers, comments, whitespace and line ends are pinned in
``tests/test_formats.py``.

A lattice passes ``Lattice._antimatroid``, the certificate read off its
meet-irreducible codes, or falls back to the containment scan and the
subset-join walk. ``Scanned`` refuses every certificate, so it runs the
fallback on every input: on drawn cover lists both must give the same error
text or the same verdicts, and the certificate must accept exactly the lattices
that the scan and the walk call ULD. Their covers per element and the
cover-step witness are checked against the order's transitive reduction.
Parsing holds one copy of the up-sets: ``from_covers`` makes them reflexive
in place. It holds one copy of the covers too, each element's upper covers:
after every verdict of ``chipfire check`` no pair tuple is stored beside them.
"""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import cli
from chipfire.errors import NotALatticeError
from chipfire.fixtures import diamond, gated_cube_lattice, pentagon
from chipfire.formats import parse_lattice, parse_lattice_file, serialize_lattice
from chipfire.lattice import Lattice, Poset, arrow_witness_report, ideal_lattice
from chipfire.transforms import coloured_from_uld

from helpers import (
    antimatroid_families,
    antimatroids,
    assert_adjacencies_match,
    dense_leq,
    naive_arrow_witness_report,
    naive_cover_pairs,
    naive_not_a_lattice_message,
    peak_traced,
)

LATTICES = [
    Lattice.chain(1), Lattice.chain(4), Lattice.boolean(2), Lattice.boolean(3),
    pentagon(), diamond(), gated_cube_lattice(),
]


def test_serialized_lattices_parse_alike():
    for lat in LATTICES + [Lattice.boolean(6)]:
        parsed = parse_lattice(serialize_lattice(lat))
        assert (parsed.labels, parsed.cover_pairs) == (lat.labels, lat.cover_pairs)


class Scanned(Lattice):
    """A lattice verified by the containment scan, its ULD verdict by the
    subset-join walk: the certificate refuses every input."""

    _antimatroid = False


def product(a, b):
    """(n, covers) of the product of two lattices, element x * b.n + y."""
    covers = [(x * b.n + y, hi * b.n + y) for x, hi in a.cover_pairs for y in range(b.n)]
    covers += [(x * b.n + y, x * b.n + hi) for x in range(a.n) for y, hi in b.cover_pairs]
    return a.n * b.n, covers


@st.composite
def cover_lists(draw):
    """(n, covers) of an ideal lattice, an antimatroid, a coloured game's
    space or N5 times a boolean lattice, now and then with implied or
    repeated covers added, a cover dropped or a second top added."""
    kind = draw(st.sampled_from(["ideals", "antimatroid", "coloured", "n5"]))
    if kind == "ideals":
        size = draw(st.integers(1, 6))
        pairs = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))))
        lat = ideal_lattice(Poset.from_covers(size, [(a, b) for a, b in pairs if a < b]))
        n, covers = lat.n, list(lat.cover_pairs)
    elif kind == "antimatroid":
        lat = draw(antimatroids())
        n, covers = lat.n, list(lat.cover_pairs)
    elif kind == "coloured":
        space = coloured_from_uld(draw(antimatroids())).enumerate_space()
        n, covers = space.n, list(space.cover_pairs)
    else:
        n, covers = product(pentagon(), Lattice.boolean(draw(st.integers(0, 3))))
    mutation = draw(st.sampled_from([None, "implied", "repeated", "dropped", "second top"]))
    if mutation == "implied":
        covers += [(lo, top) for lo, hi in covers for mid, top in covers if mid == hi][:3]
    elif mutation == "repeated" and covers:
        covers += draw(st.lists(st.sampled_from(covers), min_size=1, max_size=3))
    elif mutation == "dropped" and covers:
        del covers[draw(st.integers(0, len(covers) - 1))]
    elif mutation == "second top":
        covers.append((draw(st.integers(0, n - 1)), n))
        n += 1
    return n, draw(st.permutations(covers))


def verdicts(cls, n, covers):
    """The error text, or what ``chipfire check`` reads off the lattice."""
    try:
        lat = cls.from_covers(n, covers)
    except NotALatticeError as exc:
        return str(exc)
    classes = lat.arrow_partition().class_sizes() if lat.is_uld else None
    return (
        lat.cover_pairs, lat._up_masks, lat.bottom, lat.top, lat._rank_info, lat.J, lat.M,
        lat.uld_detectors, lat.is_uld, lat.is_distributive, classes, arrow_witness_report(lat),
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cover_lists())
def test_certificate_agrees_with_the_scan_and_the_walk(case):
    n, covers = case
    assert verdicts(Lattice, n, covers) == verdicts(Scanned, n, covers)
    try:
        scanned = Scanned.from_covers(n, covers)
    except NotALatticeError:
        return
    lat = Lattice.from_covers(n, covers)
    assert lat._antimatroid == (scanned._hypercube_witness() is None)
    assert arrow_witness_report(lat) == naive_arrow_witness_report(lat)
    assert_adjacencies_match(lat, dense_leq(lat))


def test_check_reads_a_certified_lattice_without_up_set_index_or_down_sets(
    tmp_path, monkeypatch, capsys
):
    """``chipfire check`` on boolean 2^9 read from text prints every verdict
    and leaves no up-set index and no down-set on the lattice. A second run
    with both made to raise prints the same: the containment scan, the
    subset-join walk (which reads both before its loop) and the arrow
    witness report never touch them."""
    path = tmp_path / "b9.lat"
    path.write_text(serialize_lattice(Lattice.boolean(9)))
    parsed = []

    def parse(name):
        parsed.append(parse_lattice_file(name))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_lattice_file", parse)
    assert cli.main(["check", str(path), "--dot", str(tmp_path / "b9.dot")]) == 0
    out = capsys.readouterr().out
    assert "ULD: yes" in out and "up(interpretive)=yes" in out
    assert {"_up_index", "_down_masks", "_down_index"}.isdisjoint(parsed[0].__dict__)

    def sentinel(self):
        raise AssertionError("a certified lattice read its up-set index or its down-sets")

    monkeypatch.setattr(Lattice, "_up_index", property(sentinel))
    monkeypatch.setattr(Poset, "_down_masks", property(sentinel))
    assert cli.main(["check", str(path), "--dot", str(tmp_path / "b9.dot")]) == 0
    assert capsys.readouterr().out == out


def test_parsing_holds_one_copy_of_the_up_sets():
    text = serialize_lattice(Lattice.boolean(12))
    lat, held, peak = peak_traced(lambda: parse_lattice(text))
    up = sys.getsizeof(lat._up_masks) + sum(map(sys.getsizeof, lat._up_masks))
    assert peak - held <= 2 * up, (peak - held, up)


def test_a_parsed_lattice_keeps_only_its_upper_covers():
    for lat in (Lattice.boolean(4), gated_cube_lattice(), pentagon()):
        parsed = parse_lattice(serialize_lattice(lat))
        for order in (lat, parsed):  # built from covers, then read from text
            order.is_ranked, order.height, order.is_distributive, order.uld_detectors
            order.J, order.M
            if order.is_uld:
                order.arrow_partition()
            arrow_witness_report(order)
            assert "cover_pairs" not in vars(order), order.labels


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(antimatroid_families(), st.data())
def test_certificate_on_an_antimatroid_with_one_set_dropped_or_added(family, data):
    """By inclusion, from its true covers, shuffled: the scan's verdict and text."""
    toggled = data.draw(st.sampled_from(family) | st.integers(0, 31))  # a set dropped or added
    masks = data.draw(st.permutations(sorted(set(family) ^ {toggled})))
    n, labels = len(masks), [format(m, "05b") for m in masks]
    leq = np.array([[a & ~b == 0 for b in masks] for a in masks], dtype=bool).reshape(n, n)
    poset = Poset(leq, labels=labels, _checked=True)
    expected = naive_not_a_lattice_message(poset) if n else "not a lattice: empty element set"
    try:
        Lattice.from_covers(n, naive_cover_pairs(leq), labels=labels)
    except NotALatticeError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
