"""The one-loop ``parse_lattice`` against the line-by-line parser it replaced.

``helpers.keyword_parse_lattice`` reads each line through its own copies of
the ``_lines`` and ``_split_keyword`` helpers the library once had, so it
shares no line handling with ``formats``. On generated lattice files both
parsers must build equal labels, covers and up-sets, or raise the same
exception with the same text. The files hold real lattices and random orders
with shuffled, repeated and implied covers, comments, blank lines, stray
whitespace and line ends, and mutated keywords, token counts and names.

A lattice passes ``Lattice._antimatroid``, the certificate read off its
meet-irreducible codes, or falls back to the containment scan and the
subset-join walk. ``Scanned`` refuses every certificate, so it runs the
fallback on every input: on drawn cover lists both must give the same error
text or the same verdicts, and the certificate must accept exactly the lattices
that the scan and the walk call ULD. Their covers per element and the
cover-step witness are checked against the order's transitive reduction.
Parsing holds one copy of the up-sets: ``from_covers`` makes them reflexive
in place.
"""

import itertools
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipfire import cli
from chipfire.errors import NotALatticeError
from chipfire.fixtures import diamond, gated_cube_lattice, pentagon
from chipfire.formats import parse_lattice, parse_lattice_file, serialize_lattice
from chipfire.lattice import Lattice, Poset, _family_lattice, arrow_witness_report, ideal_lattice
from chipfire.transforms import coloured_from_uld

from helpers import (
    assert_adjacencies_match,
    dense_leq,
    keyword_parse_lattice,
    naive_arrow_witness_report,
    peak_traced,
)

LATTICES = [
    Lattice.chain(1), Lattice.chain(4), Lattice.boolean(2), Lattice.boolean(3),
    pentagon(), diamond(), gated_cube_lattice(),
]
NAMES = ["a", "b", "c", "x1", "y_2", "top", "bot", "q0_1", "{a,b}", "e=1", "é"]
SPACE = st.sampled_from(["", " ", "  ", "\t", " \t "])


@st.composite
def orders(draw):
    """(labels, covers): a small lattice, or a random order whose pairs go up
    a shuffled ranking, flipped now and then into a cycle."""
    if draw(st.booleans()):
        lat = draw(st.sampled_from(LATTICES))
        return list(lat.labels), list(lat.cover_pairs)
    n = draw(st.integers(0, 7))
    labels = draw(st.lists(st.sampled_from(NAMES), min_size=n, max_size=n, unique=True))
    rank = draw(st.permutations(range(n)))
    pairs = []
    if n >= 2:
        raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
        pairs = [(rank[min(a, b)], rank[max(a, b)]) for a, b in raw if a != b]
    if pairs and draw(st.integers(0, 4)) == 0:
        pairs[0] = pairs[0][::-1]
    return labels, pairs


def decorate(draw, line):
    """The line with stray whitespace and, sometimes, a trailing comment."""
    out = draw(SPACE) + line + draw(SPACE)
    if draw(st.integers(0, 3)) == 0:
        out += "#" + draw(st.sampled_from(["", " note", " cover: a b", "#"]))
    return out


def mutate(draw, keyword, tokens, names):
    """A keyword and tokens, broken: a wrong or missing keyword or colon, a
    token dropped or added, one or every name unknown."""
    kind = draw(st.sampled_from(["keyword", "no colon", "bare", "drop", "add", "unknown", "all unknown"]))
    if kind == "keyword":
        keyword = draw(st.sampled_from(["Cover", "covers", "edge", "", "co ver", "elements", "cover"]))
    elif kind == "no colon":
        return " ".join([keyword, *tokens])
    elif kind == "bare":
        return keyword
    elif kind == "drop":
        tokens = tokens[:-1]
    elif kind == "add":
        tokens = tokens + [draw(st.sampled_from(names + ["zz"]))]
    elif kind == "unknown" and tokens:
        tokens = list(tokens)
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(["zz", "a:", "#"]))
    elif kind == "all unknown":
        tokens = draw(st.permutations(["zz", "a:", "yy"]))[:len(tokens)]
    sep = draw(st.sampled_from([":", ": ", " : ", ":\t"]))
    return keyword + sep + " ".join(tokens)


@st.composite
def lattice_files(draw):
    labels, pairs = draw(orders())
    if len(labels) >= 3 and draw(st.booleans()):  # implied pairs: shortcuts of two covers
        pairs += [(lo, hi2) for (lo, hi), (lo2, hi2) in itertools.product(pairs, pairs) if hi == lo2][:3]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # repeats
        pairs = draw(st.permutations(pairs))
    lines = [("cover", [labels[lo], labels[hi]]) for lo, hi in pairs]
    element_tokens = list(labels)
    if labels and draw(st.integers(0, 9)) == 0:
        element_tokens.append(draw(st.sampled_from(labels)))  # a duplicate name
    at = 0 if draw(st.integers(0, 4)) else draw(st.integers(0, len(lines)))
    lines.insert(at, ("elements", element_tokens))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), ("elements", list(labels)))
    if draw(st.integers(0, 9)) == 0:
        del lines[at]  # no elements line
    mutated = set()
    if draw(st.booleans()):
        mutated = draw(st.sets(st.integers(0, max(len(lines) - 1, 0)), min_size=1, max_size=2))
    text_lines = []
    for i, (keyword, tokens) in enumerate(lines):
        if i in mutated:
            line = mutate(draw, keyword, tokens, list(labels))
        else:
            line = keyword + draw(st.sampled_from([": ", ":", " : "])) + " ".join(tokens)
        for _ in range(draw(st.integers(0, 1))):  # blank and comment-only lines
            text_lines.append(draw(st.sampled_from(["", "   ", "# comment", "\t# elements: a"])))
        text_lines.append(decorate(draw, line))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(text_lines) + draw(st.sampled_from(["", end]))


def outcome(parse, text):
    try:
        lat = parse(text, path="l.lat")
    except ValueError as exc:
        return type(exc), str(exc)
    return lat.labels, lat.cover_pairs, lat._up_masks


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(lattice_files())
@example("elements: a b\ncover # a: b\n")
@example("elements: a b\n  cover\t\r\nelements\n")
@example("elements: a b\ncover: zz yy\n")
@example("elements: a b\r\ncover: a b\r\ncover: b a\r\ncover: a zz\r\n")
def test_one_loop_parser_matches_the_line_by_line_parser(text):
    assert outcome(parse_lattice, text) == outcome(keyword_parse_lattice, text)


def test_serialized_lattices_parse_alike():
    for lat in LATTICES + [Lattice.boolean(6)]:
        text = serialize_lattice(lat)
        assert outcome(parse_lattice, text) == outcome(keyword_parse_lattice, text)
        assert outcome(parse_lattice, text)[1] == lat.cover_pairs


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
def antimatroids(draw):
    """The union closure of the prefixes of a few words over at most 5
    letters, an antimatroid, as a lattice of sets."""
    k = draw(st.integers(1, 5))
    words = draw(st.lists(st.permutations(range(k)), min_size=1, max_size=4))
    family = {0}
    for word in words:
        prefix = 0
        for letter in word[:draw(st.integers(0, k))]:
            prefix |= 1 << letter
            family |= {prefix | member for member in family}
    members = sorted(family, key=lambda m: (m.bit_count(), m))
    return _family_lattice(members, members, "abcde")


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
        n, covers = space.n, [(lo, hi) for lo, hi, _ in space.covers]
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
