"""The one-loop ``parse_lattice`` against the line-by-line parser it replaced.

``helpers.keyword_parse_lattice`` reads each line through ``formats._lines``
and ``formats._split_keyword``. On generated lattice files both parsers must
build equal labels, covers and up-sets, or raise the same exception with the
same text. The files hold real lattices and random orders with shuffled,
repeated and implied covers, comments, blank lines, stray whitespace and line
ends, and mutated keywords, token counts and names.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipfire.fixtures import diamond, gated_cube_lattice, pentagon
from chipfire.formats import parse_lattice, serialize_lattice
from chipfire.lattice import Lattice

from helpers import keyword_parse_lattice

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
