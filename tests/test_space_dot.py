"""Shot labels and the DOT text of a configuration space.

``ConfigSpace.labels`` joins words from one table per vertex, and
``formats.space_to_dot`` escapes each vertex name once and reads its edge
lines off ``ups`` and ``move_masks``. The differential tests compare both,
byte for byte, with ``helpers``' oracles, which format each token apart and
read each edge's fired vertex off the firing vectors, on the bundled games,
the corpora and generated games whose labels are counted.
The edge cases are names that need escaping, a one-state space and a game
with no vertices. The structural tests pin what the writers leave out: no
cover triples, one escape per name or label, and no labels without ``--dot``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import cli, formats
from chipfire.engine import Cfg, ConfigSpace
from chipfire.fixtures import (
    funnel_game,
    pentagon,
    relay_chain_game,
    sand_pile_21_game,
    shared_gate_game,
    split_track_game,
)
from chipfire.formats import lattice_to_dot, parse_game, space_to_dot
from chipfire.multigraph import Multigraph

from helpers import coloured_games, convergent_games, data_path, oracle_labels, oracle_space_to_dot


def is_counted(space):
    return any(c > 1 for vec in space.vectors for c in vec)


def assert_matches_oracle(game):
    """The DOT text of a fresh space, written first, and then its labels
    equal the oracle's; returns the space."""
    space = game.enumerate_space()
    dot = space_to_dot(space)
    assert dot == oracle_space_to_dot(space)
    assert space.labels == oracle_labels(space)
    return space


def test_bundled_spaces_match_the_oracle():
    for game in (funnel_game(), shared_gate_game(), split_track_game()):
        assert not is_counted(assert_matches_oracle(game))
    for game in (relay_chain_game(), sand_pile_21_game()):
        assert is_counted(assert_matches_oracle(game))


def test_corpus_spaces_match_the_oracle(game_corpus):
    spaces = [assert_matches_oracle(game) for game in game_corpus]
    assert any(map(is_counted, spaces)) and not all(map(is_counted, spaces))


def test_coloured_corpus_spaces_match_the_oracle(coloured_corpus):
    for game in coloured_corpus:
        assert_matches_oracle(game)


@st.composite
def counted_games(draw):
    """``convergent_games`` with one more loop, one more parallel edge out of
    vertex 0, and twice vertex 0's out-degree in extra chips at vertex 0: it
    fires at least twice, so the labels carry counts."""
    game = draw(convergent_games())
    n, mult = game.graph.n, dict(game.graph.mult)
    u = draw(st.integers(0, n - 2))
    mult[(u, u)] = mult.get((u, u), 0) + 1
    out = min(edge for edge in mult if edge[0] == 0 and edge[1] > 0)  # vertex 0's chain edge
    mult[out] += 1
    chips = list(game.init)
    chips[0] += 2 * sum(k for (a, _), k in mult.items() if a == 0)
    return Cfg(Multigraph(game.graph.names, mult), tuple(chips))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(counted_games())
def test_generated_counted_spaces_match_the_oracle(game):
    assert is_counted(assert_matches_oracle(game))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_generated_coloured_spaces_match_the_oracle(game):
    assert_matches_oracle(game)


# edge cases

ESCAPED_SPACE_DOT = r"""digraph configuration_space {
  rankdir=BT;
  node [shape=box];
  n0 [label="{}"];
  n1 [label="{a\"b:1}"];
  n2 [label="{a\"b:1,c\\d:1}"];
  n3 [label="{a\"b:2}"];
  n4 [label="{a\"b:2,c\\d:1}"];
  n5 [label="{a\"b:2,c\\d:2}"];
  n0 -> n1 [label="a\"b"];
  n1 -> n2 [label="c\\d"];
  n1 -> n3 [label="a\"b"];
  n2 -> n4 [label="a\"b"];
  n3 -> n4 [label="c\\d"];
  n4 -> n5 [label="c\\d"];
}
"""

ONE_STATE_DOT = """digraph configuration_space {
  rankdir=BT;
  node [shape=box];
  n0 [label="{}"];
}
"""


def space_dot_cli(text, tmp_path, capsys):
    """``chipfire space --dot`` on a game file holding ``text``: its exit
    status, stdout, stderr and the DOT text written."""
    game, dot = tmp_path / "game.cfg", tmp_path / "space.dot"
    game.write_text(text)
    status = cli.main(["space", str(game), "--dot", str(dot)])
    out, err = capsys.readouterr()
    return status, out, err, dot.read_text()


def test_space_dot_escapes_quotes_and_backslashes_in_names(tmp_path, capsys):
    text = 'vertices: a"b c\\d s\nedge: a"b c\\d 1\nedge: c\\d s 1\nchips: a"b=2\n'
    status, out, err, dot = space_dot_cli(text, tmp_path, capsys)
    assert (status, err, dot) == (0, "", ESCAPED_SPACE_DOT)
    assert out.startswith("elements: 6\nheight: 4\n")
    assert dot == oracle_space_to_dot(parse_game(text).enumerate_space())


def test_space_dot_of_one_state(tmp_path, capsys):
    text = "vertices: a b\nedge: a b 1\nchips: b=3\n"
    status, out, err, dot = space_dot_cli(text, tmp_path, capsys)
    assert (status, err, dot) == (0, "", ONE_STATE_DOT)
    assert out.startswith("elements: 1\nheight: 0\n")


def test_space_of_a_game_without_vertices_is_labelled_empty():
    space = Cfg(Multigraph((), {}), ()).enumerate_space()
    assert space.labels == ("{}",) == oracle_labels(space)
    assert space_to_dot(space) == ONE_STATE_DOT == oracle_space_to_dot(space)


# structural guards


def counted_quotes(monkeypatch):
    """Record every label ``formats._quote`` escapes from now on."""
    quoted = []
    original = formats._quote

    def quote(label):
        quoted.append(label)
        return original(label)

    monkeypatch.setattr(formats, "_quote", quote)
    return quoted


def refuse(*args, **kwargs):
    raise AssertionError("refused")


def test_space_dot_reads_no_cover_triples(monkeypatch):
    space = sand_pile_21_game().enumerate_space()
    expected = oracle_space_to_dot(space)
    monkeypatch.setattr(ConfigSpace, "covers", property(refuse))
    assert space_to_dot(space) == expected


def test_space_dot_escapes_each_name_once(monkeypatch):
    space = sand_pile_21_game().enumerate_space()
    quoted = counted_quotes(monkeypatch)
    space_to_dot(space)
    assert sorted(quoted) == sorted(space.names)


def test_lattice_dot_escapes_each_label_once(monkeypatch):
    spm = sand_pile_21_game().enumerate_space().lattice()
    quoted = counted_quotes(monkeypatch)
    for lattice, edge_labels in ((pentagon(), False), (spm, False), (spm, True)):
        quoted.clear()
        lattice_to_dot(lattice, edge_labels=edge_labels)
        covers = [] if edge_labels else set(lattice.cover_labels.values())
        assert sorted(quoted) == sorted([*lattice.labels, *covers])


def test_space_without_dot_builds_no_labels(monkeypatch, capsys):
    monkeypatch.setattr(ConfigSpace, "labels", property(refuse))
    for args in ([data_path("sand_pile_21.cfg")], ["--coloured", data_path("shared_gate.ccfg")]):
        assert cli.main(["space", *args]) == 0
    assert capsys.readouterr().err == ""
    with pytest.raises(AssertionError, match="refused"):
        space_to_dot(funnel_game().enumerate_space())
