import pytest

from chipfire.cli import main
from chipfire.coloured import ColouredCfg
from chipfire.engine import Cfg
from chipfire.errors import NotALatticeError, ParseError
from chipfire.fixtures import (
    funnel_game,
    gated_cube_lattice,
    pentagon,
    relay_chain_game,
    shared_gate_game,
)
from chipfire.formats import (
    coloured_game_to_dot,
    lattice_to_dot,
    parse_game,
    parse_lattice,
    serialize_game,
    serialize_lattice,
    space_to_dot,
)
from chipfire.lattice import Lattice
from chipfire.multigraph import ColouredMultigraph, Multigraph


def test_parse_classical_game():
    game = parse_game(
        """
        vertices: a b c
        edge: a b
        edge: b c 2
        chips: a=3 c=1
        """
    )
    assert isinstance(game, Cfg)
    assert game.graph.names == ("a", "b", "c")
    assert game.graph.multiplicity(0, 1) == 1
    assert game.graph.multiplicity(1, 2) == 2
    assert game.init == (3, 0, 1)


def test_parse_repeated_edges_add_up():
    game = parse_game("vertices: a b\nedge: a b 1\nedge: a b 2\n")
    assert game.graph.multiplicity(0, 1) == 3


def test_parse_coloured_game():
    game = parse_game(
        """
        vertices: x y
        edge: x y 1 colour=1
        edge: x y 1 colour=2
        chips: x=2@1,1@2
        """
    )
    assert isinstance(game, ColouredCfg)
    assert game.colours == (1, 2)
    assert game.init[1] == (2, 0)
    assert game.init[2] == (1, 0)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_game("vertices: a b\nedge: a zz 1\n", path="demo.cfg")
    assert "demo.cfg:2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_game("edge: a b 1\n")
    assert ":1" in str(err.value)
    with pytest.raises(ParseError):
        parse_game("vertices: a b\nedge: a b q\n")
    with pytest.raises(ParseError):
        parse_game("vertices: a a\n")
    with pytest.raises(ParseError):
        parse_game("vertices: a b\nwhat: ever\n")


# Every ParseError of the line loop of a game file, with its text and
# ``path:lineno``; a comment or blank line before the failing line still
# counts, and within a line the multiplicity is read before the names.
GAME_ERRORS = {
    "no colon": ("vertices: a b\nchips a=1\n", "g.cfg:2: expected 'keyword: ...', got 'chips a=1'"),
    "no colon, comment stripped": (
        "# game\n\nvertices: a b  # two\n   edge a b # a: b\n",
        "g.cfg:4: expected 'keyword: ...', got 'edge a b'",
    ),
    "unknown keyword": ("vertices: a b\nwhat: ever\n", "g.cfg:2: unknown keyword 'what'"),
    "unknown keyword before vertices": ("# x\nedges: a b\nvertices: a b\n", "g.cfg:2: unknown keyword 'edges'"),
    "keyword case": ("vertices: a b\nEdge: a b\n", "g.cfg:2: unknown keyword 'Edge'"),
    "empty keyword": ("vertices: a b\n: a b\n", "g.cfg:2: unknown keyword ''"),
    "duplicate vertices line": ("vertices: a b\n\nvertices: c\n", "g.cfg:3: duplicate vertices line"),
    "empty vertices line": ("# none\nvertices:   # here\n", "g.cfg:2: vertices line needs at least one name"),
    "duplicate vertex name": ("\nvertices: a b a\n", "g.cfg:2: duplicate vertex name"),
    "edge before vertices line": ("# e\nedge: a b\nvertices: a b\n", "g.cfg:2: edge before vertices line"),
    "chips before vertices line": ("\nchips: a=1\nvertices: a b\n", "g.cfg:2: chips before vertices line"),
    "bad colour": ("vertices: a b\nedge: a b 1 colour=x\n", "g.cfg:2: bad colour in 'colour=x'"),
    "empty colour": ("vertices: a b\nedge: a b colour=\n", "g.cfg:2: bad colour in 'colour='"),
    "edge with one name": ("vertices: a b\nedge: a\n", "g.cfg:2: edge needs 'edge: U V [K] [colour=C]'"),
    "edge with no name": ("vertices: a b\nedge: colour=1\n", "g.cfg:2: edge needs 'edge: U V [K] [colour=C]'"),
    "edge with four tokens": ("vertices: a b\nedge: a b 1 2\n", "g.cfg:2: edge needs 'edge: U V [K] [colour=C]'"),
    "bad multiplicity": ("vertices: a b\n# m\nedge: a b q\n", "g.cfg:3: bad multiplicity 'q'"),
    "bad multiplicity before unknown vertex": ("vertices: a b\nedge: z b q\n", "g.cfg:2: bad multiplicity 'q'"),
    "negative multiplicity": ("vertices: a b\nedge: a b -1 colour=2\n", "g.cfg:2: negative multiplicity"),
    "unknown tail": ("vertices: a b\nedge: zz b 1\n", "g.cfg:2: unknown vertex 'zz'"),
    "unknown head": ("vertices: a b\nedge: a b\n\nedge: a zz 1\n", "g.cfg:4: unknown vertex 'zz'"),
    "unknown vertex before negative multiplicity": (
        "vertices: a b\nedge: a zz -1\n",
        "g.cfg:2: unknown vertex 'zz'",
    ),
    "unknown vertex in chips": ("vertices: a b\nchips: a=1 zz=2\n", "g.cfg:2: unknown vertex 'zz'"),
    "unknown vertex holding '='": ("vertices: a b\nchips: a=b=1\n", "g.cfg:2: unknown vertex 'a=b'"),
    "bad chip entry": ("vertices: a b\n# c\nchips: a1\n", "g.cfg:3: bad chip entry 'a1'"),
    "bad chip count": ("vertices: a b\nchips: a=1 b=x\n", "g.cfg:2: bad chip entry 'b=x'"),
}


@pytest.mark.parametrize("case", GAME_ERRORS)
def test_game_parse_errors_carry_text_and_line(case):
    text, message = GAME_ERRORS[case]
    assert parse_error(text) == message


def test_parse_mixed_colouring_rejected():
    with pytest.raises(ParseError):
        parse_game("vertices: a b\nedge: a b 1 colour=1\nedge: b a 1\n")
    with pytest.raises(ParseError):
        parse_game("vertices: a b\nedge: a b 1 colour=1\nchips: a=1\n")


def test_game_round_trip_classical():
    game = funnel_game()
    assert parse_game(serialize_game(game)) == game


def test_game_round_trip_coloured():
    game = shared_gate_game()
    again = parse_game(serialize_game(game))
    assert again.graph == game.graph
    assert again.init == game.init


@pytest.mark.parametrize(
    "text",
    [
        "vertices: a b\nedge: a b 0 colour=1\nchips: a=1@1\n",
        "vertices: a b\nedge: a b 0 colour=1\nedge: a b 1 colour=2\n",
    ],
)
def test_colour_without_edges_round_trips(text):
    # the graph drops zero multiplicities, so colour 1 has an empty layer
    game = parse_game(text)
    assert game.graph.layers[1] == {}
    again = parse_game(serialize_game(game))
    assert again.colours == game.colours
    assert again == game


@pytest.mark.parametrize(
    "game",
    [
        Cfg(Multigraph((), {}), ()),
        ColouredCfg(ColouredMultigraph((), {}), {}),
        ColouredCfg(ColouredMultigraph((), {1: {}}), {1: ()}),
    ],
    ids=["classical", "coloured", "coloured-edgeless-colour"],
)
def test_serialize_game_refuses_a_game_without_vertices(game):
    # a vertices line needs at least one name, so no file reads back as this game
    with pytest.raises(ValueError, match="^a game without vertices cannot be written$"):
        serialize_game(game)
    with pytest.raises(ParseError, match="vertices line needs at least one name"):
        parse_game("vertices: \nchips: \n")


def test_serialize_game_refuses_a_coloured_game_without_colours():
    # its file would be a vertices line alone, which reads back as classical
    game = ColouredCfg(ColouredMultigraph(("a",), {}), {})
    with pytest.raises(ValueError, match="^a coloured game without colours cannot be written$"):
        serialize_game(game)
    assert isinstance(parse_game("vertices: a\n"), Cfg)


def test_vertex_names_holding_equals_signs_round_trip():
    # a chip entry splits on its last '=': counts and colours hold none
    game = Cfg(Multigraph(("x=", "t"), {(0, 1): 1}), (1, 0))
    assert serialize_game(game) == "vertices: x= t\nedge: x= t 1\nchips: x==1 t=0\n"
    assert parse_game(serialize_game(game)) == game
    coloured = ColouredCfg(ColouredMultigraph(("x=", "t"), {1: {(0, 1): 1}}), {1: (1, 0)})
    text = serialize_game(coloured)
    assert "chips: x==1@1\n" in text
    again = parse_game(text)
    assert again.graph == coloured.graph
    assert again.init == coloured.init


BAD_NAMES = ["x#y", "a b", "", "a\tb", "a\nb", "a\x1cb", "a\u2028b"]


@pytest.mark.parametrize("name", BAD_NAMES)
def test_serialize_game_rejects_names_a_file_cannot_hold(name):
    classical = Cfg(Multigraph((name, "t"), {(0, 1): 1}), (1, 0))
    coloured = ColouredCfg(ColouredMultigraph((name, "t"), {1: {(0, 1): 1}}), {1: (1, 0)})
    for game in (classical, coloured):
        with pytest.raises(ValueError) as err:
            serialize_game(game)
        assert str(err.value).startswith(f"vertex {name!r} cannot be written")


@pytest.mark.parametrize("name", BAD_NAMES)
def test_serialize_lattice_rejects_labels_a_file_cannot_hold(name):
    lat = Lattice.from_covers(2, [(0, 1)], labels=("0", name))
    with pytest.raises(ValueError) as err:
        serialize_lattice(lat)
    assert str(err.value).startswith(f"label {name!r} cannot be written")


def test_run_on_a_vertex_name_holding_an_equals_sign(tmp_path, capsys):
    path = tmp_path / "eq.cfg"
    path.write_text("vertices: a=b t\nedge: a=b t 1\nchips: a=b=1\n")
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "final: a=b=0 t=1" in out
    assert "fired: a=b=1 t=0" in out


def test_parse_lattice_round_trip():
    lat = gated_cube_lattice()
    again = parse_lattice(serialize_lattice(lat))
    assert again.labels == lat.labels
    assert again.cover_pairs == lat.cover_pairs


def test_parse_lattice_drops_repeated_and_implied_covers():
    lat = parse_lattice(
        "elements: z a b t\n"
        "cover: z a\ncover: z b\ncover: a t\ncover: b t\n"
        "cover: z a\n"  # repeated
        "cover: z t\n"  # implied by z < a < t
    )
    assert lat.cover_pairs == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert lattice_to_dot(lat).count("->") == 4


def test_parse_lattice_rejects_non_lattice():
    with pytest.raises(NotALatticeError):
        parse_lattice("elements: a b\n")


def test_parse_lattice_rejects_cycle():
    with pytest.raises(ParseError):
        parse_lattice("elements: a b\ncover: a b\ncover: b a\n")


def test_space_dot_deterministic_and_labelled():
    space = funnel_game().enumerate_space()
    dot = space_to_dot(space)
    assert dot == space_to_dot(space)
    assert "rankdir=BT" in dot
    assert '"{a,b,c}"' in dot
    assert '[label="a"]' in dot


def test_lattice_dot_edge_labels():
    lat = funnel_game().enumerate_space().lattice()
    dot = lattice_to_dot(lat, edge_labels=True)
    assert dot.count("->") == len(lat.cover_pairs)
    assert '-> n1 [label="{a,c}"]' in dot


def test_coloured_game_dot_marks_open_vertices():
    game = shared_gate_game()
    state = game.open_vertex(game.initial_state(), game.graph.vertex("a"))
    dot = coloured_game_to_dot(game, state)
    assert dot.count("fillcolor=gray85") == 1
    assert 'color=red3' in dot or 'color=black' in dot


# The exact bytes of each DOT writer on the bundled examples.
FUNNEL_SPACE_DOT = """\
digraph configuration_space {
  rankdir=BT;
  node [shape=box];
  n0 [label="{}"];
  n1 [label="{b}"];
  n2 [label="{a}"];
  n3 [label="{b,c}"];
  n4 [label="{a,c}"];
  n5 [label="{a,b}"];
  n6 [label="{a,b,c}"];
  n0 -> n1 [label="b"];
  n0 -> n2 [label="a"];
  n1 -> n3 [label="c"];
  n1 -> n5 [label="a"];
  n2 -> n4 [label="c"];
  n2 -> n5 [label="b"];
  n3 -> n6 [label="a"];
  n4 -> n6 [label="b"];
  n5 -> n6 [label="c"];
}
"""

PENTAGON_DOT = """\
digraph lattice {
  rankdir=BT;
  node [shape=box];
  n0 [label="0"];
  n1 [label="x"];
  n2 [label="y"];
  n3 [label="z"];
  n4 [label="1"];
  n0 -> n1;
  n0 -> n3;
  n1 -> n2;
  n2 -> n4;
  n3 -> n4;
}
"""

FUNNEL_LATTICE_EDGE_LABELS_DOT = """\
digraph lattice {
  rankdir=BT;
  node [shape=box];
  n0 [label="{}"];
  n1 [label="{b}"];
  n2 [label="{a}"];
  n3 [label="{b,c}"];
  n4 [label="{a,c}"];
  n5 [label="{a,b}"];
  n6 [label="{a,b,c}"];
  n0 -> n1 [label="{a,c}"];
  n0 -> n2 [label="{b,c}"];
  n1 -> n3 [label="{a,b}"];
  n1 -> n5 [label="{b,c}"];
  n2 -> n4 [label="{a,b}"];
  n2 -> n5 [label="{a,c}"];
  n3 -> n6 [label="{b,c}"];
  n4 -> n6 [label="{a,c}"];
  n5 -> n6 [label="{a,b}"];
}
"""

FUNNEL_INTERVAL_DOT = """\
digraph lattice {
  rankdir=BT;
  node [shape=box];
  n0 [label="{b}"];
  n1 [label="{b,c}"];
  n2 [label="{a,b}"];
  n3 [label="{a,b,c}"];
  n0 -> n1 [label="c"];
  n0 -> n2 [label="a"];
  n1 -> n3 [label="a"];
  n2 -> n3 [label="c"];
}
"""

# relay_chain fires u and v twice or more: every label counts its firings
RELAY_CHAIN_SPACE_DOT = """\
digraph configuration_space {
  rankdir=BT;
  node [shape=box];
  n0 [label="{}"];
  n1 [label="{u:1}"];
  n2 [label="{u:1,v:1}"];
  n3 [label="{u:2}"];
  n4 [label="{u:1,v:2}"];
  n5 [label="{u:2,v:1}"];
  n6 [label="{u:2,v:2}"];
  n7 [label="{u:2,v:3}"];
  n8 [label="{u:2,v:4}"];
  n0 -> n1 [label="u"];
  n1 -> n2 [label="v"];
  n1 -> n3 [label="u"];
  n2 -> n4 [label="v"];
  n2 -> n5 [label="u"];
  n3 -> n5 [label="v"];
  n4 -> n6 [label="u"];
  n5 -> n6 [label="v"];
  n6 -> n7 [label="v"];
  n7 -> n8 [label="v"];
}
"""

# a coloured space labels each state by its open set
SHARED_GATE_SPACE_DOT = """\
digraph configuration_space {
  rankdir=BT;
  node [shape=box];
  n0 [label="{}"];
  n1 [label="{b}"];
  n2 [label="{a}"];
  n3 [label="{b,c}"];
  n4 [label="{a,c}"];
  n5 [label="{a,b}"];
  n6 [label="{a,b,c}"];
  n0 -> n1 [label="b"];
  n0 -> n2 [label="a"];
  n1 -> n3 [label="c"];
  n1 -> n5 [label="a"];
  n2 -> n4 [label="c"];
  n2 -> n5 [label="b"];
  n3 -> n6 [label="a"];
  n4 -> n6 [label="b"];
  n5 -> n6 [label="c"];
}
"""

SHARED_GATE_OPEN_A_DOT = """\
digraph coloured_game {
  node [shape=circle];
  n0 [label="a", style=filled, fillcolor=gray85];
  n1 [label="b"];
  n2 [label="c"];
  n3 [label="bot"];
  n0 -> n2 [label="1", color=black];
  n2 -> n3 [label="1", color=black];
  n1 -> n2 [label="2", color=red3];
  n2 -> n3 [label="2", color=red3];
  n0 -> n3 [label="3", color=blue3];
  n1 -> n3 [label="4", color=green4];
}
"""


def test_space_dot_bytes():
    assert space_to_dot(funnel_game().enumerate_space()) == FUNNEL_SPACE_DOT
    assert space_to_dot(relay_chain_game().enumerate_space()) == RELAY_CHAIN_SPACE_DOT
    assert space_to_dot(shared_gate_game().enumerate_space()) == SHARED_GATE_SPACE_DOT


def test_space_lattice_labels_count_firings():
    assert relay_chain_game().enumerate_space().lattice().labels == (
        "{}", "{u:1}", "{u:1,v:1}", "{u:2}", "{u:1,v:2}", "{u:2,v:1}", "{u:2,v:2}",
        "{u:2,v:3}", "{u:2,v:4}",
    )


def test_lattice_dot_bytes():
    assert lattice_to_dot(pentagon()) == PENTAGON_DOT
    lat = funnel_game().enumerate_space().lattice()
    assert lattice_to_dot(lat, edge_labels=True) == FUNNEL_LATTICE_EDGE_LABELS_DOT
    interval = lat.interval(1, lat.n - 1)  # keeps the space's vertex names on its covers
    assert interval.cover_labels
    assert lattice_to_dot(interval) == FUNNEL_INTERVAL_DOT


def test_coloured_game_dot_bytes():
    game = shared_gate_game()
    state = game.open_vertex(game.initial_state(), game.graph.vertex("a"))
    assert coloured_game_to_dot(game, state) == SHARED_GATE_OPEN_A_DOT


def test_dot_quotes_labels_and_repeats_parallel_edges():
    lat = Lattice.from_covers(2, [(0, 1)], labels=('a"b', "c\\d"))
    assert lattice_to_dot(lat).splitlines()[3:5] == ['  n0 [label="a\\"b"];', '  n1 [label="c\\\\d"];']
    game = parse_game("vertices: a b\nedge: a b 2 colour=1\n")
    assert coloured_game_to_dot(game) == (
        "digraph coloured_game {\n  node [shape=circle];\n"
        '  n0 [label="a"];\n  n1 [label="b"];\n'
        '  n0 -> n1 [label="1", color=black];\n  n0 -> n1 [label="1", color=black];\n}\n'
    )


def parse_error(text):
    with pytest.raises(ParseError) as err:
        parse_game(text, path="g.cfg")
    return str(err.value)


def test_negative_coloured_chip_entry_rejected_with_line_number(tmp_path, capsys):
    # the entries would sum to one chip; each entry must be non-negative
    text = "vertices: a b\nedge: a b 1 colour=1\nchips: a=-1@1,2@1\n"
    assert parse_error(text) == "g.cfg:3: negative chip count"
    assert parse_error(text.replace("a=-1@1,2@1", "a=2@1 b=-3@1")) == "g.cfg:3: negative chip count"
    path = tmp_path / "neg.ccfg"
    path.write_text(text)
    assert main(["space", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: {path}:3: negative chip count\n"


def test_negative_classical_chip_count_carries_line_number():
    assert parse_error("vertices: a b\n\nchips: a=-1\n") == "g.cfg:3: negative chip count"


def test_uncoloured_edge_error_carries_line_number():
    text = "vertices: a b\nedge: a b 1 colour=1\n# gap\nedge: b a 1\n"
    assert parse_error(text) == "g.cfg:4: uncoloured edge in a coloured game"


def test_uncoloured_chip_entry_error_carries_line_number():
    text = "vertices: a b\nedge: a b 1 colour=1\nchips: b=1@1\nchips: a=1\n"
    assert parse_error(text) == "g.cfg:4: chip entry without a colour in a coloured game"


def test_chips_of_a_missing_colour_error_carries_line_number():
    text = "vertices: a b\nchips: a=1@2\nedge: a b 1 colour=1\n"
    assert parse_error(text) == "g.cfg:2: chips of colour 2 but no edges of that colour"


@pytest.mark.parametrize("entry", ["x=1@", "x=a@1", "x=1@b", "x=z", "x=1@2@3"])
def test_malformed_chip_entry_names_the_entry_and_line(entry):
    text = f"vertices: x t\nedge: x t 1\nchips: {entry}\n"
    assert parse_error(text) == f"g.cfg:3: bad chip entry {entry!r}"


# Every error of the assembly after the line loop, with its line, for
# classical and coloured files; edges are checked before chip entries, and
# chip entries in file order.
ASSEMBLY_ERRORS = {
    "no vertices line": ("# empty\n", "g.cfg: missing vertices line"),
    "classical negative chips": (
        "vertices: a b\nedge: a b\nchips: b=1\nchips: a=-1\n",
        "g.cfg:4: negative chip count",
    ),
    "classical negative chips without edges": (
        "vertices: a b\nchips: a=-2\n",
        "g.cfg:2: negative chip count",
    ),
    "uncoloured edge": (
        "vertices: a b\nedge: a b 1 colour=1\nedge: b a 1\n",
        "g.cfg:3: uncoloured edge in a coloured game",
    ),
    "uncoloured edge, colour from chips": (
        "vertices: a b\nedge: a b 1\nchips: a=1@1\n",
        "g.cfg:2: uncoloured edge in a coloured game",
    ),
    "uncoloured edge before earlier bad chips": (
        "vertices: a b\nchips: a=-1@1 b=1\nedge: a b 1 colour=1\nedge: b a 1\n",
        "g.cfg:4: uncoloured edge in a coloured game",
    ),
    "uncoloured chip entry": (
        "vertices: a b\nedge: a b 1 colour=1\nchips: a=1\n",
        "g.cfg:3: chip entry without a colour in a coloured game",
    ),
    "chips of a colour without edges": (
        "vertices: a b\nedge: a b 1 colour=1\nchips: a=1@2\n",
        "g.cfg:3: chips of colour 2 but no edges of that colour",
    ),
    "coloured chips and no edges": (
        "vertices: a b\nchips: a=1@2\n",
        "g.cfg:2: chips of colour 2 but no edges of that colour",
    ),
    "coloured negative chips": (
        "vertices: a b\nedge: a b 1 colour=1\nchips: a=-1@1\n",
        "g.cfg:3: negative chip count",
    ),
    "first bad chip entry wins": (
        "vertices: a b\nedge: a b 1 colour=1\nchips: b=1@5\nchips: a=-1@1 b=1\n",
        "g.cfg:3: chips of colour 5 but no edges of that colour",
    ),
    "first bad entry of a line wins": (
        "vertices: a b\nedge: a b 1 colour=1\nchips: a=-1@1 b=1\n",
        "g.cfg:3: negative chip count",
    ),
}


@pytest.mark.parametrize("case", ASSEMBLY_ERRORS)
def test_assembly_errors_carry_text_line_and_precedence(case):
    text, message = ASSEMBLY_ERRORS[case]
    assert parse_error(text) == message


def test_classical_game_is_one_layer_without_colours():
    game = parse_game("vertices: a b\nchips: b=2 b=1\n")
    assert isinstance(game, Cfg) and game.graph.mult == {} and game.init == (0, 3)
    coloured = parse_game("vertices: a b\nedge: a b 0 colour=4\nchips: b=2@4 b=1@4\n")
    assert isinstance(coloured, ColouredCfg)
    assert coloured.colours == (4,) and coloured.init == {4: (0, 3)}


def lattice_error(text):
    with pytest.raises(ParseError) as err:
        parse_lattice(text, path="l.lat")
    return str(err.value)


# Every ParseError of a lattice file, with its text and ``path:lineno``; a
# comment or blank line before the failing line still counts.
LATTICE_ERRORS = {
    "no colon": ("elements: a b\ncover a b\n", "l.lat:2: expected 'keyword: ...', got 'cover a b'"),
    "no colon, comment stripped": (
        "# lattice\n\nelements: a b  # two\n   cover  # a: b\n",
        "l.lat:4: expected 'keyword: ...', got 'cover'",
    ),
    "unknown keyword": ("elements: a b\nedge: a b\n", "l.lat:2: unknown keyword 'edge'"),
    "empty keyword": ("elements: a b\n: a b\n", "l.lat:2: unknown keyword ''"),
    "keyword with a space": ("elements: a b\nco ver: a b\n", "l.lat:2: unknown keyword 'co ver'"),
    "keyword case": ("elements: a b\nCover: a b\n", "l.lat:2: unknown keyword 'Cover'"),
    "unknown keyword before elements": ("covers: a b\nelements: a b\n", "l.lat:1: unknown keyword 'covers'"),
    "duplicate elements line": (
        "elements: a b\ncover: a b\n\nelements: a b\n",
        "l.lat:4: duplicate elements line",
    ),
    "duplicate element name": ("# x\nelements: a b a\n", "l.lat:2: duplicate element name"),
    "cover before elements line": ("\n# c\ncover: a b\nelements: a b\n", "l.lat:3: cover before elements line"),
    "cover with one name": ("elements: a b\ncover: a\n", "l.lat:2: cover needs 'cover: LOW HIGH'"),
    "cover with no name": ("elements: a b\ncover:   # none\n", "l.lat:2: cover needs 'cover: LOW HIGH'"),
    "cover with three names": ("elements: a b c\ncover: a b c\n", "l.lat:2: cover needs 'cover: LOW HIGH'"),
    "unknown low": ("elements: a b\n# c\ncover: z b\n", "l.lat:3: unknown element 'z'"),
    "unknown high": ("elements: a b\ncover: a b\n\ncover: a z\n", "l.lat:4: unknown element 'z'"),
    "both unknown, low named": ("elements: a b\ncover: y z\n", "l.lat:2: unknown element 'y'"),
    "colon in a name": ("elements: a b\ncover: a: b\n", "l.lat:2: unknown element 'a:'"),
    "missing elements line": ("# only a comment\n\n", "l.lat: missing elements line"),
    "cycle": ("elements: a b\ncover: a b\n# back\ncover: b a\n", "l.lat: cover relation contains a cycle"),
    "self cover": ("elements: a b\ncover: a b\ncover: b b\n", "l.lat:3: element 'b' cannot cover itself"),
    "carriage-return line ends": ("elements: a b\rcover: a\r", "l.lat:2: cover needs 'cover: LOW HIGH'"),
    "CRLF line ends": ("elements: a b\r\n\r\ncover: a z\r\n", "l.lat:3: unknown element 'z'"),
}


@pytest.mark.parametrize("case", LATTICE_ERRORS)
def test_lattice_parse_errors_carry_text_and_line(case):
    text, message = LATTICE_ERRORS[case]
    assert lattice_error(text) == message


def test_lattice_file_whitespace_and_comments_are_ignored():
    lat = parse_lattice(
        "  # header\n\t elements :  bot\tx y  top # four\n\n"
        "cover:bot x\ncover :  bot y \n  cover: x top#c\ncover: y top\n"
    )
    assert lat.labels == ("bot", "x", "y", "top")
    assert lat.cover_pairs == ((0, 1), (0, 2), (1, 3), (2, 3))
    with pytest.raises(NotALatticeError, match="^not a lattice: empty element set$"):
        parse_lattice("elements:\n")
