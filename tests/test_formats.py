import pytest

from chipfire.cli import main
from chipfire.coloured import ColouredCfg
from chipfire.engine import Cfg
from chipfire.errors import NotALatticeError, ParseError
from chipfire.fixtures import funnel_game, gated_cube_lattice, shared_gate_game
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
    dot = lattice_to_dot(lat, edge_labels=True, mark_irreducibles=True)
    assert dot.count("->") == len(lat.cover_pairs)
    assert "peripheries=2" in dot


def test_coloured_game_dot_marks_open_vertices():
    game = shared_gate_game()
    state = game.open_vertex(game.initial_state(), game.graph.vertex("a"))
    dot = coloured_game_to_dot(game, state)
    assert dot.count("fillcolor=gray85") == 1
    assert 'color=red3' in dot or 'color=black' in dot


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
