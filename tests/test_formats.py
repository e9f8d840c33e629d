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
