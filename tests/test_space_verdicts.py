"""How a configuration space stands in for its dense lattice view.

``chipfire space`` prints only the verdicts a space reads from its firing
vectors and moves, so it never builds the dense, separately verified
``space.lattice()``; every such verdict and query is compared with that view
on each input family in ``tests/test_lattice_tables.py``. A space checks
itself as it is built, and that stands in for the lattice verification: a
game whose moves do not commute is refused by ``enumerate_space`` itself,
with the exact report, and so is a space built by hand with two maximal
states (distinct firing vectors are checked in ``test_engine.py`` and
``test_coloured.py``). The detector-agreement rule gets a fault too. A space
keeps no copy of its cover pairs or triples, enumeration peaks near what the
finished space holds, and enumeration with the four verdicts ``space``
prints stays under a bound per state.
"""

import pytest

from chipfire import cli
from chipfire.engine import Cfg, ConfigSpace, _unpack_block
from chipfire.errors import DetectorDisagreement
from chipfire.fixtures import funnel_game
from chipfire.formats import parse_game
from chipfire.lattice import Lattice, Poset

from helpers import peak_traced, sand_pile_text, wide_text


def planted_game(monkeypatch, text, at, hidden):
    """A parsed game whose moves of the vertex ids ``hidden`` are dropped at
    the configuration ``at`` while its space is enumerated."""
    game = parse_game(text)
    successors = Cfg._successors

    def hide(self, conf):
        moves = successors(self, conf)
        [chips] = _unpack_block([conf], self._packing[0])
        return [m for m in moves if m[0] not in hidden] if chips == at else moves

    monkeypatch.setattr(Cfg, "_successors", hide)
    return game


def test_moves_that_do_not_commute_are_an_engine_fault(monkeypatch, tmp_path, capsys):
    text = "vertices: a b t\nedge: a t 1\nedge: b t 1\nchips: a=1 b=1\n"
    game = planted_game(monkeypatch, text, (0, 1, 1), {1})  # b is lost after a
    # the space refuses itself as it is built, before any verdict is read
    with pytest.raises(RuntimeError, match="moves a and b do not commute at state {}"):
        game.enumerate_space()
    path = tmp_path / "two.cfg"
    path.write_text(text)
    with pytest.raises(RuntimeError, match="do not commute"):
        cli.main(["space", str(path)])
    assert capsys.readouterr().out == ""


def test_commuting_report_names_the_lowest_lost_move(monkeypatch):
    # three moves out of {}: c, checked first, loses both a and b
    text = "vertices: a b c t\nedge: a t 1\nedge: b t 1\nedge: c t 1\nchips: a=1 b=1 c=1\n"
    game = planted_game(monkeypatch, text, (1, 1, 0, 1), {0, 1})
    with pytest.raises(RuntimeError) as err:
        game.enumerate_space()
    assert str(err.value) == "moves c and a do not commute at state {}: a is lost after c"


def test_commuting_report_at_a_state_above_the_bottom(monkeypatch):
    # a fires twice, so states are labelled with counts; b is gone at {a:2}
    text = "vertices: a b t\nedge: a t 1\nedge: b t 1\nchips: a=2 b=1\n"
    game = planted_game(monkeypatch, text, (0, 1, 2), {1})
    with pytest.raises(RuntimeError) as err:
        game.enumerate_space()
    assert str(err.value) == "moves a and b do not commute at state {a:1}: b is lost after a"


def test_a_hand_built_space_with_two_maximal_states_is_refused():
    # In a closure's space, commuting moves and distinct firing vectors
    # already give one top: the two walks a, b and b, a from a state fire
    # the same vector, so they end in one state. Built by hand, covers need
    # not add the vertex they fire: here {a} then b and {b} then a end in
    # two states, and the moves still commute.
    with pytest.raises(RuntimeError) as err:
        ConfigSpace(
            names=("a", "b"),
            packed_vectors=tuple(range(5)),  # distinct vectors
            packed_states=tuple(range(5)),
            unpack=list,
            ups=((1, 2), (3,), (4,), (), ()),  # 1 fires b, 2 fires a
            move_masks=(0b11, 0b01, 0b10, 0, 0),
        )
    assert str(err.value) == "expected a unique maximal state, found 2"


def test_split_detectors_raise():
    space = funnel_game().enumerate_space()
    # no cover removes a meet-irreducible, while every cube of moves is intact
    space.__dict__["_mx_masks"] = (0,) * len(space)
    with pytest.raises(DetectorDisagreement, match="hypercube=True .* cover-step=False"):
        space.is_uld


def test_space_builds_no_dense_lattice(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense lattice built")

    spaces = []
    enumerate_space = Cfg.enumerate_space

    def keep(self, state_cap=None):
        spaces.append(enumerate_space(self, state_cap))
        return spaces[-1]

    monkeypatch.setattr(Lattice, "__init__", refuse)
    monkeypatch.setattr(Poset, "from_covers", refuse)
    monkeypatch.setattr(ConfigSpace, "lattice", refuse)
    monkeypatch.setattr(Cfg, "enumerate_space", keep)
    k = 12
    path = tmp_path / "wide.cfg"
    path.write_text(wide_text(k))
    status, _, peak = peak_traced(lambda: cli.main(["space", str(path)]))
    assert status == 0
    assert capsys.readouterr().out == (
        "elements: 4096\nheight: 12\nranked: yes\ndistributive: yes\nULD: yes\n"
    )
    # an n x n boolean order alone would take n^2 = 16 MiB
    assert peak < (1 << 2 * k) // 2
    # the verdicts read the closure's upper covers and fill no lower ones;
    # no pair or triple of a cover is kept
    [space] = spaces
    assert "_lower_covers" not in vars(space)
    assert "cover_pairs" not in vars(space) and "covers" not in vars(space)
    assert space._upper_covers is space.ups


def test_enumeration_peak_is_near_what_the_space_holds():
    # the closure drops its discovery-order lists before it builds the space,
    # and each successor list as its row of upper covers is made: measured
    # 1.34, against 1.60 with every successor list held until the end
    game = parse_game(sand_pile_text(45))
    space, held, peak = peak_traced(game.enumerate_space)
    assert len(space) == 9329
    assert peak <= 1.5 * held, (peak, held)


def space_and_its_verdicts(game):
    """The space of a game and the four verdicts ``chipfire space`` prints."""
    space = game.enumerate_space()
    space.height, space.is_ranked, space.is_distributive, space.is_uld
    return space


def test_space_and_its_verdicts_peak_below_560_bytes_per_state():
    # SPM(45) measured 505 bytes per state; filling the lower covers beside
    # the upper ones took 610, and holding the cover triples as well 905
    game = parse_game(sand_pile_text(45))
    game._packing  # the game's own layout, made once per game
    space, held, peak = peak_traced(lambda: space_and_its_verdicts(game))
    assert len(space) == 9329
    assert peak < 560 * len(space), (peak, held)


def test_the_finished_space_keeps_no_cover_triples():
    space = space_and_its_verdicts(parse_game(sand_pile_text(28)))
    triples = tuple(space.covers)
    assert len(triples) == len(space.covers) > len(space)
    assert all(value != triples for value in vars(space).values())
    # the count of covers is read off the adjacency: no triple is made
    count, _, peak = peak_traced(lambda: len(space.covers))
    assert count == len(triples) and peak < 1000, peak
