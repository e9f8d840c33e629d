"""The lattice verdicts a configuration space reads from its firing vectors
and moves, against the dense, verified ``space.lattice()`` view.

``chipfire space`` prints only these verdicts, so it never builds the dense
view; the commuting-moves check that stands in for the lattice verification
and the detector-agreement rule get a fault each. The hypercube verdict, which
the commuting check gives, is also checked against the subset walk over each
state's moves (``helpers.cube_walk_witness``). A space keeps no copy of its
cover pairs, and enumeration peaks near what the finished space holds.
"""

import pytest
from hypothesis import given, settings

from chipfire import cli
from chipfire.engine import Cfg, ConfigSpace, _unpack_block
from chipfire.errors import DetectorDisagreement
from chipfire.fixtures import funnel_game, relay_chain_game, shared_gate_game, split_track_game
from chipfire.formats import parse_game
from chipfire.lattice import Lattice, Poset

from helpers import cube_walk_witness, peak_traced, sand_pile_text
from test_coloured import coloured_games
from test_lattice_tables import convergent_games


def wide_text(k):
    """k one-chip sources draining to one sink: a space of 2^k states."""
    sources = [f"s{i}" for i in range(k)]
    return (
        "vertices: " + " ".join(sources) + " t\n"
        + "".join(f"edge: {s} t 1\n" for s in sources)
        + "chips: " + " ".join(f"{s}=1" for s in sources) + "\n"
    )


def assert_verdicts_match_lattice(space):
    lat = space.lattice()
    assert space.cover_pairs == lat.cover_pairs
    assert space._upper_covers == lat._upper_covers
    assert space._lower_covers == lat._lower_covers
    assert space.J == lat.J
    assert space.M == lat.M
    assert space._mx_masks == lat._mx_masks
    assert space.is_ranked == lat.is_ranked
    assert space.height == lat.height
    assert space._hypercube_witness() == lat._hypercube_witness()
    # the subset walk the commuting check replaced
    assert space._hypercube_witness() is None
    assert cube_walk_witness(space) is None
    assert space._cover_step_witness() == lat._cover_step_witness()
    assert space.uld_detectors == lat.uld_detectors
    assert space.is_uld == lat.is_uld
    assert space.is_distributive == lat.is_distributive


def test_corpora(space_corpus, coloured_space_corpus):
    for space in space_corpus + coloured_space_corpus:
        assert_verdicts_match_lattice(space)


def test_bundled_games_and_the_wide_game():
    games = [funnel_game(), relay_chain_game(), shared_gate_game(), split_track_game()]
    games.append(parse_game(wide_text(10)))
    for game in games:
        assert_verdicts_match_lattice(game.enumerate_space())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_generated_games(game):
    assert_verdicts_match_lattice(game.enumerate_space())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_generated_coloured_games(game):
    assert_verdicts_match_lattice(game.enumerate_space())


def assert_every_cover_fires_once(space):
    # the closure's guarantee that is_ranked and J rest on
    for lo, hi, v in space.covers:
        step = [b - a for a, b in zip(space.vectors[lo], space.vectors[hi])]
        assert step == [int(u == v) for u in range(len(space.names))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_generated_games_fire_once_per_cover(game):
    assert_every_cover_fires_once(game.enumerate_space())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_generated_coloured_games_fire_once_per_cover(game):
    assert_every_cover_fires_once(game.enumerate_space())


def planted_space(monkeypatch, text, at, hidden):
    """The space of a parsed game whose moves of the vertex ids ``hidden``
    are dropped at the configuration ``at``."""
    game = parse_game(text)
    successors = Cfg._successors

    def hide(self, conf):
        moves = successors(self, conf)
        [chips] = _unpack_block([conf], self._packing[0])
        return [m for m in moves if m[0] not in hidden] if chips == at else moves

    monkeypatch.setattr(Cfg, "_successors", hide)
    return game.enumerate_space()


def test_moves_that_do_not_commute_are_an_engine_fault(monkeypatch, tmp_path, capsys):
    text = "vertices: a b t\nedge: a t 1\nedge: b t 1\nchips: a=1 b=1\n"
    space = planted_space(monkeypatch, text, (0, 1, 1), {1})  # b is lost after a
    # the hypercube verdict is the commuting check's, never an unchecked None
    with pytest.raises(RuntimeError, match="moves a and b do not commute at state {}"):
        space._hypercube_witness()
    with pytest.raises(RuntimeError, match="moves a and b do not commute at state {}"):
        space.is_uld
    with pytest.raises(RuntimeError, match="moves a and b do not commute at state {}"):
        space.is_ranked
    with pytest.raises(RuntimeError, match="moves a and b do not commute at state {}"):
        space.J
    # every rule taken from Lattice reads the covers through the same check
    for rule in ("M", "_mx_masks", "cover_pairs", "uld_detectors", "is_distributive"):
        with pytest.raises(RuntimeError, match="moves a and b do not commute at state {}"):
            getattr(space, rule)
    with pytest.raises(RuntimeError, match="moves a and b do not commute at state {}"):
        space._cover_step_witness()
    path = tmp_path / "two.cfg"
    path.write_text(text)
    with pytest.raises(RuntimeError, match="do not commute"):
        cli.main(["space", str(path)])
    assert capsys.readouterr().out == ""


def test_commuting_report_names_the_lowest_lost_move(monkeypatch):
    # three moves out of {}: c, checked first, loses both a and b
    text = "vertices: a b c t\nedge: a t 1\nedge: b t 1\nedge: c t 1\nchips: a=1 b=1 c=1\n"
    space = planted_space(monkeypatch, text, (1, 1, 0, 1), {0, 1})
    with pytest.raises(RuntimeError) as err:
        space.cover_pairs
    assert str(err.value) == "moves c and a do not commute at state {}: a is lost after c"


def test_commuting_report_at_a_state_above_the_bottom(monkeypatch):
    # a fires twice, so states are labelled with counts; b is gone at {a:2}
    text = "vertices: a b t\nedge: a t 1\nedge: b t 1\nchips: a=2 b=1\n"
    space = planted_space(monkeypatch, text, (0, 1, 2), {1})
    with pytest.raises(RuntimeError) as err:
        space.is_ranked
    assert str(err.value) == "moves a and b do not commute at state {a:1}: b is lost after a"


def test_space_takes_the_lattice_rules():
    # one copy of each rule: a space reads Lattice's members over its covers
    for name in ("J", "M", "_mx_masks", "_cover_step_witness", "uld_detectors", "is_uld",
                 "is_distributive"):
        assert ConfigSpace.__dict__[name] is Lattice.__dict__[name], name
    for name in ("_upper_covers", "_lower_covers", "_check"):
        assert ConfigSpace.__dict__[name] is Poset.__dict__[name], name


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
    # the verdicts read the covers per element; the pairs were made and freed
    [space] = spaces
    assert "_upper_covers" in vars(space) and "_lower_covers" in vars(space)
    assert "cover_pairs" not in vars(space)


def test_enumeration_peak_is_near_what_the_space_holds():
    # the closure drops its discovery-order lists before it unpacks
    game = parse_game(sand_pile_text(45))
    space, held, peak = peak_traced(game.enumerate_space)
    assert len(space) == 9329
    assert peak <= 1.9 * held, (peak, held)
