"""A configuration space keeps the closure's packed states.

``engine._closure`` hands a ``ConfigSpace`` each state's firing vector as
one int, level field included, and its packed state with the game's unpack
rule; ``vectors`` and ``configs`` are unpacked from them once each, on first
read, into tuples. ``len``, ``n``, ``height`` (the top's level field) and
``top`` read no vector.

The guards refuse the unpack rules: with all of them refused, ``chipfire
space`` without ``--dot``, ``synth`` in both modes and ``simplify`` print
the same bytes and write the same files as unguarded (the round-trip maps
read the packed firing vectors), and with only the configuration rules
refused, so does ``space --dot``.
The differential tests compare the lazy tuples with ``helpers.tuple_closure``'s
own, read before or after every other reader of a space.
"""

import pytest
from hypothesis import given, settings

from chipfire import cli, engine
from chipfire.coloured import ColouredCfg
from chipfire.engine import Cfg
from chipfire.fixtures import (
    funnel_game,
    relay_chain_game,
    sand_pile_21_game,
    shared_gate_game,
    split_track_game,
)
from chipfire.formats import serialize_lattice
from chipfire.lattice import Lattice
from chipfire.transforms import interval_cfg

from helpers import (
    coloured_games,
    convergent_games,
    data_path,
    full_scan_parts,
    full_scan_space,
    tuple_parts,
    tuple_space,
)


def refuse(*args, **kwargs):
    raise AssertionError("a state was unpacked")


def refuse_configs(monkeypatch):
    """Refuse both rules that unpack configurations."""
    monkeypatch.setattr(engine, "_unpack_block", refuse)
    monkeypatch.setattr(ColouredCfg, "_unpack", staticmethod(refuse))


def refuse_all(monkeypatch):
    """Refuse the configuration rules and the firing-vector unpacker."""
    refuse_configs(monkeypatch)
    monkeypatch.setattr(engine, "_unpack_vectors", refuse)


def report(elements, height, distributive):
    return (
        f"elements: {elements}\nheight: {height}\nranked: yes\n"
        f"distributive: {distributive}\nULD: yes\n"
    )


SPACE_REPORTS = (
    ([data_path("funnel.cfg")], report(7, 3, "no")),
    ([data_path("relay_chain.cfg")], report(9, 6, "yes")),
    ([data_path("sand_pile_21.cfg")], report(209, 35, "no")),
    (["--coloured", data_path("shared_gate.ccfg")], report(7, 3, "no")),
    (["--coloured", data_path("split_track.ccfg")], report(9, 4, "yes")),
)


@pytest.mark.parametrize("args, expected", SPACE_REPORTS)
def test_space_without_dot_unpacks_nothing(args, expected, monkeypatch, capsys):
    refuse_all(monkeypatch)
    assert cli.main(["space", *args]) == 0
    assert capsys.readouterr() == (expected, "")


def test_the_guards_refuse_every_unpacking(monkeypatch):
    refuse_all(monkeypatch)
    for game in (funnel_game(), shared_gate_game()):
        space = game.enumerate_space()
        with pytest.raises(AssertionError, match="a state was unpacked"):
            space.configs
        with pytest.raises(AssertionError, match="a state was unpacked"):
            space.vectors


def cli_bytes(argv, capsys, written):
    """Exit status, stdout, stderr and the text of the file written."""
    status = cli.main(argv)
    out, err = capsys.readouterr()
    return status, out, err, written.read_text()


def test_dot_synth_and_simplify_unpack_no_configuration(tmp_path, monkeypatch, capsys):
    """``space --dot`` unpacks the firing vectors only; ``synth`` and
    ``simplify`` unpack nothing."""
    boolean = tmp_path / "boolean3.lat"
    boolean.write_text(serialize_lattice(Lattice.boolean(3)))
    written = tmp_path / "written"
    out = str(written)
    runs = [
        (refuse_configs, ["space", data_path("funnel.cfg"), "--dot", out]),
        (refuse_configs, ["space", data_path("sand_pile_21.cfg"), "--dot", out]),
        (refuse_configs, ["space", "--coloured", data_path("shared_gate.ccfg"), "--dot", out]),
        (refuse_configs, ["space", "--coloured", data_path("split_track.ccfg"), "--dot", out]),
        (refuse_all, ["synth", data_path("gated_cube.lat"), "--mode", "uld", "-o", out]),
        (refuse_all, ["synth", str(boolean), "--mode", "uld", "-o", out]),
        (refuse_all, ["synth", str(boolean), "--mode", "distributive", "-o", out]),
        (refuse_all, ["simplify", data_path("funnel.cfg"), "-o", out]),
        (refuse_all, ["simplify", data_path("relay_chain.cfg"), "-o", out]),
        (refuse_all, ["simplify", data_path("sand_pile_21.cfg"), "-o", out]),
    ]
    for guard, argv in runs:
        unguarded = cli_bytes(argv, capsys, written)
        assert unguarded[0] == 0, argv
        with monkeypatch.context() as guarded:
            guard(guarded)
            assert cli_bytes(argv, capsys, written) == unguarded, argv


# differential: the lazy tuples against the tuple closure


def read_verdicts(space, game):
    return space.height, space.is_ranked, space.is_distributive, space.is_uld, space.J, space.M


def read_joins(space, game):
    return [space.join_of(a, b) for a in range(len(space)) for b in (0, a // 2, space.top)]


def read_interval(space, game):
    """``interval_cfg`` from the bottom to each state, for the games it takes."""
    if isinstance(game, Cfg) and game.is_simple() and len(game.graph.sinks()) == 1:
        return [interval_cfg(game, 0, b, space) for b in range(len(space))]
    return None


READERS = (
    read_verdicts,
    lambda space, game: space.labels,
    lambda space, game: space.lattice(),
    read_joins,
    read_interval,
)


def counted(monkeypatch, owner, name, wrap=lambda f: f):
    """Count the calls of ``owner.name`` from now on; returns the tally."""
    calls = []
    original = getattr(owner, name)

    def count(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(count))
    return calls


def assert_unpacked_on_read(game, vectors, configs):
    """Every reader, before and after the unpacked tuples, on a fresh space
    each: the tuples equal the oracle's, are made once, and are not made by
    ``len``, ``n``, ``height`` or ``top``."""
    for reader in READERS:
        for tuples_first in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                vector_calls = counted(patch, engine, "_unpack_vectors")
                if isinstance(game, Cfg):
                    config_calls = counted(patch, engine, "_unpack_block")
                else:
                    config_calls = counted(patch, ColouredCfg, "_unpack", staticmethod)
                space = game.enumerate_space()
                assert len(space) == space.n == len(vectors)
                assert space.top == len(space) - 1
                height = space.height
                assert "vectors" not in vars(space) and "configs" not in vars(space)
                assert vector_calls == config_calls == []
                if tuples_first:
                    got = space.vectors, space.configs
                    reader(space, game)
                else:
                    reader(space, game)
                    got = space.vectors, space.configs
                assert got == (vectors, configs)
                assert (space.vectors, space.configs) == got
                assert vector_calls == config_calls == [1]
            assert type(space.vectors) is tuple and type(space.configs) is tuple
            assert all(type(vec) is tuple for vec in space.vectors)
            assert all(type(conf) is tuple for conf in space.configs)
            assert height == sum(space.vectors[space.top])


def test_corpus_spaces_unpack_on_read(game_corpus):
    for game in game_corpus + [funnel_game(), relay_chain_game(), sand_pile_21_game()]:
        vectors, configs, _ = tuple_parts(game)
        assert_unpacked_on_read(game, vectors, configs)


def test_coloured_corpus_spaces_unpack_on_read(coloured_corpus):
    for game in coloured_corpus + [shared_gate_game(), split_track_game()]:
        vectors, configs, _ = full_scan_parts(game)
        assert_unpacked_on_read(game, vectors, configs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_generated_spaces_unpack_on_read(game):
    vectors, configs, _ = tuple_parts(game)
    assert_unpacked_on_read(game, vectors, configs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(coloured_games())
def test_generated_coloured_spaces_unpack_on_read(game):
    vectors, configs, _ = full_scan_parts(game)
    assert_unpacked_on_read(game, vectors, configs)


def test_the_oracle_space_is_seeded_through_the_one_constructor(game_corpus, coloured_corpus):
    # grouped_space seeds vectors and configs with its own tuples, and packs
    # its firing vectors by the engine's layout for len and height
    for game, oracle in [(g, tuple_space(g)) for g in game_corpus] + [
        (g, full_scan_space(g)) for g in coloured_corpus
    ]:
        space = game.enumerate_space()
        assert oracle.packed_vectors == space.packed_vectors
        assert (len(oracle), oracle.height, oracle.top) == (len(space), space.height, space.top)
        assert (oracle.vectors, oracle.configs) == (space.vectors, space.configs)
