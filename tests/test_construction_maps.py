"""The constructions' own maps from states to lattice elements.

``synth`` and ``simplify`` decide their round trip by checking the map each
construction implies (``distributive_map``, ``uld_map``, ``split_map``) with
``is_hasse_isomorphism``; that check is the whole verdict. These tests compare
the check with ``is_isomorphic`` on the seeded corpora and on hypothesis
games, corrupt covers and map entries to see the check refuse them and the
CLI exit 1, and run the CLI with the search, the dense space lattice or the
derived cover matrix switched off, and in a fresh interpreter that must never
import numpy. The coding maps are compared entry for entry with a fold
through pairwise meets.
"""

import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings

import chipfire
from chipfire import cli, transforms
from chipfire import lattice as lattice_module
from chipfire.engine import Cfg, ConfigSpace
from chipfire.formats import serialize_lattice
from chipfire.lattice import Lattice, Poset, ideal_lattice, is_isomorphic
from chipfire.multigraph import Multigraph

from helpers import meet_table_map
from test_lattice_tables import convergent_games


def data_path(name):
    return str(resources.files("chipfire.data").joinpath(name))


def synth_round_trip(lattice, mode):
    """(map check, search verdict) for synthesizing from ``lattice``."""
    if mode == "distributive":
        game, to_lattice = transforms.cfg_from_distributive(lattice), transforms.distributive_map
    else:
        game, to_lattice = transforms.coloured_from_uld(lattice), transforms.uld_map
    space = game.enumerate_space()
    by_map = transforms.is_hasse_isomorphism(
        to_lattice(lattice, space), space.covers, lattice.n, lattice.cover_pairs
    )
    return by_map, is_isomorphic(space.lattice(), lattice)


def simplify_round_trip(game):
    """(map check, search verdict) for simplifying ``game``."""
    simple, reports = transforms.simplify(game)
    before, after = game.enumerate_space(), simple.enumerate_space()
    by_map = transforms.is_hasse_isomorphism(
        transforms.split_map(reports, before, after), after.covers, len(before), before.covers
    )
    return by_map, is_isomorphic(before.lattice(), after.lattice())


def test_ideal_lattices_of_small_posets(distributive_corpus):
    for lat in distributive_corpus:
        for mode in ("distributive", "uld"):
            assert synth_round_trip(lat, mode) == (True, True), (mode, lat.labels)


def test_classical_spaces(game_corpus, space_corpus):
    for game, space in zip(game_corpus, space_corpus):
        lat = space.lattice()
        modes = ("distributive", "uld") if lat.is_distributive else ("uld",)
        for mode in modes:
            assert synth_round_trip(lat, mode) == (True, True), (mode, game)
        assert simplify_round_trip(game) == (True, True), game


def test_coloured_spaces(coloured_space_corpus):
    for space in coloured_space_corpus:
        assert synth_round_trip(space.lattice(), "uld") == (True, True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_generated_games(game):
    lat = game.enumerate_space().lattice()
    assert synth_round_trip(lat, "uld") == (True, True)
    if lat.is_distributive:
        assert synth_round_trip(lat, "distributive") == (True, True)
    assert simplify_round_trip(game) == (True, True)


def test_split_report_records_the_split_index():
    game = cli._load_classical(data_path("relay_chain.cfg"))
    simple, reports = transforms.simplify(game)
    names = list(game.graph.names)
    for rep in reports:
        assert names[rep.index] == rep.vertex
        names[rep.index : rep.index + 1] = [f"{rep.vertex}_0"]
        names.append(f"{rep.vertex}_1")
    assert tuple(names) == simple.graph.names


# the coding maps equal the meet-table fold


def assert_coding_maps_match_meets(lattice, modes=("distributive", "uld")):
    for mode in modes:
        if mode == "distributive":
            game, to_lattice = transforms.cfg_from_distributive(lattice), transforms.distributive_map
            ms = lattice.M
        else:
            game, to_lattice = transforms.coloured_from_uld(lattice), transforms.uld_map
            ms = [m for _, m in transforms._arrow_classes(lattice)]
        space = game.enumerate_space()
        image = to_lattice(lattice, space)
        assert None not in image, (mode, lattice.labels)
        assert image == meet_table_map(lattice, ms, space), (mode, lattice.labels)


def test_coding_maps_on_ideal_lattices(distributive_corpus):
    for lat in distributive_corpus:
        assert_coding_maps_match_meets(lat)


def test_coding_maps_on_classical_spaces(space_corpus):
    for space in space_corpus:
        lat = space.lattice()
        assert_coding_maps_match_meets(lat, ("distributive", "uld") if lat.is_distributive else ("uld",))


def test_coding_maps_on_coloured_spaces(coloured_space_corpus):
    for space in coloured_space_corpus:
        assert_coding_maps_match_meets(space.lattice(), ("uld",))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_coding_maps_on_generated_games(game):
    lat = game.enumerate_space().lattice()
    assert_coding_maps_match_meets(lat, ("distributive", "uld") if lat.is_distributive else ("uld",))


def test_a_state_without_a_code_maps_to_none():
    # in the chain 0 < 1 < 2, M = (0, 1) and no element has mi_above {0};
    # two one-chip sources reach the state that fired vertex 1 but not vertex 0
    chain = Lattice.chain(3)
    space = Cfg(Multigraph(("a", "b", "t"), {(0, 2): 1, (1, 2): 1}), (1, 1, 0)).enumerate_space()
    image = transforms.distributive_map(chain, space)
    assert sorted(image, key=str) == [0, 1, 2, None]
    assert image[space.vectors.index((0, 1, 0))] is None
    assert not transforms.is_hasse_isomorphism(image, space.covers, chain.n, chain.cover_pairs)


# fault injection


def boolean_synth():
    lat = Lattice.boolean(3)
    space = transforms.cfg_from_distributive(lat).enumerate_space()
    return lat, space, transforms.distributive_map(lat, space)


def test_correct_map_passes():
    lat, space, image = boolean_synth()
    assert transforms.is_hasse_isomorphism(image, space.covers, lat.n, lat.cover_pairs)


def test_corrupted_cover_fails():
    lat, space, image = boolean_synth()
    lo, hi, v = space.covers[3]
    for wrong in ((lo, len(space) - 1, v), (hi, lo, v)):
        covers = space.covers[:3] + (wrong,) + space.covers[4:]
        assert not transforms.is_hasse_isomorphism(image, covers, lat.n, lat.cover_pairs)
    assert not transforms.is_hasse_isomorphism(image, space.covers[1:], lat.n, lat.cover_pairs)


def test_corrupted_map_entry_fails():
    lat, space, image = boolean_synth()
    for i in range(len(image)):
        for wrong in {image[0], image[-1], (image[i] + 1) % lat.n} - {image[i]}:
            bad = image[:i] + [wrong] + image[i + 1 :]
            assert not transforms.is_hasse_isomorphism(bad, space.covers, lat.n, lat.cover_pairs)
    # a bijection that swaps two elements of different ranks is refused too
    bad = [image[-1]] + image[1:-1] + [image[0]]
    assert not transforms.is_hasse_isomorphism(bad, space.covers, lat.n, lat.cover_pairs)
    assert not transforms.is_hasse_isomorphism(image[:-1], space.covers, lat.n, lat.cover_pairs)
    # an extra element folded onto the top, with a copy of a cover into the top
    lo, top, v = space.covers[-1]
    covers = space.covers + ((lo, len(space), v),)
    folded = image + [image[top]]
    assert not transforms.is_hasse_isomorphism(folded, covers, lat.n, lat.cover_pairs)
    # without covers, only the bijection check can refuse
    assert transforms.is_hasse_isomorphism([0], (), 1, ())
    assert not transforms.is_hasse_isomorphism([1], (), 1, ())
    assert not transforms.is_hasse_isomorphism(None, space.covers, lat.n, lat.cover_pairs)


def test_split_map_refuses_unknown_vectors():
    game = cli._load_classical(data_path("relay_chain.cfg"))
    simple, reports = transforms.simplify(game)
    before, after = game.enumerate_space(), simple.enumerate_space()
    assert transforms.split_map(reports, before, after) is not None
    assert transforms.split_map(reports[:-1], before, after) is None
    shifted = [replace(rep, index=rep.index + 1) for rep in reports]
    image = transforms.split_map(shifted, before, after)
    assert not transforms.is_hasse_isomorphism(image, after.covers, len(before), before.covers)


def swap_first_and_last(fn):
    def corrupted(*args):
        image = fn(*args)
        image[0], image[-1] = image[-1], image[0]
        return image

    return corrupted


def refuse_the_slow_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("slow path called")

    monkeypatch.setattr(lattice_module, "find_isomorphism", refuse)
    monkeypatch.setattr(ConfigSpace, "lattice", refuse)


@pytest.mark.parametrize(
    "argv, patched, failure",
    [
        (["synth", data_path("gated_cube.lat"), "--mode", "uld"], "uld_map",
         "round-trip: NOT isomorphic"),
        (["synth", "boolean.lat", "--mode", "uld"], "uld_map", "round-trip: NOT isomorphic"),
        (["synth", "boolean.lat", "--mode", "distributive"], "distributive_map",
         "round-trip: NOT isomorphic"),
        (["simplify", data_path("relay_chain.cfg")], "split_map", "isomorphic: no"),
        (["simplify", data_path("funnel.cfg")], "split_map", "isomorphic: no"),
    ],
    ids=["synth-uld-gated-cube", "synth-uld-boolean", "synth-distributive-boolean",
         "simplify-relay-chain", "simplify-funnel"],
)
def test_a_failed_map_check_is_the_verdict(argv, patched, failure, tmp_path, monkeypatch, capsys):
    generated = {os.path.basename(path): path for path in generated_lattice_files(tmp_path)}
    argv = [generated.get(a, a) for a in argv]
    refuse_the_slow_paths(monkeypatch)
    assert cli.main(argv) == 0
    clean = capsys.readouterr()
    monkeypatch.setattr(transforms, patched, swap_first_and_last(getattr(transforms, patched)))
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == clean.out  # the emitted game
    assert err == clean.err.rsplit("\n", 2)[0] + f"\n{failure}\n"


# the CLI round trips build no space lattice and run no search


def chain_product_text(sizes):
    """A product of chains with ``sizes`` elements each, as a lattice file."""
    elements = [()]
    for size in sizes:
        elements = [e + (i,) for e in elements for i in range(size)]
    name = {e: "p" + "_".join(map(str, e)) for e in elements}
    lines = ["elements: " + " ".join(name[e] for e in elements)]
    for e in elements:
        for axis, size in enumerate(sizes):
            if e[axis] + 1 < size:
                up = e[:axis] + (e[axis] + 1,) + e[axis + 1 :]
                lines.append(f"cover: {name[e]} {name[up]}")
    return "\n".join(lines) + "\n"


def generated_lattice_files(tmp_path):
    fence = Poset.from_covers(5, [(0, 1), (2, 1), (2, 3), (4, 3)], labels=tuple("abcde"))
    texts = {
        "ideal.lat": serialize_lattice(ideal_lattice(fence)),
        "boolean.lat": serialize_lattice(Lattice.boolean(4)),
        "product.lat": chain_product_text((2, 3, 4)),
    }
    paths = []
    for name, text in texts.items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


SYNTH_ERR = "synthesized: stdout\nround-trip: isomorphic\n"
RELAY_ERR = (
    "split: v surplus=8 iteration=1\n"
    "split: u surplus=32 iteration=2\n"
    "split: v_0 surplus=128 iteration=3\n"
    "split: v_1 surplus=512 iteration=4\n"
    "simple: yes\n"
    "isomorphic: yes\n"
)
FUNNEL_ERR = "no splits needed\nsimple: yes\nisomorphic: yes\n"


def test_round_trips_skip_the_search_and_the_space_lattice(tmp_path, monkeypatch, capsys):
    refuse_the_slow_paths(monkeypatch)
    runs = [(["synth", data_path("gated_cube.lat"), "--mode", "uld"], 0, SYNTH_ERR)]
    runs.append(
        (
            ["synth", data_path("gated_cube.lat"), "--mode", "distributive"],
            1,
            "error: lattice is not distributive: witness triple (abe, a, bcde)\n",
        )
    )
    for path in generated_lattice_files(tmp_path):
        for mode in ("distributive", "uld"):
            runs.append((["synth", path, "--mode", mode], 0, SYNTH_ERR))
    runs.append((["simplify", data_path("relay_chain.cfg")], 0, RELAY_ERR))
    runs.append((["simplify", data_path("funnel.cfg")], 0, FUNNEL_ERR))
    for argv, code, err in runs:
        assert cli.main(argv) == code, argv
        assert capsys.readouterr().err == err, argv


# check, synth and simplify never derive covers, and never import numpy

GATED_CUBE_CHECK = (
    "elements: 23\nlattice: yes\nranked: yes\nheight: 5\ndistributive: no\nULD: yes\n"
    "  hypercube-interval detector: yes\n  cover-step detector: yes\n|J|: 6\n|M|: 5\n"
    "classes: 5 sizes: 2 1 1 1 1\n"
    "arrow witnesses: down=yes updown=yes up(interpretive)=yes\n"
)


def test_cli_paths_build_no_meet_table(tmp_path, monkeypatch, capsys):
    gated, dot = data_path("gated_cube.lat"), tmp_path / "out.dot"
    runs = [["check", gated], ["check", gated, "--dot", str(dot)], ["synth", gated, "--mode", "uld"]]
    for path in generated_lattice_files(tmp_path):
        runs += [["check", path], ["check", path, "--dot", str(dot)]]
        runs += [["synth", path, "--mode", mode] for mode in ("distributive", "uld")]
    runs += [["simplify", data_path(name)] for name in ("relay_chain.cfg", "funnel.cfg")]

    def outcome(argv):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err, dot.read_text() if "--dot" in argv else None

    expected = [outcome(argv) for argv in runs]
    assert [code for code, *_ in expected] == [0] * len(runs)
    assert expected[0][1] == GATED_CUBE_CHECK
    assert expected[1][1] == GATED_CUBE_CHECK + f"dot: {dot}\n"
    assert all(err == SYNTH_ERR for argv, (_, _, err, _) in zip(runs, expected) if argv[0] == "synth")
    assert expected[-2][2] == RELAY_ERR and expected[-1][2] == FUNNEL_ERR

    def refuse(self):
        raise AssertionError("cover matrix built")

    monkeypatch.setattr(Poset, "_cover_matrix", property(refuse))
    for argv, before in zip(runs, expected):
        assert outcome(argv) == before, argv


NO_NUMPY = (
    "import sys, chipfire.cli as c; code = c.main(sys.argv[1:]); "
    "assert 'numpy' not in sys.modules, 'numpy imported'; "
    "assert 'graphlib' not in sys.modules, 'graphlib imported'; sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["check", "gated_cube.lat"], 0, ""),
        (["synth", "gated_cube.lat", "--mode", "uld"], 0, SYNTH_ERR),
        (
            ["synth", "gated_cube.lat", "--mode", "distributive"],
            1,
            "error: lattice is not distributive: witness triple (abe, a, bcde)\n",
        ),
    ],
    ids=["check", "synth-uld", "synth-distributive-witness"],
)
def test_cli_paths_import_no_numpy(argv, code, err):
    """A fresh interpreter runs the command, the triple-law witness included,
    and ends with numpy and graphlib still unimported."""
    src = os.path.dirname(os.path.dirname(chipfire.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [argv[0], data_path(argv[1]), *argv[2:]]
    run = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert (run.returncode, run.stderr) == (code, err)
