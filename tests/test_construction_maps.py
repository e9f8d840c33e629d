"""The constructions' own maps from states to lattice elements.

``synth`` and ``simplify`` decide their round trip by checking the map each
construction implies (``distributive_map``, ``uld_map``, ``split_map``) with
``is_hasse_isomorphism``; that check is the whole verdict. It compares each
state's mapped upper-cover row with the target's row. These tests compare
the check with ``is_isomorphic`` on the seeded corpora and on hypothesis
games, and with the definition, a bijection that maps one cover-pair set
exactly onto the other (``helpers.pair_set_hasse_isomorphism``), on the
same maps perturbed at random. They corrupt cover rows and map entries to see both checks refuse
them and the CLI exit 1, and run the CLI with the search, the dense space
lattice or the derived cover matrix switched off, and in a fresh interpreter
that must never import numpy. The coding maps are compared entry for entry
with a fold through pairwise meets.
"""

import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings

import chipfire
from chipfire import cli, transforms
from chipfire import lattice as lattice_module
from chipfire.engine import Cfg, ConfigSpace
from chipfire.formats import serialize_lattice
from chipfire.lattice import Lattice, Poset, ideal_lattice, is_isomorphic
from chipfire.multigraph import Multigraph

from helpers import (
    convergent_games,
    data_path,
    meet_table_map,
    pair_set_hasse_isomorphism,
    paper_arrow_classes,
    paper_coloured_from_uld,
    paper_uld_map,
)


def synth_check(lattice, mode):
    """(map, the space's rows, the lattice's rows, the space) for
    synthesizing from ``lattice``: what ``cli.cmd_synth`` checks."""
    if mode == "distributive":
        game, to_lattice = transforms.cfg_from_distributive(lattice), transforms.distributive_map
    else:
        game, to_lattice = transforms.coloured_from_uld(lattice), transforms.uld_map
    space = game.enumerate_space()
    return to_lattice(lattice, space), space.ups, lattice._upper_covers, space


def simplify_check(game):
    """(map, the simple space's rows, the original's rows, original space,
    simple space) for simplifying ``game``: what ``cli.cmd_simplify`` checks."""
    simple, reports = transforms.simplify(game)
    before, after = game.enumerate_space(), simple.enumerate_space()
    return transforms.split_map(reports, before, after), after.ups, before.ups, before, after


def synth_round_trip(lattice, mode):
    """(map check, search verdict) for synthesizing from ``lattice``."""
    *check, space = synth_check(lattice, mode)
    return transforms.is_hasse_isomorphism(*check), is_isomorphic(space.lattice(), lattice)


def simplify_round_trip(game):
    """(map check, search verdict) for simplifying ``game``."""
    *check, before, after = simplify_check(game)
    return transforms.is_hasse_isomorphism(*check), is_isomorphic(before.lattice(), after.lattice())


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
    # the paper's game, with its own vertex order, rides along with "uld"
    modes += ("paper",) if "uld" in modes else ()
    for mode in modes:
        if mode == "distributive":
            game, to_lattice = transforms.cfg_from_distributive(lattice), transforms.distributive_map
            ms = lattice.M
        elif mode == "uld":
            game, to_lattice = transforms.coloured_from_uld(lattice), transforms.uld_map
            ms = lattice.M
        else:
            game, to_lattice = paper_coloured_from_uld(lattice), paper_uld_map
            ms = [m for _, m in paper_arrow_classes(lattice)]
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
    assert not transforms.is_hasse_isomorphism(image, space.ups, chain._upper_covers)
    assert not pair_set_hasse_isomorphism(image, space.ups, chain._upper_covers)


# fault injection: row mutants and map mutants, refused by the row check and
# by the pair-set oracle alike


def checked_round_trips():
    """(name, map, source rows, target rows) of three round trips that pass."""
    gated = cli.parse_lattice_file(data_path("gated_cube.lat"))
    relay = cli._load_classical(data_path("relay_chain.cfg"))
    return [
        ("synth-distributive-boolean", *synth_check(Lattice.boolean(3), "distributive")[:3]),
        ("synth-uld-gated-cube", *synth_check(gated, "uld")[:3]),
        ("simplify-relay-chain", *simplify_check(relay)[:3]),
    ]


def both_verdicts(image, rows, target_rows):
    return (
        transforms.is_hasse_isomorphism(image, rows, target_rows),
        pair_set_hasse_isomorphism(image, rows, target_rows),
    )


def row_mutants(rows, n):
    """Each one-entry corruption of the rows, each row kept ascending: an
    entry off by one element, an entry dropped (a missing cover), and an
    element the row does not hold added (an extra cover). As (kind, rows)."""
    for x, ups in enumerate(rows):
        for k, y in enumerate(ups):
            rest = ups[:k] + ups[k + 1 :]
            for wrong in (y - 1, y + 1):
                if 0 <= wrong < n:
                    yield "off by one", rows[:x] + (tuple(sorted(rest + (wrong,))),) + rows[x + 1 :]
            yield "dropped", rows[:x] + (rest,) + rows[x + 1 :]
        for z in set(range(n)) - set(ups):
            yield "extra", rows[:x] + (tuple(sorted(ups + (z,))),) + rows[x + 1 :]


def test_correct_map_passes():
    for name, image, rows, target_rows in checked_round_trips():
        assert both_verdicts(image, rows, target_rows) == (True, True), name
    # without covers, only the bijection check can refuse
    assert both_verdicts([0], ((),), ((),)) == (True, True)
    assert both_verdicts([1], ((),), ((),)) == (False, False)


def test_corrupted_cover_fails():
    for name, image, rows, target_rows in checked_round_trips():
        kinds = set()
        for kind, bad in row_mutants(rows, len(rows)):  # a source row
            assert both_verdicts(image, bad, target_rows) == (False, False), (name, kind, bad)
            kinds.add(kind)
        for kind, bad in row_mutants(target_rows, len(target_rows)):  # a target row
            assert both_verdicts(image, rows, bad) == (False, False), (name, kind, bad)
        assert kinds == {"off by one", "dropped", "extra"}, name


def test_corrupted_map_entry_fails():
    for name, image, rows, target_rows in checked_round_trips():
        n = len(target_rows)
        for i in range(n):  # two states sent to one element
            for wrong in {image[0], image[-1], image[(i + 1) % n]} - {image[i]}:
                bad = image[:i] + [wrong] + image[i + 1 :]
                assert both_verdicts(bad, rows, target_rows) == (False, False), (name, i, wrong)
        # a bijection that swaps the bottom and the top is refused too
        bad = [image[-1]] + image[1:-1] + [image[0]]
        assert both_verdicts(bad, rows, target_rows) == (False, False), name
        assert both_verdicts(image[:-1], rows, target_rows) == (False, False), name  # short
        assert both_verdicts(None, rows, target_rows) == (False, False), name
        # an extra source element folded onto the top (the last state), with a cover into it
        top = len(rows) - 1
        folded_rows = tuple(ups + (n,) if top in ups else ups for ups in rows) + ((),)
        folded = image + [image[top]]
        assert both_verdicts(folded, folded_rows, target_rows) == (False, False), name


# differential: the row check against the pair-set oracle on perturbed maps


def assert_checks_agree(image, rows, target_rows, rng, tries=6):
    """Both checks give one verdict on ``image``, and on copies of it with
    two entries swapped, one entry moved, or every entry shuffled: a
    shuffle that hits an automorphism passes both."""
    images = [image]
    for _ in range(tries):
        bad = list(image)
        i, j = rng.randrange(len(bad)), rng.randrange(len(bad))
        kind = rng.randrange(3)
        if kind == 0:
            bad[i], bad[j] = bad[j], bad[i]
        elif kind == 1:
            bad[i] = rng.randrange(len(target_rows))
        else:
            rng.shuffle(bad)
        images.append(bad)
    for bad in images:
        by_rows, by_pairs = both_verdicts(bad, rows, target_rows)
        assert by_rows == by_pairs, (bad, image)
    assert both_verdicts(image, rows, target_rows) == (True, True)


def test_checks_agree_on_the_corpora(
    game_corpus, space_corpus, coloured_space_corpus, distributive_corpus
):
    rng = random.Random(36)
    for lat in distributive_corpus:
        for mode in ("distributive", "uld"):
            assert_checks_agree(*synth_check(lat, mode)[:3], rng)
    for game, space in zip(game_corpus, space_corpus):
        assert_checks_agree(*synth_check(space.lattice(), "uld")[:3], rng)
        assert_checks_agree(*simplify_check(game)[:3], rng)
    for space in coloured_space_corpus:
        assert_checks_agree(*synth_check(space.lattice(), "uld")[:3], rng)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergent_games())
def test_checks_agree_on_generated_games(game):
    rng = random.Random(len(game.graph.names))
    lat = game.enumerate_space().lattice()
    assert_checks_agree(*synth_check(lat, "uld")[:3], rng)
    if lat.is_distributive:
        assert_checks_agree(*synth_check(lat, "distributive")[:3], rng)
    assert_checks_agree(*simplify_check(game)[:3], rng)


def test_split_map_refuses_unknown_vectors():
    game = cli._load_classical(data_path("relay_chain.cfg"))
    simple, reports = transforms.simplify(game)
    before, after = game.enumerate_space(), simple.enumerate_space()
    assert transforms.split_map(reports, before, after) is not None
    assert transforms.split_map(reports[:-1], before, after) is None
    shifted = [replace(rep, index=rep.index + 1) for rep in reports]
    image = transforms.split_map(shifted, before, after)
    assert both_verdicts(image, after.ups, before.ups) == (False, False)


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
        (["synth", data_path("gated_cube.lat"), "--mode", "uld"], "distributive_map",
         "round-trip: NOT isomorphic"),
        (["synth", "boolean.lat", "--mode", "uld"], "distributive_map",
         "round-trip: NOT isomorphic"),
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
