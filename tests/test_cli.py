import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from chipfire import cli
from chipfire.cli import build_parser, main
from chipfire.formats import parse_game_file, serialize_game
from chipfire.multigraph import Multigraph

from helpers import replaying_simplify


def data_path(name):
    return str(resources.files("chipfire.data").joinpath(name))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_funnel(capsys):
    assert main(["run", data_path("funnel.cfg")]) == 0
    out = capsys.readouterr().out
    assert "final: a=0 b=0 c=1 d=2" in out
    assert "fired: a=1 b=1 c=1 d=0" in out


def test_run_trace(capsys):
    assert main(["run", data_path("funnel.cfg"), "--trace"]) == 0
    out = capsys.readouterr().out
    assert out.count("fire ") == 3


def test_run_zero_chips(tmp_path, capsys):
    path = write(tmp_path, "idle.cfg", "vertices: a b\nedge: a b 1\nchips: a=0\n")
    assert main(["run", path]) == 0
    assert "no firings" in capsys.readouterr().out


def test_run_random_policies_agree(capsys):
    main(["run", data_path("relay_chain.cfg"), "--order=random", "--seed=1"])
    first = capsys.readouterr().out
    main(["run", data_path("relay_chain.cfg"), "--order=random", "--seed=9"])
    second = capsys.readouterr().out
    assert first == second


def test_run_refuses_sink_free_cycle(tmp_path, capsys):
    path = write(tmp_path, "cycle.cfg", "vertices: a b\nedge: a b 1\nedge: b a 1\nchips: a=1\n")
    assert main(["run", path]) == 1
    assert "sink" in capsys.readouterr().err
    # an explicit cap turns the refusal into a cap error
    assert main(["run", path, "--step-cap", "10"]) == 3


def test_run_step_cap_on_a_convergent_game_says_it_converges(tmp_path, capsys):
    path = write(tmp_path, "drain.cfg", "vertices: a t\nedge: a t 1\nchips: a=100000000000000000000\n")
    assert main(["run", path, "--step-cap", "5"]) == 3
    assert capsys.readouterr().err == (
        "cap exceeded: the game converges, but the step cap came first: "
        "no fixpoint within step cap 5\n"
    )
    cycle = write(tmp_path, "cycle.cfg", "vertices: a b\nedge: a b 1\nedge: b a 1\nchips: a=1\n")
    assert main(["run", cycle, "--step-cap", "10"]) == 3
    assert capsys.readouterr().err == (
        "cap exceeded: possibly divergent: no fixpoint within step cap 10\n"
    )


def test_run_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.cfg", "vertices: a\nedge: a zz 1\n")
    assert main(["run", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_run_missing_file_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    err = capsys.readouterr().err
    assert "cannot read input" in err
    assert "Traceback" not in err


def test_unwritable_output_is_a_write_failure(tmp_path, capsys):
    dot = tmp_path / "missing" / "x.dot"
    assert main(["space", data_path("funnel.cfg"), "--dot", str(dot)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "elements: 7" and len(out.splitlines()) == 5
    assert err.startswith("cannot write output: [Errno 2] ")
    assert err.endswith(f"{str(dot)!r}\n")
    assert main(["synth", data_path("gated_cube.lat"), "--mode", "uld", "-o", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"cannot write output: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_space_cap_zero_refuses_a_one_state_game(tmp_path, capsys):
    path = write(tmp_path, "one.cfg", "vertices: a s\nedge: a s 1\nchips: a=0\n")
    assert main(["space", path, "--cap", "0"]) == 3
    assert capsys.readouterr() == ("", "cap exceeded: state space exceeds cap 0\n")
    assert main(["space", path, "--cap", "1"]) == 0
    assert capsys.readouterr().out.startswith("elements: 1\n")


def test_space_funnel(capsys):
    assert main(["space", data_path("funnel.cfg")]) == 0
    out = capsys.readouterr().out
    assert "elements: 7" in out
    assert "height: 3" in out
    assert "ranked: yes" in out
    assert "distributive: no" in out
    assert "ULD: yes" in out


def test_space_coloured(capsys):
    assert main(["space", data_path("shared_gate.ccfg"), "--coloured"]) == 0
    out = capsys.readouterr().out
    assert "elements: 7" in out
    assert "ULD: yes" in out


def test_space_coloured_flag_on_classical(capsys):
    assert main(["space", data_path("funnel.cfg"), "--coloured"]) == 1


def test_space_singleton(tmp_path, capsys):
    path = write(tmp_path, "one.cfg", "vertices: a\nchips: a=0\n")
    assert main(["space", path]) == 0
    out = capsys.readouterr().out
    assert "elements: 1" in out
    assert "height: 0" in out


def test_space_dot_deterministic(tmp_path, capsys):
    dot1 = tmp_path / "a.dot"
    dot2 = tmp_path / "b.dot"
    main(["space", data_path("funnel.cfg"), "--dot", str(dot1)])
    main(["space", data_path("funnel.cfg"), "--dot", str(dot2)])
    capsys.readouterr()
    assert dot1.read_bytes() == dot2.read_bytes()


def test_space_cap_exit_code(capsys):
    assert main(["space", data_path("relay_chain.cfg"), "--cap", "2"]) == 3


def test_space_coloured_cap_exit_code(capsys):
    args = ["space", data_path("shared_gate.ccfg"), "--coloured", "--cap", "2"]
    assert main(args) == 3
    assert capsys.readouterr().err == "cap exceeded: state space exceeds cap 2\n"


def test_space_negative_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["space", data_path("relay_chain.cfg"), "--cap", "-1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: chipfire space")
    assert "--cap: must be a non-negative integer, got -1" in err


def test_run_negative_step_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", data_path("relay_chain.cfg"), "--step-cap", "-1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: chipfire run")
    assert "--step-cap: must be a non-negative integer, got -1" in err


def test_check_gated_cube(capsys):
    assert main(["check", data_path("gated_cube.lat")]) == 0
    out = capsys.readouterr().out
    assert "elements: 23" in out
    assert "ULD: yes" in out
    assert "distributive: no" in out
    assert "height: 5" in out
    assert "|M|: 5" in out
    assert "|J|: 6" in out
    assert "classes: 5" in out
    assert "down=yes" in out


def test_check_boolean_dim3(tmp_path, capsys):
    from chipfire.formats import serialize_lattice
    from chipfire.lattice import Lattice

    path = write(tmp_path, "b3.lat", serialize_lattice(Lattice.boolean(3)))
    assert main(["check", path]) == 0
    assert "distributive: yes" in capsys.readouterr().out


def test_check_pentagon(tmp_path, capsys):
    from chipfire.formats import serialize_lattice
    from chipfire.fixtures import pentagon

    path = write(tmp_path, "n5.lat", serialize_lattice(pentagon()))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "ULD: no" in out
    assert "ranked: no" in out


def test_check_not_a_lattice(tmp_path, capsys):
    path = write(tmp_path, "bad.lat", "elements: a b\n")
    assert main(["check", path]) == 1
    assert "not a lattice" in capsys.readouterr().err


def test_check_every_join_but_no_least_element(tmp_path, capsys):
    path = write(tmp_path, "vee.lat", "elements: a b t\ncover: a t\ncover: b t\n")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == "error: not a lattice: a and b have no common lower bound\n"


def test_synth_distributive_chain(tmp_path, capsys):
    lat = write(tmp_path, "c3.lat", "elements: x y z\ncover: x y\ncover: y z\n")
    out_path = tmp_path / "game.cfg"
    assert main(["synth", lat, "--mode", "distributive", "-o", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert "round-trip: isomorphic" in err
    text = out_path.read_text()
    assert "vertices:" in text and "chips:" in text


def test_synth_uld_gated_cube(tmp_path, capsys):
    out_path = tmp_path / "game.ccfg"
    assert main(["synth", data_path("gated_cube.lat"), "--mode", "uld", "-o", str(out_path)]) == 0
    assert "round-trip: isomorphic" in capsys.readouterr().err
    from chipfire.coloured import ColouredCfg
    from chipfire.formats import parse_game_file

    game = parse_game_file(out_path)
    assert isinstance(game, ColouredCfg)


def test_synth_distributive_rejects_gated_cube(capsys):
    assert main(["synth", data_path("gated_cube.lat"), "--mode", "distributive"]) == 1
    assert "not distributive" in capsys.readouterr().err


def test_simplify_relay(tmp_path, capsys):
    out_path = tmp_path / "simple.cfg"
    assert main(["simplify", data_path("relay_chain.cfg"), "-o", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert "split: v" in err
    assert "simple: yes" in err
    assert "isomorphic: yes" in err


def test_simplify_drains_each_game_once(monkeypatch):
    # the input game's guard is cached: one drain for it, one for the result
    calls = []
    drain_set = Multigraph.drain_set

    def counting(graph):
        calls.append(graph)
        return drain_set(graph)

    monkeypatch.setattr(Multigraph, "drain_set", counting)
    assert main(["simplify", data_path("relay_chain.cfg")]) == 0
    assert len(calls) == 2
    assert calls[0] != calls[1]


def test_simplify_writes_the_replayed_game_of_a_40_chip_source(tmp_path, capsys):
    path = write(tmp_path, "source.cfg", "vertices: a t\nedge: a t 1\nchips: a=40\n")
    out_path = tmp_path / "simple.cfg"
    assert main(["simplify", path, "-o", str(out_path)]) == 0
    replayed, reports = replaying_simplify(parse_game_file(path))
    assert out_path.read_bytes() == serialize_game(replayed).encode()
    err = capsys.readouterr().err.splitlines()
    assert len(reports) == 39
    assert [line for line in err if line.startswith("split: ")] == [
        f"split: {r.vertex} surplus={r.surplus} iteration={r.iteration}" for r in reports
    ]
    assert "isomorphic: yes" in err


def test_simplify_already_simple(tmp_path, capsys):
    assert main(["simplify", data_path("funnel.cfg"), "-o", str(tmp_path / "o.cfg")]) == 0
    assert "no splits needed" in capsys.readouterr().err


def test_simplify_refuses_cycle(tmp_path, capsys):
    path = write(tmp_path, "cycle.cfg", "vertices: a b\nedge: a b 1\nedge: b a 1\nchips: a=1\n")
    assert main(["simplify", path]) == 1


def test_simplify_over_the_round_cap_is_a_cap_line(tmp_path, capsys):
    # a fires 1002 times: 1001 splits, more than the default 1000 rounds allow
    path = write(tmp_path, "heavy.cfg", "vertices: a t\nedge: a t 1\nchips: a=1002\n")
    assert main(["simplify", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cap exceeded: ")


def test_simplify_stops_its_fixpoint_run_at_the_round_cap(tmp_path, capsys):
    # 10^9 firings would take minutes; over 1000 + 2 of them, splits exceed 1000
    path = write(tmp_path, "huge.cfg", "vertices: s t\nedge: s t 1\nchips: s=1000000000\n")
    start = time.perf_counter()
    assert main(["simplify", path]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cap exceeded: simplifying takes more than")


def test_cli_outputs_are_deterministic(capsys):
    main(["check", data_path("gated_cube.lat")])
    first = capsys.readouterr().out
    main(["check", data_path("gated_cube.lat")])
    second = capsys.readouterr().out
    assert first == second


def test_space_on_a_cycling_game_is_an_error_line(tmp_path, capsys):
    # no sink: firing a then b returns to the start with another firing vector
    path = write(tmp_path, "cycle.cfg", "vertices: a b\nedge: a b 1\nedge: b a 1\nchips: a=1\n")
    assert main(["space", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: revisited state with a different firing vector\n"


def test_main_parses_with_one_parser_per_process(tmp_path, capsys, monkeypatch):
    """Calls in one process, different commands in turn and argparse errors
    among them, print what each prints in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    dot = str(tmp_path / "space.dot")
    funnel, cube = data_path("funnel.cfg"), data_path("gated_cube.lat")
    calls = [
        ["run", funnel],
        ["space", funnel, "--dot", dot],
        ["space", data_path("shared_gate.ccfg"), "--coloured"],
        ["check", cube],
        ["synth", cube, "--mode", "uld"],
        ["simplify", data_path("relay_chain.cfg")],
        ["space"],  # no game: argparse exits with 2
        ["run", funnel],
        ["space", funnel, "--cap", "-1"],
        ["frobnicate"],
        ["run", funnel, "--order", "sideways"],
        ["check", cube],
    ]
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        written = Path(dot).read_text() if "--dot" in argv else None
        fresh = subprocess.run(
            [sys.executable, "-m", "chipfire.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (rc, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        if written is not None:
            assert Path(dot).read_text() == written
    assert cli._parser() is cli._parser()


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()
    assert build_parser() is not cli._parser()
