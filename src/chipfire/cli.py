"""Command-line interface.

Subcommands: ``run`` (play a game to its fixpoint), ``space`` (enumerate the
configuration space), ``check`` (analyse a lattice file), ``synth``
(synthesize a game from a lattice), ``simplify`` (split until simple). The
round-trip verdict of ``synth`` and ``simplify`` is the check of their
construction's own map (``transforms.is_hasse_isomorphism``), nothing else:
it reads both sides' upper-cover rows and the packed firing vectors.

Exit codes: 0 success, 1 predicate or validation failure, 2 parse error or
unreadable input or unwritable output file, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import transforms
from .coloured import ColouredCfg
from .engine import Cfg
from .errors import CapExceeded, FiringVectorConflict, NotALatticeError, ParseError
from .formats import (
    lattice_to_dot,
    parse_game_file,
    parse_lattice_file,
    serialize_game,
    space_to_dot,
)
from .lattice import arrow_witness_report

DEFAULT_STATE_CAP = 10**5
DEFAULT_STEP_CAP = 10**6


def _load_classical(path) -> Cfg:
    game = parse_game_file(path)
    if not isinstance(game, Cfg):
        raise ValueError(f"{path}: expected a classical game, found a coloured one")
    return game


def _non_negative_int(text: str) -> int:
    """An argparse type for caps: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


class _WriteError(Exception):
    """Writing ``--dot`` or ``-o`` output failed; wraps the OSError."""


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _WriteError(exc) from exc
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    game = _load_classical(args.game)
    if not game.converges_guaranteed and args.step_cap is None:
        raise ValueError(
            "no sink is reachable from every vertex; pass --step-cap to run anyway"
        )
    step_cap = args.step_cap if args.step_cap is not None else DEFAULT_STEP_CAP
    trace = None
    if args.trace:
        trace = lambda v, conf: print(f"fire {game.graph.names[v]}")
    rng = random.Random(args.seed)
    run = game.run_to_fixpoint(
        policy=args.order, step_cap=step_cap, rng=rng, on_fire=trace
    )
    names = game.graph.names
    if run.steps == 0:
        print("no firings")
    print("final: " + " ".join(f"{names[v]}={c}" for v, c in enumerate(run.final)))
    print("fired: " + " ".join(f"{names[v]}={c}" for v, c in enumerate(run.counts)))
    return 0


def cmd_space(args) -> int:
    game = parse_game_file(args.game)
    if args.coloured and not isinstance(game, ColouredCfg):
        raise ValueError(f"{args.game}: --coloured given but the file is classical")
    space = game.enumerate_space(state_cap=args.cap)
    # read from covers and moves, after the moves are checked to commute; the
    # height is the top's level: without --dot no state is unpacked
    ranked, distributive, uld = space.is_ranked, space.is_distributive, space.is_uld
    print(f"elements: {len(space)}")
    print(f"height: {space.height}")
    print(f"ranked: {_yes(ranked)}")
    print(f"distributive: {_yes(distributive)}")
    print(f"ULD: {_yes(uld)}")
    if args.dot:
        _emit(space_to_dot(space), args.dot)
        print(f"dot: {args.dot}")
    return 0


def cmd_check(args) -> int:
    lattice = parse_lattice_file(args.lattice)
    print(f"elements: {lattice.n}")
    print("lattice: yes")
    print(f"ranked: {_yes(lattice.is_ranked)}")
    print(f"height: {lattice.height}")
    print(f"distributive: {_yes(lattice.is_distributive)}")
    by_cube, by_step = lattice.uld_detectors
    print(f"ULD: {_yes(lattice.is_uld)}")
    print(f"  hypercube-interval detector: {_yes(by_cube)}")
    print(f"  cover-step detector: {_yes(by_step)}")
    print(f"|J|: {len(lattice.J)}")
    print(f"|M|: {len(lattice.M)}")
    if lattice.is_uld:
        sizes = lattice.arrow_partition().class_sizes()
        print(f"classes: {len(sizes)} sizes: {' '.join(map(str, sizes))}")
    report = arrow_witness_report(lattice)
    updown = "n/a" if report.updown_ok is None else _yes(report.updown_ok)
    print(
        f"arrow witnesses: down={_yes(report.down_ok)} "
        f"updown={updown} up(interpretive)={_yes(report.up_ok)}"
    )
    if args.dot:
        _emit(lattice_to_dot(lattice, edge_labels=lattice.is_uld), args.dot)
        print(f"dot: {args.dot}")
    return 0


def cmd_synth(args) -> int:
    lattice = parse_lattice_file(args.lattice)
    if args.mode == "distributive":
        game = transforms.cfg_from_distributive(lattice)
    else:
        game = transforms.coloured_from_uld(lattice)
    space = game.enumerate_space(state_cap=args.cap)
    verdict = transforms.is_hasse_isomorphism(  # both games put M[b] on vertex b
        transforms.distributive_map(lattice, space), space.ups, lattice._upper_covers
    )
    _emit(serialize_game(game), args.out)
    print(f"synthesized: {args.out or 'stdout'}", file=sys.stderr)
    print(f"round-trip: {'isomorphic' if verdict else 'NOT isomorphic'}", file=sys.stderr)
    return 0 if verdict else 1


def cmd_simplify(args) -> int:
    game = _load_classical(args.game)
    if not game.converges_guaranteed:
        raise ValueError("no sink is reachable from every vertex; refusing to simplify")
    simple, reports = transforms.simplify(game)
    _emit(serialize_game(simple), args.out)
    if not reports:
        print("no splits needed", file=sys.stderr)
    for rep in reports:
        print(
            f"split: {rep.vertex} surplus={rep.surplus} iteration={rep.iteration}",
            file=sys.stderr,
        )
    print(f"simple: {_yes(simple.is_simple())}", file=sys.stderr)
    before = game.enumerate_space(state_cap=args.cap)
    after = simple.enumerate_space(state_cap=args.cap)
    verdict = transforms.is_hasse_isomorphism(
        transforms.split_map(reports, before, after), after.ups, before.ups
    )
    print(f"isomorphic: {_yes(verdict)}", file=sys.stderr)
    return 0 if verdict else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Chip-firing games, their configuration-space lattices, "
        "and lattice-to-game synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="play a game to its fixed point")
    p.add_argument("game")
    p.add_argument("--order", choices=("min", "max", "random"), default="min")
    p.add_argument("--seed", type=int, default=0, help="seed for --order=random")
    p.add_argument("--trace", action="store_true", help="print each firing")
    p.add_argument("--step-cap", type=_non_negative_int, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("space", help="enumerate the configuration space")
    p.add_argument("game")
    p.add_argument("--coloured", action="store_true", help="require a coloured game")
    p.add_argument("--dot", metavar="PATH", help="write the Hasse diagram as DOT")
    p.add_argument("--cap", type=_non_negative_int, default=DEFAULT_STATE_CAP)
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("check", help="analyse a lattice file")
    p.add_argument("lattice")
    p.add_argument("--dot", metavar="PATH", help="write the Hasse diagram as DOT")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synth", help="synthesize a game from a lattice")
    p.add_argument("lattice")
    p.add_argument("--mode", choices=("distributive", "uld"), required=True)
    p.add_argument("-o", "--out", help="write the game here instead of stdout")
    p.add_argument("--cap", type=_non_negative_int, default=DEFAULT_STATE_CAP)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simplify", help="split vertices until the game is simple")
    p.add_argument("game")
    p.add_argument("-o", "--out", help="write the game here instead of stdout")
    p.add_argument("--cap", type=_non_negative_int, default=DEFAULT_STATE_CAP)
    p.set_defaults(func=cmd_simplify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reads arguments with; parsing keeps no state
    in it, so one per process serves every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, _WriteError) as exc:
        what = "write output" if isinstance(exc, _WriteError) else "read input"
        print(f"cannot {what}: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (NotALatticeError, ValueError, FiringVectorConflict) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
