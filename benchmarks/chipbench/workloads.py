"""The three op mixes, built block by block from a seed.

A block is a fixed recipe of op shapes; the seed picks each op's instance
(grid size draw, pile, factor order, poset, chain, names). Every block of a
workload therefore carries the same mix, so runs that stop at a block
boundary measure the same mix whatever the seed, and the per-op latency
percentiles fall inside a group of similar ops rather than between groups.
Block ``b`` of seed ``s`` depends only on (workload, s, b), so generating
more blocks never changes the earlier ones.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import inputs, oracles


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv, a label for summaries, the work units it
    completes, and a check of (exit code, stdout, stderr)."""

    argv: tuple[str, ...]
    kind: str
    units: int
    check: Callable[[int, str, str], "str | None"]


class _Writer:
    """Writes one block's input files under the work directory."""

    def __init__(self, workdir: str, block: int):
        self.workdir = workdir
        self.block = block
        self.count = 0

    def path(self, suffix: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"b{self.block}-{self.count}{suffix}")

    def write(self, text: str, suffix: str) -> str:
        path = self.path(suffix)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


# sandpile: firing on grids; nearly all time in the engine, none in lattice

SANDPILE_SIZES = (7, 9, 11, 13, 15, 17, 21)
SANDPILE_RANDOM_PER_BLOCK = 2  # of 7 ops use --order random --seed s


def sandpile_block(rng: random.Random, out: _Writer) -> list[Op]:
    random_slots = set(rng.sample(range(len(SANDPILE_SIZES)), SANDPILE_RANDOM_PER_BLOCK))
    ops = []
    for slot, n in enumerate(SANDPILE_SIZES):
        pile = round(n * n * rng.uniform(1.1, 1.4))
        reach = n // 5
        pos = (n // 2 + rng.randint(-reach, reach), n // 2 + rng.randint(-reach, reach))
        path = out.write(inputs.sandpile_text(n, pile, pos), ".cfg")
        expected, firings = oracles.sandpile_stdout(n, pile, pos)
        argv = ("run", path)
        kind = "run-min"
        if slot in random_slots:
            argv += ("--order", "random", "--seed", str(rng.randrange(10**6)))
            kind = "run-random"
        ops.append(Op(argv, kind, firings, partial(_check_stdout, expected)))
    return ops


def _check_stdout(expected, rc, out, err):
    return oracles.check_exact(expected, rc, out)


# space: enumeration plus the dense lattice layer, 32 to 512 elements

# (shape, argument) per op; "chains" = product of chains with that many
# elements, "funnel" = (funnel copies, chain-product size), "coloured" =
# (shared_gate blocks, split_track blocks). Ordered roughly by cost, which
# puts the median among the 128-element chain products and the 90th
# percentile among the 256-element ones.
SPACE_RECIPE = (
    ("funnel", (2, 1)), ("chains", 32), ("funnel", (1, 8)), ("chains", 64),
    ("coloured", (2, 0)), ("coloured", (1, 1)), ("funnel", (2, 2)), ("coloured", (0, 2)),
    ("funnel", (1, 16)), ("chains", 128), ("chains", 128), ("chains", 128),
    ("funnel", (2, 4)), ("funnel", (3, 1)), ("coloured", (3, 0)), ("funnel", (2, 8)),
    ("chains", 256), ("chains", 256), ("chains", 256), ("chains", 512),
)
SPACE_DOT_PER_BLOCK = 5


def space_block(rng: random.Random, out: _Writer) -> list[Op]:
    dot_slots = set(rng.sample(range(len(SPACE_RECIPE)), SPACE_DOT_PER_BLOCK))
    ops = []
    for slot, (shape, arg) in enumerate(SPACE_RECIPE):
        if shape == "chains":
            text, facts = inputs.product_game(rng, inputs.factorization(rng, arg), 0)
            suffix, flags = ".cfg", ()
        elif shape == "funnel":
            copies, chain = arg
            sizes = inputs.factorization(rng, chain) if chain > 1 else []
            text, facts = inputs.product_game(rng, sizes, copies)
            suffix, flags = ".cfg", ()
        else:
            text, facts = inputs.coloured_product(rng, *arg)
            suffix, flags = ".ccfg", ("--coloured",)
        path = out.write(text, suffix)
        dot = out.path(".dot") if slot in dot_slots else None
        argv = ("space", path) + flags + (("--dot", dot) if dot else ())
        kind = f"space-{shape}" + ("-dot" if dot else "")
        expected = oracles.space_stdout(facts, dot)
        ops.append(Op(argv, kind, facts.n, partial(_check_space, expected, facts, dot)))
    return ops


def _check_space(expected, facts, dot, rc, out, err):
    reason = oracles.check_exact(expected, rc, out)
    if reason is None and dot:
        try:
            with open(dot, encoding="utf-8") as handle:
                reason = oracles.check_dot(handle.read(), facts)
        except OSError as exc:
            reason = f"cannot read the DOT file: {exc}"
    return reason


# roundtrip: check / synth / simplify on parsed lattices and non-simple games

# ("check" | "synth-distributive" | "synth-uld", lattice source) or
# ("simplify", space-size range). Lattice sources: ("ideal", poset size,
# ideal-count range), ("boolean", dim), ("product", chain-product size,
# funnel copies). The last four ops are the heavy ones: three checks of
# 256-element chain products hold the 90th percentile, the synthesis from
# the 256-element boolean lattice tops it.
ROUNDTRIP_RECIPE = (
    ("check", ("ideal", 6, (20, 40))),
    ("synth-distributive", ("ideal", 7, (20, 40))),
    ("synth-uld", ("ideal", 8, (40, 80))),
    ("check", ("ideal", 9, (40, 80))),
    ("synth-distributive", ("ideal", 10, (80, 160))),
    ("synth-uld", ("ideal", 9, (80, 160))),
    ("check", ("boolean", 5)),
    ("synth-distributive", ("boolean", 6)),
    ("synth-uld", ("boolean", 7)),
    ("synth-uld", ("product", 1, 2)),
    ("synth-uld", ("product", 8, 1)),
    ("check", ("product", 2, 2)),
    ("synth-distributive", ("product", 64, 0)),
    ("synth-uld", ("product", 4, 2)),
    ("simplify", (10, 30)),
    ("simplify", (30, 60)),
    ("simplify", (60, 120)),
    ("check", ("product", 256, 0)),
    ("check", ("product", 256, 0)),
    ("check", ("product", 256, 0)),
    ("synth-distributive", ("boolean", 8)),
)


def _lattice(rng, source):
    kind = source[0]
    if kind == "ideal":
        _, size, band = source
        down, _ = inputs.random_poset(rng, size, band)
        return inputs.ideal_lattice_text(rng, down)
    if kind == "boolean":
        return inputs.boolean_lattice_text(rng, source[1])
    _, chain, funnels = source
    sizes = inputs.factorization(rng, chain) if chain > 1 else []
    return inputs.product_lattice_text(rng, sizes, funnels)


def _relay(rng, band):
    lo, hi = band
    for _ in range(10_000):
        text = inputs.relay_chain(rng)
        size, counts = oracles.classical_space(text)
        if lo <= size <= hi and max(counts) > 1:
            return text, size
    raise RuntimeError(f"no relay chain with a space of {lo}..{hi} elements")


def roundtrip_block(rng: random.Random, out: _Writer) -> list[Op]:
    ops = []
    for command, arg in ROUNDTRIP_RECIPE:
        if command == "simplify":
            text, size = _relay(rng, arg)
            path = out.write(text, ".cfg")
            dest = out.path(".out.cfg")
            check = partial(_check_simplify, size, dest)
            ops.append(Op(("simplify", path, "-o", dest), "simplify", size, check))
            continue
        text, facts = _lattice(rng, arg)
        path = out.write(text, ".lat")
        kind = f"{command}-{arg[0]}"
        if command == "check":
            check = partial(_check_analysis, facts)
            ops.append(Op(("check", path), kind, facts.n, check))
        else:
            mode = command.split("-", 1)[1]
            dest = out.path(".out.ccfg" if mode == "uld" else ".out.cfg")
            check = partial(_check_synth, facts, mode, dest)
            ops.append(Op(("synth", path, "--mode", mode, "-o", dest), kind, facts.n, check))
    return ops


def _check_analysis(facts, rc, out, err):
    return oracles.check_analysis(facts, rc, out)


def _check_synth(facts, mode, dest, rc, out, err):
    return oracles.check_synth(facts, mode, rc, err, dest)


def _check_simplify(size, dest, rc, out, err):
    return oracles.check_simplify(size, rc, err, dest)


BLOCKS = {
    "sandpile": sandpile_block,
    "space": space_block,
    "roundtrip": roundtrip_block,
}


def generate(workload: str, seed: int, blocks: int, workdir: str) -> list[list[Op]]:
    """Blocks 0..blocks-1 of a workload, with their input files written."""
    make = BLOCKS[workload]
    out = []
    for b in range(blocks):
        rng = random.Random(f"{workload}:{seed}:{b}")
        out.append(make(rng, _Writer(workdir, b)))
    return out


def summary(blocks: list[list[Op]]) -> dict:
    """Per-seed record of the generated inputs: op count, unit totals and
    size range, overall and per op kind."""
    by_kind: dict[str, dict] = {}
    for op in (op for block in blocks for op in block):
        row = by_kind.setdefault(op.kind, {"ops": 0, "units": 0, "min": op.units, "max": op.units})
        row["ops"] += 1
        row["units"] += op.units
        row["min"] = min(row["min"], op.units)
        row["max"] = max(row["max"], op.units)
    return {
        "blocks": len(blocks),
        "ops": sum(r["ops"] for r in by_kind.values()),
        "units": sum(r["units"] for r in by_kind.values()),
        "min_units": min(r["min"] for r in by_kind.values()),
        "max_units": max(r["max"] for r in by_kind.values()),
        "by_kind": dict(sorted(by_kind.items())),
    }
