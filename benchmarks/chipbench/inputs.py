"""Seeded input generators, written in the text formats the CLI reads.

Every generator takes a ``random.Random`` and returns file text together
with the facts the oracles need. None of them imports ``chipfire``: the
facts come from closed forms or from the small explorers in ``oracles``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple


class Facts(NamedTuple):
    """What a lattice must look like: sizes, height, irreducibles, distributivity."""

    n: int
    height: int
    covers: int
    j: int
    m: int
    distributive: bool


def chain_facts(r: int) -> Facts:
    """A chain with r covers (a source that fires r times)."""
    return Facts(r + 1, r, r, r, r, True)


# The funnel's space (and the shared_gate coloured game's space) is the
# 7-element lattice {}, a, b, ab, ac, bc, abc: ULD, not distributive.
FUNNEL_COVERS = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 6), (5, 6))
FUNNEL = Facts(7, 3, 9, 4, 3, False)
# The split_track coloured game realizes the 3x3 grid of ideals.
TRACK = Facts(9, 4, 12, 4, 4, True)


def product_facts(factors) -> Facts:
    """Facts of a direct product: elements multiply, heights and |J|, |M| add."""
    n = 1
    for f in factors:
        n *= f.n
    return Facts(
        n=n,
        height=sum(f.height for f in factors),
        covers=sum(f.covers * (n // f.n) for f in factors),
        j=sum(f.j for f in factors),
        m=sum(f.m for f in factors),
        distributive=all(f.distributive for f in factors),
    )


def factorization(rng, n: int) -> list[int]:
    """A seeded factorization of n into factors 2, 3, 4 or 8 (chain sizes)."""
    out = []
    while n > 1:
        options = [p for p in (2, 3, 4, 8) if n % p == 0]
        if not options:
            raise ValueError(f"{n} has no factor among 2, 3, 4, 8")
        p = rng.choice(options)
        out.append(p)
        n //= p
    rng.shuffle(out)
    return out


# games


def _game_text(names, edges, chips) -> str:
    lines = ["vertices: " + " ".join(names)]
    lines += [f"edge: {u} {v} {k}" + (f" colour={c}" if c else "") for u, v, k, c in edges]
    lines.append("chips: " + " ".join(chips))
    return "\n".join(lines) + "\n"


def sandpile_text(n: int, pile: int, pos: tuple[int, int]) -> str:
    """Abelian sandpile on an n x n grid: every cell has out-degree 4 and
    boundary cells send their missing neighbours' chips to one sink."""
    names = [f"r{i}c{j}" for i in range(n) for j in range(n)] + ["sink"]
    edges = []
    for i in range(n):
        for j in range(n):
            lost = 0
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= a < n and 0 <= b < n:
                    edges.append((f"r{i}c{j}", f"r{a}c{b}", 1, None))
                else:
                    lost += 1
            if lost:
                edges.append((f"r{i}c{j}", "sink", lost, None))
    return _game_text(names, edges, [f"r{pos[0]}c{pos[1]}={pile}"])


def product_game(rng, chain_sizes, funnels: int) -> tuple[str, Facts]:
    """Disjoint union of chain sources and funnels; its space is the product.

    A chain factor with s elements is a source holding (s-1)*d chips with d
    parallel edges into its own drain, so it fires s-1 times.
    """
    parts = [("chain", s) for s in chain_sizes] + [("funnel", 0)] * funnels
    rng.shuffle(parts)
    names, edges, chips, factors = [], [], [], []
    for i, (kind, size) in enumerate(parts):
        if kind == "chain":
            d = rng.randint(1, 3)
            names += [f"s{i}", f"t{i}"]
            edges.append((f"s{i}", f"t{i}", d, None))
            chips.append(f"s{i}={(size - 1) * d}")
            factors.append(chain_facts(size - 1))
        else:
            a, b, c, sink = f"a{i}", f"b{i}", f"c{i}", f"d{i}"
            names += [a, b, c, sink]
            edges += [(a, c, 1, None), (b, c, 1, None), (c, sink, 2, None)]
            chips += [f"{a}=1", f"{b}=1", f"{c}=1"]
            factors.append(FUNNEL)
    return _game_text(names, edges, chips), product_facts(factors)


def coloured_product(rng, gates: int, tracks: int) -> tuple[str, Facts]:
    """Disjoint union of shared_gate- and split_track-shaped coloured blocks,
    four distinct colours per block; its space is the product of theirs."""
    kinds = ["gate"] * gates + ["track"] * tracks
    rng.shuffle(kinds)
    colours = list(range(1, 4 * len(kinds) + 1))
    rng.shuffle(colours)
    names, edges, chips, factors = [], [], [], []
    for i, kind in enumerate(kinds):
        c1, c2, c3, c4 = colours[4 * i: 4 * i + 4]
        a, b, bot = f"a{i}", f"b{i}", f"z{i}"
        if kind == "gate":
            x = y = f"g{i}"
            names += [a, b, x, bot]
            factors.append(FUNNEL)
        else:
            x, y = f"x{i}", f"y{i}"
            names += [a, b, x, y, bot]
            factors.append(TRACK)
        edges += [
            (a, x, 1, c1), (x, bot, 1, c1),
            (b, y, 1, c2), (y, bot, 1, c2),
            (a, bot, 1, c3), (b, bot, 1, c4),
        ]
        chips += [f"{a}=1@{c1},1@{c3}", f"{b}=1@{c2},1@{c4}"]
    return _game_text(names, edges, chips), product_facts(factors)


def relay_chain(rng) -> str:
    """A path of 2-4 vertices v0 -> v1 -> ... -> bot with seeded multiplicities
    and 4-16 chips on v0, so downstream vertices fire several times."""
    length = rng.randint(2, 4)
    mults = [rng.randint(1, 4) for _ in range(length - 1)] + [1]
    names = [f"v{i}" for i in range(length)] + ["bot"]
    edges = [(names[i], names[i + 1], k, None) for i, k in enumerate(mults)]
    return _game_text(names, edges, [f"v0={rng.randint(4, 16)}"])


# lattices


def _lattice_text(rng, labels, covers) -> str:
    labels = list(labels)
    covers = list(covers)
    order = list(range(len(labels)))
    rng.shuffle(order)
    rng.shuffle(covers)
    lines = ["elements: " + " ".join(labels[i] for i in order)]
    lines += [f"cover: {labels[lo]} {labels[hi]}" for lo, hi in covers]
    return "\n".join(lines) + "\n"


def ideal_masks(down: list[int]) -> list[int]:
    """All down-closed subsets of a poset given by per-element down-set masks."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for ideal in frontier:
            for x, dx in enumerate(down):
                bit = 1 << x
                if not ideal & bit and dx & ~ideal == bit and ideal | bit not in seen:
                    seen.add(ideal | bit)
                    nxt.append(ideal | bit)
        frontier = nxt
    return sorted(seen)


def random_poset(rng, size: int, ideals_range: tuple[int, int]) -> tuple[list[int], int]:
    """A random poset on ``size`` elements whose ideal count lies in the range.

    Returns per-element down-set masks and the ideal count. Rejection
    sampling over random DAG densities; deterministic for a given rng.
    """
    lo, hi = ideals_range
    for _ in range(10_000):
        p = rng.uniform(0.1, 0.6)
        down = [1 << x for x in range(size)]
        for j in range(size):
            for i in range(j):
                if rng.random() < p:
                    down[j] |= down[i]
        count = len(ideal_masks(down))
        if lo <= count <= hi:
            return down, count
    raise RuntimeError(f"no poset on {size} elements with {lo}..{hi} ideals")


def ideal_lattice_text(rng, down: list[int]) -> tuple[str, Facts]:
    """The lattice of ideals (Birkhoff): distributive, |J| = |M| = poset size."""
    masks = ideal_masks(down)
    index = {m: i for i, m in enumerate(masks)}
    covers = [
        (index[m], index[m | 1 << x])
        for m in masks
        for x, dx in enumerate(down)
        if not m >> x & 1 and dx & ~m == 1 << x
    ]
    labels = [f"i{m:x}" for m in masks]
    k = len(down)
    return _lattice_text(rng, labels, covers), Facts(len(masks), k, len(covers), k, k, True)


def boolean_lattice_text(rng, dim: int) -> tuple[str, Facts]:
    return ideal_lattice_text(rng, [1 << x for x in range(dim)])


def product_lattice_text(rng, chain_sizes, funnels: int) -> tuple[str, Facts]:
    """The product of chains and funnel lattices, written as a cover relation."""
    factors = [(s, [(i, i + 1) for i in range(s - 1)], chain_facts(s - 1)) for s in chain_sizes]
    factors += [(7, list(FUNNEL_COVERS), FUNNEL)] * funnels
    rng.shuffle(factors)
    elems = list(itertools.product(*[range(size) for size, _, _ in factors]))
    index = {e: i for i, e in enumerate(elems)}
    covers = []
    for e in elems:
        for pos, (_, fcovers, _) in enumerate(factors):
            for lo, hi in fcovers:
                if e[pos] == lo:
                    covers.append((index[e], index[e[:pos] + (hi,) + e[pos + 1:]]))
    labels = ["q" + "_".join(map(str, e)) for e in elems]
    return _lattice_text(rng, labels, covers), product_facts([f for _, _, f in factors])
