"""Constructive transforms between games and lattices.

- vertex splitting and simplification (any convergent game becomes simple),
- synthesis of a game from a distributive lattice,
- games realizing an interval of a simple game's space,
- synthesis of a coloured game from any upper locally distributive lattice.

The constructions know which element each reachable state stands for, so each
comes with its map (:func:`distributive_map`, :func:`uld_map`,
:func:`split_map`); :func:`is_hasse_isomorphism` checks such a map in time
linear in elements plus covers, with no isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloured import ColouredCfg
from .engine import Cfg, ConfigSpace
from .errors import CapExceeded, StepCapExceeded
from .lattice import Lattice, Poset, _row_masks
from .multigraph import ColouredMultigraph, Multigraph


@dataclass(frozen=True)
class SplitReport:
    """One splitting step: which vertex, with which chip surplus, at which round."""

    vertex: str
    surplus: int  # twice the total chips of the game that was split
    iteration: int
    index: int  # the split vertex; copy 0 keeps this slot, copy 1 is appended


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def split_vertex(cfg: Cfg, a: int) -> Cfg:
    """Split vertex a into two alternating copies; the space stays isomorphic.

    The copies are tied together by enough parallel edges (and a chip surplus
    on the first copy) that they can only fire alternately; everything else is
    doubled so the rest of the game behaves as before.
    """
    g = cfg.graph
    if g.out_degree(a) == 0:
        raise ValueError(f"cannot split the sink {g.names[a]}")
    surplus = 2 * sum(cfg.init)
    taken = set(g.names)
    name0 = _fresh_name(g.names[a] + "_0", taken)
    name1 = _fresh_name(g.names[a] + "_1", taken)
    # copy 0 takes a's slot, copy 1 goes last
    names = tuple(
        name0 if v == a else g.names[v] for v in range(g.n)
    ) + (name1,)
    a0, a1 = a, g.n
    mult: dict[tuple[int, int], int] = {}

    def add(u, v, k):
        if k:
            mult[(u, v)] = mult.get((u, v), 0) + k

    for (u, v), k in g.mult.items():
        if u != a and v != a:
            add(u, v, 2 * k)
        elif u != a:  # edge into a: one copy to each half
            add(u, a0, k)
            add(u, a1, k)
        elif v != a:  # edge out of a: two copies from each half
            add(a0, v, 2 * k)
            add(a1, v, 2 * k)
        else:  # loop: one loop on each half
            add(a0, a0, k)
            add(a1, a1, k)
    # vertices that can never fire may make this negative; clamp, they stay inert
    tie = max(0, surplus - g.nonloop_out_degree(a))
    add(a0, a1, tie)
    add(a1, a0, tie)
    chips = [2 * c for c in cfg.init] + [cfg.init[a]]
    chips[a0] = cfg.init[a] + surplus
    return Cfg(Multigraph(names, mult), tuple(chips))


def simplify(cfg: Cfg, max_rounds: int = 1000, step_cap=None) -> tuple[Cfg, tuple[SplitReport, ...]]:
    """Split a most-fired vertex until every vertex fires at most once.

    A vertex that fires c times splits into copies that fire ceil(c/2) (copy
    0) and floor(c/2) times (copy 1), the others as before, so one fixpoint
    run fixes every count: simplifying takes sum(c - 1) splits and one
    round more. CapExceeded, before any split, when that exceeds ``max_rounds``.
    """
    cfg._require_guard(step_cap, "run_to_fixpoint")
    bound = max_rounds + cfg.graph.n  # splits >= firings - n: a longer run is over the cap
    cap = bound if step_cap is None else min(step_cap, bound)
    try:
        counts = list(cfg.run_to_fixpoint(step_cap=cap).counts)
    except StepCapExceeded:
        if cap < bound:  # the caller's step cap stopped the run
            raise
        raise CapExceeded(f"simplifying takes more than {max_rounds} rounds (over {bound} firings)")
    splits = sum(c - 1 for c in counts if c > 1)
    if splits >= max_rounds:
        raise CapExceeded(
            f"simplifying takes {splits + 1} rounds ({splits} splits), "
            f"over the cap of {max_rounds} rounds"
        )
    reports = []
    current = cfg
    for iteration in range(1, splits + 1):
        worst = max(counts)
        a = counts.index(worst)
        reports.append(
            SplitReport(current.graph.names[a], 2 * sum(current.init), iteration, a)
        )
        current = split_vertex(current, a)
        counts[a] = (worst + 1) // 2
        counts.append(worst // 2)
    return current, tuple(reports)


def _ideal_game_parts(poset: Poset):
    """Edges and chips of a game whose shot-sets are exactly the poset's ideals.

    Edges follow the cover relation upward; each vertex additionally drains
    its in/out imbalance to a sink (index poset.n). Chips make every vertex
    fire exactly once, after all its predecessors.
    """
    edges: dict[tuple[int, int], int] = {}
    bot = poset.n
    for lo, hi in poset.cover_pairs:
        edges[(lo, hi)] = 1
    chips = []
    for v in range(poset.n):
        d_out = len(poset.upper_covers(v))
        d_in = len(poset.lower_covers(v))
        if d_in > d_out:
            edges[(v, bot)] = d_in - d_out
        elif d_in == 0 and d_out == 0:
            edges[(v, bot)] = 1
        total_out = d_out + edges.get((v, bot), 0)
        chips.append(total_out - d_in)
    return edges, chips


def cfg_from_distributive(lattice: Lattice) -> Cfg:
    """A game whose configuration space is the given distributive lattice.

    Vertices are the meet-irreducibles plus a sink; every vertex fires exactly
    once, and the shot-sets are the ideals of the meet-irreducible order.
    """
    if not lattice.is_distributive:
        witness = lattice.distributivity_witness()
        if witness is None:
            detail = "irreducible counts differ"
        else:
            x, y, z = (lattice.labels[e] for e in witness)
            detail = f"witness triple ({x}, {y}, {z})"
        raise ValueError(f"lattice is not distributive: {detail}")
    poset = lattice.meet_irreducible_poset()
    edges, chips = _ideal_game_parts(poset)
    names = poset.labels + (_fresh_name("bot", set(poset.labels)),)
    return Cfg(Multigraph(names, edges), tuple(chips) + (0,))


def interval_cfg(cfg: Cfg, a: int, b: int, space: ConfigSpace | None = None) -> Cfg:
    """A game realizing the interval [a, b] of a simple game's space.

    Start from the configuration at a; vertices outside the shot-set of b
    lose their outgoing edges so they can never fire.
    """
    if not cfg.is_simple():
        raise ValueError("interval games need a simple game; simplify first")
    if len(cfg.graph.sinks()) != 1:
        raise ValueError("interval games need a unique sink")
    if space is None:
        space = cfg.enumerate_space()
    low, high = space.vectors[a], space.vectors[b]
    if any(x > y for x, y in zip(low, high)):
        raise ValueError("interval endpoints must satisfy a <= b")
    keep = space.shot_set(b)
    mult = {
        (u, v): k for (u, v), k in cfg.graph.mult.items() if u in keep
    }
    return Cfg(Multigraph(cfg.graph.names, mult), space.configs[a])


def _merged_coloured_game(lattice: Lattice, classes) -> ColouredCfg:
    """The coloured ideal game of the join-irreducible order, one vertex per
    class of ``classes`` (tuples of positions in J) plus a sink.

    One colour per join-irreducible j carries a classical game realizing the
    ideals of the down-set of j; its edges and chips land straight on the
    classes, and multiplicities and chips that meet there add up.
    """
    jp = lattice.join_irreducible_poset()
    bot = len(classes)
    target = {pos: ci for ci, members in enumerate(classes) for pos in members}
    names = tuple("+".join(jp.labels[pos] for pos in members) for members in classes)
    names += (_fresh_name("bot", set(jp.labels)),)
    layers: dict[int, dict[tuple[int, int], int]] = {}
    init: dict[int, tuple[int, ...]] = {}
    for pos in range(jp.n):
        down = [q for q in range(jp.n) if jp.le(q, pos)]
        edges, chips = _ideal_game_parts(jp.restrict(down))
        remap = [target[q] for q in down] + [bot]
        layer: dict[tuple[int, int], int] = {}
        for (u, v), k in edges.items():
            key = (remap[u], remap[v])
            layer[key] = layer.get(key, 0) + k
        chip_vec = [0] * (bot + 1)
        for i, c in enumerate(chips):
            chip_vec[remap[i]] += c
        layers[pos + 1] = layer
        init[pos + 1] = tuple(chip_vec)
    return ColouredCfg(ColouredMultigraph(names, layers), init)


def coloured_ideal_game(lattice: Lattice) -> ColouredCfg:
    """A coloured game whose space is the full ideal lattice of the
    join-irreducible order: one vertex per join-irreducible."""
    if not lattice.is_uld:
        raise ValueError("the construction needs an upper locally distributive lattice")
    return _merged_coloured_game(lattice, [(pos,) for pos in range(len(lattice.J))])


def _arrow_classes(lattice: Lattice) -> list[tuple[tuple[int, ...], int]]:
    """The arrow classes in the order of :func:`coloured_from_uld`'s vertices:
    each is (the positions in J of its members, their common partner in M)."""
    j_pos = {j: pos for pos, j in enumerate(lattice.J)}
    return sorted(
        (tuple(sorted(j_pos[j] for j in members)), m)
        for m, members in lattice.arrow_partition().classes.items()
    )


def coloured_from_uld(lattice: Lattice) -> ColouredCfg:
    """A coloured game whose configuration space is the given ULD lattice.

    :func:`coloured_ideal_game` with partner-equivalent join-irreducibles
    (one class of the arrow partition) merged into one vertex.
    """
    return _merged_coloured_game(lattice, [members for members, _ in _arrow_classes(lattice)])


# construction maps: which element of the source each reachable state stands for


def _meet_map(lattice: Lattice, ms, space: ConfigSpace) -> list[int | None]:
    """Send each state to the element whose meet-irreducibles above are the
    ``ms[v]`` of the vertices v it has not fired, hence their meet, or to
    None when no element has that code. ``ms`` is M in vertex order; later
    vertices (the sink) are not looked at."""
    # M is ascending, so sorting ms puts the vertices in the order of M's bits
    unfired = ~np.array(space.vectors, dtype=bool)[:, np.argsort(ms)]
    element = {code: x for x, code in enumerate(lattice._mx_masks)}
    return [element.get(code) for code in _row_masks(unfired)]


def distributive_map(lattice: Lattice, space: ConfigSpace) -> list[int | None]:
    """Where the states of ``cfg_from_distributive(lattice)`` land in the lattice.

    A shot-set S goes to the meet of the meet-irreducibles outside it (Birkhoff);
    vertex i is ``lattice.M[i]``, as in the construction; None for an uncoded state.
    """
    return _meet_map(lattice, lattice.M, space)


def uld_map(lattice: Lattice, space: ConfigSpace) -> list[int | None]:
    """Where the states of ``coloured_from_uld(lattice)`` land in the lattice.

    An open-set S goes to the meet of the partners of the arrow classes
    outside it; vertex i is the i-th class of the construction's own order.
    None for a state whose code no element has.
    """
    return _meet_map(lattice, [m for _, m in _arrow_classes(lattice)], space)


def split_map(reports, original: ConfigSpace, simple: ConfigSpace) -> list[int] | None:
    """Where the states of a game split by ``reports`` land in the original space.

    Each split keeps copy 0 in the split vertex's slot and appends copy 1, so
    a copy's firings count as firings of the vertex it came from. None when
    some summed vector is not an original state.
    """
    origin = list(range(len(original.names)))
    for rep in reports:
        origin.append(origin[rep.index])
    if len(origin) != len(simple.names):
        return None
    image = []
    for vec in simple.vectors:
        total = [0] * len(original.names)
        for w, c in enumerate(vec):
            total[origin[w]] += c
        i = original._index.get(tuple(total))
        if i is None:
            return None
        image.append(i)
    return image


def is_hasse_isomorphism(image, covers, n: int, target_covers) -> bool:
    """True when ``image`` (source element -> target element) is a bijection
    onto range(n) that sends every source cover to a target cover and both
    sides have as many covers: an isomorphism of the Hasse diagrams, hence of
    the orders. Covers are (low, high, ...) tuples; cost O(n + covers).
    """
    if image is None or len(image) != n or set(image) != set(range(n)):
        return False
    # for a bijection, equal cover sets is "into" plus equal counts
    return {(image[c[0]], image[c[1]]) for c in covers} == {
        (c[0], c[1]) for c in target_covers
    }
