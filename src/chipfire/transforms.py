"""Constructive transforms between games and lattices.

- vertex splitting and simplification (any convergent game becomes simple),
  each split made in place, so ``simplify`` builds its game once,
- synthesis of a game from a distributive lattice,
- games realizing an interval of a simple game's space,
- synthesis of a coloured game from any upper locally distributive lattice:
  one chip per chain of its join-irreducibles, walking one path over the
  antimatroid of its meet-irreducible codes.

The constructions know which element each reachable state stands for, so each
comes with its map. Both lattice syntheses put the meet-irreducible M[b] on
vertex b, so one rule reads a state's code off its unfired vertices
(:func:`distributive_map`, also bound as :func:`uld_map`);
:func:`split_map` sums a split game's copies. Both read the closure's packed
firing vectors and unpack none. :func:`is_hasse_isomorphism` checks such a
map row by row against the target's upper covers, with no isomorphism
search and no pair set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloured import ColouredCfg
from .engine import Cfg, ConfigSpace
from .errors import CapExceeded, StepCapExceeded
from .lattice import Lattice, Poset
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


def _split(names: list, mult: dict, chips: list, a: int) -> int:
    """Split vertex a of a game's names, edge map and chips in place, as
    :func:`split_vertex` does: copy 0 keeps a's slot, copy 1 is appended.
    Returns the surplus, twice the chips before the split."""
    taken = set(names)
    names[a], name1 = _fresh_name(names[a] + "_0", taken), _fresh_name(names[a] + "_1", taken)
    names.append(name1)
    a1 = len(names) - 1
    surplus = 2 * sum(chips)
    out_a = 0  # a's non-loop out-degree
    copy1 = []
    for (u, v), k in mult.items():  # rewrites values only, never keys
        if v == a:  # into a, or a's loop: each copy keeps one
            copy1.append(((a1 if u == a else u, a1), k))
        else:
            mult[(u, v)] = 2 * k
            if u == a:
                copy1.append(((a1, v), 2 * k))
                out_a += k
    mult.update(copy1)
    tie = max(0, surplus - out_a)  # clamps only for a vertex that can never fire
    if tie:
        mult[(a, a1)] = mult[(a1, a)] = tie
    chips[:] = [2 * c for c in chips] + [chips[a]]  # copy 1 keeps a's chips
    chips[a] = chips[a1] + surplus
    return surplus


def split_vertex(cfg: Cfg, a: int) -> Cfg:
    """Split vertex a into two alternating copies; the space stays isomorphic.

    The copies are tied together by enough parallel edges (and a chip surplus
    on the first copy) that they can only fire alternately; everything else is
    doubled so the rest of the game behaves as before.
    """
    g = cfg.graph
    a = g._check(a)
    if g._out_degrees[a] == 0:
        raise ValueError(f"cannot split the sink {g.names[a]}")
    names, mult, chips = list(g.names), dict(g.mult), list(cfg.init)
    _split(names, mult, chips, a)
    return Cfg(Multigraph(names, mult), chips)


def simplify(cfg: Cfg, max_rounds: int = 1000, step_cap=None) -> tuple[Cfg, tuple[SplitReport, ...]]:
    """Split a most-fired vertex until every vertex fires at most once.

    A vertex that fires c times splits into copies that fire ceil(c/2) (copy
    0) and floor(c/2) times (copy 1), the others as before, so one fixpoint
    run fixes every count: simplifying takes sum(c - 1) splits and one
    round more. CapExceeded, before any split, when that exceeds ``max_rounds``.
    Every split lands on one copy of the game, built once at the end.
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
    if not splits:
        return cfg, ()
    names, mult, chips = list(cfg.graph.names), dict(cfg.graph.mult), list(cfg.init)
    reports = []
    for iteration in range(1, splits + 1):
        worst = max(counts)
        a = counts.index(worst)
        vertex = names[a]  # before _split renames it
        reports.append(SplitReport(vertex, _split(names, mult, chips, a), iteration, a))
        counts[a] = (worst + 1) // 2
        counts.append(worst // 2)
    return Cfg(Multigraph(names, mult), chips), tuple(reports)


def _ideal_game_parts(poset: Poset):
    """Edges and chips of a game whose shot-sets are exactly the ideals of
    the poset.

    Edges follow the cover relation upward; each vertex additionally drains
    its in/out imbalance to a sink (index poset.n). Chips make every vertex
    fire exactly once, after all its predecessors.
    """
    edges: dict[tuple[int, int], int] = {}
    bot = poset.n
    chips = [0] * poset.n
    for v, ups in enumerate(poset._upper_covers):
        edges.update(((v, w), 1) for w in ups)
        d_out, d_in = len(ups), len(poset._lower_covers[v])
        if d_in > d_out:
            edges[(v, bot)] = d_in - d_out
        elif d_in == 0 and d_out == 0:
            edges[(v, bot)] = 1
        total_out = d_out + edges.get((v, bot), 0)
        chips[v] = total_out - d_in
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
    a, b = space._check(a), space._check(b)
    low, high = space.vectors[a], space.vectors[b]
    if any(x > y for x, y in zip(low, high)):
        raise ValueError("interval endpoints must satisfy a <= b")
    keep = space.shot_set(b)
    mult = {
        (u, v): k for (u, v), k in cfg.graph.mult.items() if u in keep
    }
    return Cfg(Multigraph(cfg.graph.names, mult), space.configs[a])


def _chains(elements, up) -> list[list[int]]:
    """A first-fit chain cover: along the linear extension ``elements``, each
    element joins the first chain whose last element is below it (bit x of
    ``up[last]``), or else starts a new chain."""
    chains: list[list[int]] = []
    for x in elements:
        chain = next((c for c in chains if up[c[-1]] >> x & 1), [])
        if not chain:
            chains.append(chain)
        chain.append(x)
    return chains


def _path_game(names, paths) -> ColouredCfg:
    """Colour i + 1 is ``paths[i]``: an edge from each vertex to the next, one
    from the last to a fresh sink ``bot``, and one chip on the first vertex.

    A colour's chip always sits on the first closed vertex of its path: an
    open vertex it reaches fires it on, and a closed one holds it and has
    one edge of that colour, so it can open. So a vertex can open iff the
    part of some path before it is all open, and the reachable open sets are
    exactly the unions of path prefixes; each fixes its state, since it fixes
    where every chip sits.
    """
    bot = len(names)
    layers, init = {}, {}
    for c, path in enumerate(paths, 1):
        layers[c] = dict.fromkeys(zip(path, path[1:] + [bot]), 1)
        init[c] = tuple(int(v == path[0]) for v in range(bot + 1))
    names = tuple(names) + (_fresh_name("bot", set(names)),)
    return ColouredCfg(ColouredMultigraph(names, layers), init)


def coloured_ideal_game(lattice: Lattice) -> ColouredCfg:
    """A coloured game whose space is the full ideal lattice of the
    join-irreducible order: vertex i is ``lattice.J[i]``, plus a sink.

    One path per chain of a first-fit chain cover of that order: for each
    element j of the chain in turn, the path takes the members of the
    down-set of j that it does not hold yet, in ``topo_order``. Each prefix
    of the path is an ideal and each principal ideal is a prefix, so the
    unions of prefixes (:func:`_path_game`) are the ideals.
    """
    if not lattice.is_uld:
        raise ValueError("the construction needs an upper locally distributive lattice")
    jp = lattice.join_irreducible_poset()
    down, topo = jp._down_masks, jp.topo_order
    paths = []
    for chain in _chains(topo, jp._up_masks):
        held = [0] + [down[j] for j in chain]  # nested, as the chain ascends
        paths.append([x for lo, hi in zip(held, held[1:]) for x in topo if (hi & ~lo) >> x & 1])
    return _path_game(jp.labels, paths)


def coloured_from_uld(lattice: Lattice) -> ColouredCfg:
    """A coloured game whose configuration space is the given ULD lattice:
    vertex b is ``lattice.M[b]``, plus a sink, and a state's open set is the
    code of its element.

    The code S(x) of x is the set of meet-irreducibles not above it, the
    complement of ``_mx_masks[x]``; in a ULD lattice the codes are an
    antimatroid, closed under union, and each cover adds one element, its
    label (Korte, Lovász & Schrader, *Greedoids*, 1991). One colour per chain
    of a first-fit chain cover of J: its path is the labels of a walk up the
    covers from the bottom through the chain's join-irreducibles in turn.
    Each prefix of a path is the code of an element on the walk, each J-code
    is a prefix, and every code is the union of the J-codes below it, so the
    unions of prefixes (:func:`_path_game`) are the codes. A k-element chain
    gets one colour and k - 1 edges.
    """
    if not lattice.is_uld:
        raise ValueError("the construction needs an upper locally distributive lattice")
    ups, up, mx = lattice._upper_covers, lattice._up_masks, lattice._mx_masks
    paths = []
    for chain in _chains(filter(set(lattice.J).__contains__, lattice.topo_order), up):
        walk = [lattice.bottom]
        for j in chain:
            while walk[-1] != j:  # to an upper cover below j
                walk.append(next(h for h in ups[walk[-1]] if up[h] >> j & 1))
        paths.append([(mx[lo] ^ mx[hi]).bit_length() - 1 for lo, hi in zip(walk, walk[1:])])
    return _path_game([lattice.labels[m] for m in lattice.M], paths)


# construction maps: which element of the source each reachable state stands for

_FIELD = (1 << 64) - 1  # one vertex's field of a packed firing vector (``engine._closure``)


def distributive_map(lattice: Lattice, space: ConfigSpace) -> list[int | None]:
    """Where the states of ``cfg_from_distributive(lattice)`` and of
    ``coloured_from_uld(lattice)`` land in the lattice.

    In both games vertex b is ``lattice.M[b]``, and a state's unfired (or
    unopened) vertices below |M| are its code: it goes to the element with
    those meet-irreducibles above it, their meet (Birkhoff), or to None when
    no element has that code. The code is read off the packed vector: vertex
    b's 64-bit field is zero exactly when b has not fired. The sink is not
    looked at.
    """
    element = {code: x for x, code in enumerate(lattice._mx_masks)}
    fields = [_FIELD << 64 * (len(space.names) - 1 - b) for b in range(len(lattice.M))]
    codes = (sum(1 << b for b, f in enumerate(fields) if not x & f) for x in space.packed_vectors)
    return [element.get(code) for code in codes]


uld_map = distributive_map  # both constructions put M[b] on vertex b


def split_map(reports, original: ConfigSpace, simple: ConfigSpace) -> list[int] | None:
    """Where the states of a game split by ``reports`` land in the original space.

    Each split keeps copy 0 in the split vertex's slot and appends copy 1, so
    a copy's firings count as firings of the vertex it came from. On packed
    vectors: the original vertices keep their slots, so shifting past the
    appended copies' fields leaves the level field and theirs, and each copy's
    field is added into its origin's. None when some summed vector is not an
    original state.
    """
    n, m = len(original.names), len(simple.names)
    origin = list(range(n))
    for rep in reports:
        origin.append(origin[rep.index])
    if len(origin) != m:
        return None
    copies = [(64 * (m - 1 - w), 64 * (n - 1 - origin[w])) for w in range(n, m)]
    index = {x: i for i, x in enumerate(original.packed_vectors)}
    image = [
        index.get(sum([(y >> s & _FIELD) << t for s, t in copies], y >> 64 * (m - n)))
        for y in simple.packed_vectors
    ]
    return None if None in image else image


def is_hasse_isomorphism(image, rows, target_rows) -> bool:
    """True when ``image`` (source element -> target element) is a bijection
    onto range(len(target_rows)) and the sorted images of each source row
    ``rows[x]`` are the target row ``target_rows[image[x]]``. Rows are each
    element's upper covers, ascending, each cover once, so equal rows are
    equal cover sets: an isomorphism of the Hasse diagrams, hence of the
    orders. One pass over the rows, with no pair set.
    """
    n = len(target_rows)
    if image is None or len(image) != n or len(rows) != n or set(image) != set(range(n)):
        return False
    return all(sorted([image[y] for y in r]) == list(target_rows[t]) for t, r in zip(image, rows))
