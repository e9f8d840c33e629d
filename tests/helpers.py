"""Shared oracles and corpus generators for the test suite.

Oracles here are written independently of the engine's breadth-first
enumeration: depth-first exploration with an explicit stack (classical and
coloured), the breadth-first closure on configuration and firing-vector tuples
that the engine's packed ints replaced and the worklist opening rule on
coloured chip tuples that the packed coloured states replaced, raw firing
sequences without memoisation, a subset walk over each state's cube of moves, a vertex split that rebuilds the whole game and a
``simplify`` that replays the fixpoint after every such split, construction
maps folded through pairwise meets, naive triple-loop law checks, loop-based
arrow relations and witness reports, a scanning transitive reduction, the
dense inclusion order of a set family, powerset-based ideal enumeration and
the breadth-first ideal closure the linear-extension walk replaced, the
line-by-line lattice-file parser the one-loop ``parse_lattice`` replaced
(with its own copies of the line helpers), and the numpy constructions the
integer element sets replaced (Kahn's queue with a numpy row per up-set for
``Poset.from_covers``; the meet-irreducible coding as columns of the dense
order and as compared firing vectors; the triple-law witness on dense join
and meet tables and the isomorphism search on the dense order). The dense order and tables are filled one public ``le``,
``join`` or ``meet`` per cell, so they share no packing with the library.
The coloured opening rule that replays every colour over every open vertex
after every firing runs through the tuple closure too, and firing reads the
edge multiplicities alone (``_fire_in_place``): no oracle here imports a
private function or class of ``chipfire.engine`` or ``chipfire.coloured``
(``tests/test_oracle_imports.py``). The Sand Pile Model's spaces are checked
against its own grain move on height vectors, which knows no chip or vertex.
"""

from __future__ import annotations

import math
import random
import tracemalloc
import weakref
from collections import deque
from dataclasses import replace
from itertools import chain, combinations, permutations

import numpy as np

from chipfire import coloured
from chipfire.coloured import ColouredCfg, ColouredState
from chipfire.engine import Cfg, ConfigSpace
from chipfire.errors import (
    CapExceeded,
    FiringVectorConflict,
    NotALatticeError,
    ParseError,
    StateCapExceeded,
    StepCapExceeded,
)
from chipfire.lattice import ArrowRelations, ArrowWitnessReport, Lattice, Poset, _refine_pair
from chipfire.multigraph import ColouredMultigraph, Multigraph
from chipfire.transforms import SplitReport

LETTERS = "abcdefghij"


# independent dynamics oracles


def dfs_reachable(cfg: Cfg, cap=200_000):
    """Depth-first closure of reachable configurations.

    Returns (vectors, finals): configuration -> firing vector, and the set of
    fixpoint configurations. Asserts the firing vector is unique per
    configuration.
    """
    n = cfg.graph.n
    vectors = {cfg.init: (0,) * n}
    finals = set()
    stack = [cfg.init]
    while stack:
        conf = stack.pop()
        vec = vectors[conf]
        fs = cfg.firable(conf)
        if not fs:
            finals.add(conf)
        for v in sorted(fs, reverse=True):
            nxt = cfg.fire(conf, v)
            nvec = tuple(c + (1 if i == v else 0) for i, c in enumerate(vec))
            if nxt in vectors:
                assert vectors[nxt] == nvec, "firing vector not unique per config"
            else:
                vectors[nxt] = nvec
                assert len(vectors) <= cap
                stack.append(nxt)
    return vectors, finals


def dfs_coloured_reachable(game: ColouredCfg, cap=200_000):
    """Depth-first closure of a coloured game's open-sets, through the public
    ``openable`` / ``open_vertex`` only.

    ``open_vertex`` runs the same worklist stabilizer as enumeration, so this
    checks the closure, not the opening rule; ``full_scan_space`` is the
    oracle for that.

    Returns (chips, covers): open-set -> per-colour chips, and the set of
    labelled covers (open-set, opened vertex, next open-set). Asserts the chip
    content is unique per open-set.
    """
    start = game.initial_state()
    chips = {start.opened: start.chips}
    covers = set()
    stack = [start]
    while stack:
        state = stack.pop()
        for v in sorted(game.openable(state), reverse=True):
            nxt = game.open_vertex(state, v)
            covers.add((state.opened, v, nxt.opened))
            if nxt.opened in chips:
                assert chips[nxt.opened] == nxt.chips, "chips not unique per open-set"
            else:
                chips[nxt.opened] = nxt.chips
                assert len(chips) <= cap
                stack.append(nxt)
    return chips, covers


def _fire_in_place(chips: list, graph: Multigraph, v: int) -> None:
    """Fire v on a mutable chip list, read off the edge multiplicities alone:
    one chip leaves v along each edge out of v (a loop's comes back)."""
    for (u, w), k in graph.mult.items():
        if u == v:
            chips[v] -= k
            chips[w] += k


def full_scan_openable(game: ColouredCfg, state: ColouredState) -> frozenset[int]:
    """Closed vertices firable in at least one colour restriction."""
    out = set()
    for ci, c in enumerate(game.colours):
        deg = game.graph.restriction_to_colour(c)._out_degrees
        chips = state.chips[ci]
        for v in range(game.graph.n):
            if v not in state.opened and 0 < deg[v] <= chips[v]:
                out.add(v)
    return frozenset(out)


def full_scan_stabilize_colour(game: ColouredCfg, c, chips, opened):
    """Play colour c on the open vertices; closed vertices absorb chips."""
    restriction = game.graph.restriction_to_colour(c)
    deg = restriction._out_degrees
    chips = list(chips)
    steps = 0
    while True:
        firable = [v for v in opened if 0 < deg[v] <= chips[v]]
        if not firable:
            return tuple(chips)
        _fire_in_place(chips, restriction, min(firable))
        steps += 1
        if steps > coloured._STABILIZE_CAP:
            raise StepCapExceeded(
                f"colour {c} did not stabilize within {coloured._STABILIZE_CAP} firings"
            )


def full_scan_open(game: ColouredCfg, state: ColouredState, v: int) -> ColouredState:
    """Open v, then stabilize each colour in ascending colour order, rescanning
    every open vertex after every firing."""
    opened = state.opened | {v}
    chips = tuple(
        full_scan_stabilize_colour(game, c, state.chips[ci], opened)
        for ci, c in enumerate(game.colours)
    )
    return ColouredState(chips=chips, opened=opened)


def full_scan_space(game: ColouredCfg) -> ConfigSpace:
    """``ColouredCfg.enumerate_space`` with the full-scan opening rule,
    through ``tuple_closure``."""

    def successors(state):
        openable = sorted(full_scan_openable(game, state))
        return [(v, full_scan_open(game, state, v)) for v in openable]

    space = tuple_closure(game, game.initial_state(), successors, None)
    return replace(space, configs=tuple(state.chips for state in space.configs))


def tuple_closure(game, start, successors, state_cap) -> ConfigSpace:
    """``engine._closure`` with each firing vector an n-tuple, sliced anew on
    every move, and states sorted by (sum, tuple): the oracle for the packed
    vectors. Same cap, same two checks, same texts."""
    ids = {start: 0}
    states, vectors = [start], [(0,) * game.graph.n]
    transitions = []
    for i, state in enumerate(states):
        if state_cap is not None and len(states) > state_cap:
            raise StateCapExceeded(f"state space exceeds cap {state_cap}")
        vec = vectors[i]
        for v, nxt in successors(state):
            nvec = vec[:v] + (vec[v] + 1,) + vec[v + 1:]
            j = ids.get(nxt)
            if j is None:
                j = ids[nxt] = len(states)
                states.append(nxt)
                vectors.append(nvec)
            elif vectors[j] != nvec:
                raise FiringVectorConflict("revisited state with a different firing vector")
            transitions.append((i, v, j))
    if len(set(vectors)) != len(vectors):
        raise RuntimeError("two states share a firing vector")
    order = sorted(range(len(states)), key=lambda i: (sum(vectors[i]), vectors[i]))
    rank = {i: r for r, i in enumerate(order)}
    return ConfigSpace(
        names=game.graph.names,
        vectors=tuple(vectors[i] for i in order),
        configs=tuple(states[i] for i in order),
        covers=tuple(sorted((rank[a], rank[b], v) for a, v, b in transitions)),
    )


def tuple_successors(cfg: Cfg, conf) -> list:
    """The moves out of a configuration tuple, in ascending vertex order,
    read off the edge multiplicities alone."""
    n, mult = cfg.graph.n, cfg.graph.mult
    moves = []
    for v in range(n):
        out = [mult.get((v, w), 0) for w in range(n)]
        if 0 < sum(out) <= conf[v]:
            nxt = list(conf)
            nxt[v] -= sum(out)
            moves.append((v, tuple(c + k for c, k in zip(nxt, out))))
    return moves


def tuple_space(cfg: Cfg, state_cap=None) -> ConfigSpace:
    """``Cfg.enumerate_space`` on configuration tuples, through ``tuple_closure``."""
    return tuple_closure(cfg, cfg.init, lambda conf: tuple_successors(cfg, conf), state_cap)


def colour_index(game: ColouredCfg) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per vertex, the (colour index, out-degree) pairs of the colours it
    has out-edges in."""
    degrees = [game.graph.restriction_to_colour(c)._out_degrees for c in game.colours]
    return tuple(
        tuple((ci, deg[v]) for ci, deg in enumerate(degrees) if deg[v])
        for v in range(game.graph.n)
    )


def worklist_openable(game: ColouredCfg, state: ColouredState) -> frozenset[int]:
    """Closed vertices firable in at least one colour restriction, read off
    chip tuples."""
    chips, opened = state.chips, state.opened
    return frozenset(
        v
        for v, colours in enumerate(colour_index(game))
        if v not in opened and any(deg <= chips[ci][v] for ci, deg in colours)
    )


def worklist_stabilize_colour(game: ColouredCfg, ci, chips, opened, v):
    """Play colour index ci on the open vertices, from a worklist seeded
    with v; closed vertices absorb chips.

    The chips must be stable at every open vertex but v.
    """
    c = game.colours[ci]
    restriction = game.graph.restriction_to_colour(c)
    deg, adj = restriction._out_degrees, restriction._out_adj
    chips = list(chips)
    todo = [v]
    steps = 0
    while todo:
        u = todo.pop()
        if u not in opened or not 0 < deg[u] <= chips[u]:
            continue
        while deg[u] <= chips[u]:
            _fire_in_place(chips, restriction, u)
            steps += 1
            if steps > coloured._STABILIZE_CAP:
                raise StepCapExceeded(
                    f"colour {c} did not stabilize within {coloured._STABILIZE_CAP} firings"
                )
        todo.extend(w for w, _ in adj[u])
    return tuple(chips)


def worklist_open(game: ColouredCfg, state: ColouredState, v: int) -> ColouredState:
    """Open v on chip tuples, then stabilize the colours in which v can fire."""
    opened = state.opened | {v}
    chips = list(state.chips)
    for ci, deg in colour_index(game)[v]:
        if deg <= chips[ci][v]:
            chips[ci] = worklist_stabilize_colour(game, ci, chips[ci], opened, v)
    return ColouredState(chips=tuple(chips), opened=opened)


def coloured_tuple_space(game: ColouredCfg, state_cap=None) -> ConfigSpace:
    """``ColouredCfg.enumerate_space`` on ``ColouredState``s of chip tuples,
    through ``tuple_closure`` and the worklist opening rule on tuples."""

    def successors(state):
        return [(v, worklist_open(game, state, v)) for v in sorted(worklist_openable(game, state))]

    space = tuple_closure(game, game.initial_state(), successors, state_cap)
    return replace(space, configs=tuple(state.chips for state in space.configs))


def all_firing_sequences(cfg: Cfg, limit=50_000):
    """Every maximal firing sequence, without memoisation. Tiny games only."""
    sequences = []

    def walk(conf, fired):
        fs = cfg.firable(conf)
        if not fs:
            sequences.append(tuple(fired))
            assert len(sequences) <= limit
            return
        for v in sorted(fs):
            walk(cfg.fire(conf, v), fired + [v])

    walk(cfg.init, [])
    return sequences


def cube_walk_witness(space):
    """Least state whose k >= 2 moves do not span a cube of 2^k states,
    or None.

    The subsets S of the moves u_1..u_k out of x are walked by subset
    DP: the state for S is the state for S - {u_b} moved along u_b, with
    b the highest index in S. Every such move must exist. The moves are
    read off ``space.covers``, as {vertex: next state} per state.
    """
    moves = [{} for _ in range(len(space))]
    for lo, hi, v in space.covers:
        moves[lo][v] = hi
    for x, out in enumerate(moves):
        if len(out) < 2:
            continue
        cube = [x]
        for u in out:
            step = [moves[e].get(u) for e in cube]
            if None in step:
                return x
            cube += step
    return None


def _fresh(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def rebuilding_split_vertex(cfg: Cfg, a: int) -> Cfg:
    """Split vertex a into two alternating copies; the space stays isomorphic.

    ``split_vertex`` written as a whole-game rebuild, sharing no code with
    ``chipfire.transforms``: every edge is copied through ``add`` into a new
    dict, then a new Multigraph and Cfg are built.
    """
    g = cfg.graph
    if g.out_degree(a) == 0:
        raise ValueError(f"cannot split the sink {g.names[a]}")
    surplus = 2 * sum(cfg.init)
    taken = set(g.names)
    name0 = _fresh(g.names[a] + "_0", taken)
    name1 = _fresh(g.names[a] + "_1", taken)
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


def replaying_simplify(cfg: Cfg, max_rounds=1000):
    """(simple game, split reports) by splitting a most-fired vertex with
    ``rebuilding_split_vertex`` and running the split game to its fixpoint
    again, until every vertex fires at most once."""
    reports = []
    current = cfg
    for iteration in range(1, max_rounds + 1):
        counts = current.run_to_fixpoint().counts
        worst = max(counts, default=0)
        if worst <= 1:
            return current, tuple(reports)
        a = counts.index(worst)
        reports.append(SplitReport(current.graph.names[a], 2 * sum(current.init), iteration, a))
        current = rebuilding_split_vertex(current, a)
    raise AssertionError(f"not simple after {max_rounds} rounds")


def sand_pile_text(n: int) -> str:
    """The Sand Pile Model SPM(n) as a game file: n grains in column 0, and
    vertex d_i holding h_i - h_(i+1), the height difference of columns i and
    i + 1, for i < m = isqrt(2n) + 2. Firing d_i moves one grain from column i
    to column i + 1: d_i loses two chips, d_(i-1) and d_(i+1) gain one. The
    grains that leave d_0 and d_(m-1) fall into the sinks L and R."""
    d = [f"d{i}" for i in range(math.isqrt(2 * n) + 2)]
    ends = ["L", *d, "R"]
    edges = [f"edge: {v} {w} 1\n" for i, v in enumerate(d) for w in (ends[i], ends[i + 2])]
    return "vertices: " + " ".join(d + ["L", "R"]) + "\n" + "".join(edges) + f"chips: d0={n}\n"


def sand_pile_heights(n: int) -> set[tuple[int, ...]]:
    """Every height vector (h_0, h_1, ...) that the grain move reaches from
    one column of n grains, trailing zeros dropped: a grain falls from column
    i to column i + 1 when column i is at least two higher. Depth-first, on
    tuples of heights."""
    start = (n,) if n else ()
    seen, stack = {start}, [start]
    while stack:
        heights = stack.pop()
        columns = list(heights) + [0]
        for i in range(len(heights)):
            if columns[i] - columns[i + 1] >= 2:
                nxt = columns[:]
                nxt[i] -= 1
                nxt[i + 1] += 1
                if not nxt[-1]:
                    nxt.pop()
                nxt = tuple(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def peak_traced(run):
    """``run()``'s result, the bytes tracemalloc finds still held when it
    returns (the result included) and the peak bytes on the way."""
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


# independent lattice oracles


def _cells(n, cell, dtype) -> np.ndarray:
    """The n×n matrix of ``cell(x, y)``."""
    return np.array([[cell(x, y) for y in range(n)] for x in range(n)], dtype=dtype).reshape(n, n)


_DENSE_LEQ: "weakref.WeakKeyDictionary[Poset, np.ndarray]" = weakref.WeakKeyDictionary()


def dense_leq(poset: Poset) -> np.ndarray:
    """The order as a read-only boolean matrix, one public ``le`` per cell;
    kept while the poset lives, since the scanning oracles ask per pair."""
    if poset not in _DENSE_LEQ:
        leq = _cells(poset.n, poset.le, bool)
        leq.flags.writeable = False
        _DENSE_LEQ[poset] = leq
    return _DENSE_LEQ[poset]


def dense_join_table(lattice: Lattice) -> np.ndarray:
    """Every join, one public ``join`` per cell."""
    return _cells(lattice.n, lattice.join, np.int32)


def dense_meet_table(lattice: Lattice) -> np.ndarray:
    """Every meet, one public ``meet`` per cell."""
    return _cells(lattice.n, lattice.meet, np.int32)


def dense_distributivity_witness(lattice: Lattice):
    """``Lattice.distributivity_witness`` as it was on the dense tables: the
    triple law for every x, vectorised over all (y, z)."""
    mt, jt = dense_meet_table(lattice), dense_join_table(lattice)
    for x in range(lattice.n):
        lhs = mt[x][jt]
        rhs = jt[np.ix_(mt[x], mt[x])]
        bad = np.nonzero(lhs != rhs)
        if bad[0].size:
            return (x, int(bad[0][0]), int(bad[1][0]))
    return None


def dense_find_isomorphism(a: Lattice, b: Lattice, cap: int = 5000):
    """``find_isomorphism`` as it was on the dense order: the same refinement
    and backtracking, with each candidate compared against the assigned
    elements by rows and columns of ``leq``."""
    if a.n != b.n:
        return None
    if a.n > cap or b.n > cap:
        raise CapExceeded(f"isomorphism search capped at {cap} elements")
    n = a.n
    if n == 0:
        return []
    leq_a, leq_b = dense_leq(a), dense_leq(b)
    ca, cb = _refine_pair(a, b)
    if sorted(ca) != sorted(cb):
        return None
    by_colour: dict[int, list[int]] = {}
    for y in range(n):
        by_colour.setdefault(cb[y], []).append(y)
    class_size = {c: len(v) for c, v in by_colour.items()}
    order = sorted(range(n), key=lambda x: (class_size.get(ca[x], 0), ca[x], x))
    mapping = [-1] * n
    used = [False] * n
    assigned: list[int] = []
    choice_stack: list[list[int]] = []

    def candidates(x):
        out = []
        for y in by_colour.get(ca[x], ()):
            if used[y]:
                continue
            img = [mapping[z] for z in assigned]
            if np.array_equal(leq_a[x, assigned], leq_b[y, img]) and np.array_equal(
                leq_a[assigned, x], leq_b[img, y]
            ):
                out.append(y)
        return out

    depth = 0
    choice_stack.append(candidates(order[0]))
    while True:
        if choice_stack[depth]:
            x = order[depth]
            y = choice_stack[depth].pop()
            mapping[x] = y
            used[y] = True
            assigned.append(x)
            depth += 1
            if depth == n:
                perm = np.array(mapping)
                if np.array_equal(leq_a, leq_b[np.ix_(perm, perm)]):
                    return mapping
                # spurious full assignment: undo and continue
                assigned.pop()
                used[y] = False
                mapping[x] = -1
                depth -= 1
                continue
            choice_stack.append(candidates(order[depth]))
        else:
            choice_stack.pop()
            depth -= 1
            if depth < 0:
                return None
            x = order[depth]
            used[mapping[x]] = False
            mapping[x] = -1
            assigned.pop()


def kahn_from_covers(n, covers, labels=None) -> Poset:
    """``Poset.from_covers`` as it was before up-sets were closed as ints.
    Both place the elements by Kahn's queue (this one from the bottom, over
    a set of seen pairs); they differ in the closure, here each element's
    strict up-set as a numpy row, filled from the top."""
    up = [[] for _ in range(n)]
    indeg = [0] * n
    seen = set()
    for lo, hi in covers:
        if not (0 <= lo < n and 0 <= hi < n) or lo == hi:
            raise ValueError(f"bad cover pair ({lo},{hi})")
        if (lo, hi) in seen:
            continue
        seen.add((lo, hi))
        up[lo].append(hi)
        indeg[hi] += 1
    order = deque(v for v in range(n) if indeg[v] == 0)
    topo = []
    while order:
        v = order.popleft()
        topo.append(v)
        for w in up[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(topo) != n:
        raise ValueError("cover relation contains a cycle")
    leq = np.zeros((n, n), dtype=bool)  # strictly above, until the diagonal is set
    kept = []
    for v in reversed(topo):
        ups = up[v]
        if ups:
            # reached by two or more steps: implied, not a cover
            far = leq[ups].any(axis=0)
            kept.extend((v, w) for w, implied in zip(ups, far[ups].tolist()) if not implied)
            far[ups] = True
            leq[v] = far
    np.fill_diagonal(leq, True)
    return Poset(leq, labels=labels, _checked=True, _covers=tuple(sorted(kept)))


def row_masks(matrix) -> tuple[int, ...]:
    """Each row of a boolean matrix as an int whose bit i is column i, packed
    by numpy: the dense form the library's int sets are checked against."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def dense_mx_masks(lattice: Lattice) -> tuple[int, ...]:
    """mi_above masks over positions in M: the columns of the dense order at M."""
    return row_masks(dense_leq(lattice)[:, list(lattice.M)])


def vector_mx_masks(space: ConfigSpace) -> tuple[int, ...]:
    """mi_above masks over positions in M from firing vectors: bit b of x is
    set when vec(x) <= vec(M[b]) componentwise, one vectorised pass per M[b],
    packed a byte column at a time."""
    n = len(space.vectors)
    vecs = np.array(space.vectors, dtype=np.int64).reshape(n, -1)
    packed = np.zeros((n, -(-len(space.M) // 8)), dtype=np.uint8)
    for b, m in enumerate(space.M):
        packed[:, b >> 3] |= (vecs <= vecs[m]).all(axis=1).view(np.uint8) << (b & 7)
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def meet_table_map(lattice: Lattice, ms, space):
    """Each state's meet of ``ms[v]`` over the vertices v it has not fired,
    folded through ``meet`` from the top."""
    image = []
    for vec in space.vectors:
        x = lattice.top
        for v, m in enumerate(ms):
            if not vec[v]:
                x = lattice.meet(x, m)
        image.append(x)
    return image


def naive_join(lattice: Lattice, x, y):
    """Least common upper bound by scanning; None when absent or ambiguous."""
    leq = dense_leq(lattice)
    ups = [z for z in range(lattice.n) if leq[x, z] and leq[y, z]]
    mins = [a for a in ups if not any(b != a and leq[b, a] for b in ups)]
    return mins[0] if len(mins) == 1 else None


def naive_meet(lattice: Lattice, x, y):
    """Greatest common lower bound by scanning; None when absent or ambiguous."""
    leq = dense_leq(lattice)
    downs = [z for z in range(lattice.n) if leq[z, x] and leq[z, y]]
    maxs = [a for a in downs if not any(b != a and leq[a, b] for b in downs)]
    return maxs[0] if len(maxs) == 1 else None


def naive_not_a_lattice_message(poset: Poset):
    """The error for the first pair (i <= j, join before meet) without a
    unique least upper or greatest lower bound; None for a lattice."""
    labels, n, leq = poset.labels, poset.n, dense_leq(poset)
    for i in range(n):
        for j in range(i, n):
            for kind, word, rel in (("upper", "minimal", leq), ("lower", "maximal", leq.T)):
                common = [z for z in range(n) if rel[i, z] and rel[j, z]]
                extreme = [a for a in common if not any(b != a and rel[b, a] for b in common)]
                if len(extreme) == 1:
                    continue
                head = f"not a lattice: {labels[i]} and {labels[j]} have "
                if not common:
                    return head + f"no common {kind} bound"
                names = ", ".join(labels[a] for a in extreme[:4])
                return head + f"{len(extreme)} {word} common {kind} bounds ({names})"
    return None


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _split_keyword(line, lineno, path):
    if ":" not in line:
        raise ParseError(f"expected 'keyword: ...', got {line!r}", path, lineno)
    keyword, rest = line.split(":", 1)
    return keyword.strip(), rest.strip()


def keyword_parse_lattice(text: str, path: str = "<string>") -> Lattice:
    """``formats.parse_lattice`` as it was before its one-loop pass: the lines
    through ``_lines``, each split by ``_split_keyword``, the line helpers the
    library's game parser once used, copied here so that this oracle shares
    no line handling with the parser it checks."""
    labels: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    covers = []
    for lineno, line in _lines(text):
        keyword, rest = _split_keyword(line, lineno, path)
        if keyword == "elements":
            if labels is not None:
                raise ParseError("duplicate elements line", path, lineno)
            tokens = rest.split()
            if len(set(tokens)) != len(tokens):
                raise ParseError("duplicate element name", path, lineno)
            labels = tuple(tokens)
            index = {x: i for i, x in enumerate(labels)}
        elif keyword == "cover":
            if labels is None:
                raise ParseError("cover before elements line", path, lineno)
            tokens = rest.split()
            if len(tokens) != 2:
                raise ParseError("cover needs 'cover: LOW HIGH'", path, lineno)
            for name in tokens:
                if name not in index:
                    raise ParseError(f"unknown element {name!r}", path, lineno)
            covers.append((index[tokens[0]], index[tokens[1]]))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", path, lineno)
    if labels is None:
        raise ParseError("missing elements line", path)
    try:
        return Lattice.from_covers(len(labels), covers, labels=labels)
    except ValueError as exc:
        # NotALatticeError passes through; cycles etc. become parse errors
        if isinstance(exc, NotALatticeError):
            raise
        raise ParseError(str(exc), path) from None


def naive_cover_pairs(leq) -> list[tuple[int, int]]:
    """Transitive reduction by scanning: x < y with nothing strictly between."""
    n = len(leq)
    return [
        (x, y)
        for x in range(n)
        for y in range(n)
        if x != y and leq[x, y]
        and not any(z not in (x, y) and leq[x, z] and leq[z, y] for z in range(n))
    ]


def assert_adjacencies_match(order, leq):
    """``order``'s upper and lower covers per element, and a lattice's first
    cover-step witness, against the scanned transitive reduction of ``leq``:
    the first sorted cover whose upper element leaves more or fewer than one
    meet-irreducible (an element with one upper cover) above its lower one."""
    pairs = naive_cover_pairs(leq)
    n = len(leq)
    assert order._upper_covers == tuple(tuple(b for a, b in pairs if a == x) for x in range(n))
    assert order._lower_covers == tuple(tuple(a for a, b in pairs if b == x) for x in range(n))
    if isinstance(order, Lattice):
        M = [x for x in range(n) if sum(a == x for a, _ in pairs) == 1]
        mx = row_masks(np.asarray(leq)[:, M])
        steps = [(a, b) for a, b in pairs if bin(mx[a] & ~mx[b]).count("1") != 1]
        assert order._cover_step_witness() == (steps[0] if steps else None)


def _subset_label(labels, members) -> str:
    return "{" + ",".join(labels[x] for x in sorted(members)) + "}"


def dense_union_closed_lattice(masks, ground_labels) -> Lattice:
    """A union-closed family of bitmasks ordered by inclusion.

    The dense construction the library used before it built set families
    from their one-element steps: inclusion tested 64 bits at a time, covers
    left to be derived from ``leq``. Each member is labelled by its set of
    ground elements, named by ``ground_labels`` (bit b is ``ground_labels[b]``).
    """
    n = len(masks)
    leq = np.ones((n, n), dtype=bool)
    width = max((m.bit_length() for m in masks), default=0)
    for shift in range(0, width + 1, 64):
        word = np.array([m >> shift & 0xFFFF_FFFF_FFFF_FFFF for m in masks], dtype=np.uint64)
        leq &= (word[:, None] & ~word[None, :]) == 0
    labels = tuple(
        _subset_label(ground_labels, [b for b in range(m.bit_length()) if m >> b & 1])
        for m in masks
    )
    return Lattice(leq, labels=labels, _checked=True)


def dense_ideal_quotient(lattice: Lattice) -> Lattice:
    """``Lattice.ideal_quotient`` through the dense construction: ideals of
    the join-irreducible order grouped by the partners of their members, each
    group represented by its union."""
    partition = lattice.arrow_partition()
    jp = lattice.join_irreducible_poset()
    m_pos = {m: i for i, m in enumerate(lattice.M)}
    partner_bit = [1 << m_pos[partition.partner[j]] for j in lattice.J]
    groups: dict[int, int] = {}
    for mask in jp.ideal_masks():
        key = 0
        bits = mask
        while bits:
            low = bits & -bits
            key |= partner_bit[low.bit_length() - 1]
            bits ^= low
        groups[key] = groups.get(key, 0) | mask
    reps = sorted(groups.values(), key=lambda m: (bin(m).count("1"), m))
    assert len(set(reps)) == len(reps)
    return dense_union_closed_lattice(reps, jp.labels)


def dual(lattice: Lattice) -> Lattice:
    """The same elements under the reversed order."""
    return Lattice(dense_leq(lattice).T, labels=lattice.labels, _checked=True)


def naive_distributive(lattice: Lattice) -> bool:
    n = lattice.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = lattice.meet(x, lattice.join(y, z))
                rhs = lattice.join(lattice.meet(x, y), lattice.meet(x, z))
                if lhs != rhs:
                    return False
    return True


def naive_arrow_relations(lattice: Lattice) -> ArrowRelations:
    """The arrow relations by a loop over J x M."""
    down, up = set(), set()
    leq = dense_leq(lattice)
    for j in lattice.J:
        j_lo = lattice.j_lower(j)
        for m in lattice.M:
            if leq[j, m]:
                continue
            if leq[j_lo, m]:
                down.add((j, m))
            if leq[j, lattice.m_upper(m)]:
                up.add((j, m))
    return ArrowRelations(frozenset(down), frozenset(up), frozenset(down & up))


def naive_arrow_witness_report(lattice: Lattice) -> ArrowWitnessReport:
    """The arrow witness report by loops over M x n x J and J x n x M."""
    arrows = naive_arrow_relations(lattice)
    uld = lattice.is_uld
    failures = []
    down_ok = True
    updown_ok = True if uld else None
    for m in lattice.M:
        for x in range(lattice.n):
            if lattice.le(x, m):
                continue
            witnesses = [j for j in lattice.J if lattice.le(j, x) and (j, m) in arrows.down]
            if not witnesses:
                down_ok = False
                failures.append(("down", x, m))
            elif uld and not any((j, m) in arrows.updown for j in witnesses):
                updown_ok = False
                failures.append(("updown", x, m))
    up_ok = True
    for j in lattice.J:
        for x in range(lattice.n):
            if lattice.le(j, x):
                continue
            if not any(lattice.le(x, m) and (j, m) in arrows.up for m in lattice.M):
                up_ok = False
                failures.append(("up", j, x))
    return ArrowWitnessReport(down_ok, updown_ok, up_ok, tuple(failures))


def bfs_ideal_masks(poset: Poset, cap=None) -> list[int]:
    """Ideals grown one element at a time by a breadth-first closure, sorted
    by (size, value): the enumeration ``Poset.ideal_masks`` used before its
    walk along a linear extension."""
    down = poset._down_masks
    ideals, seen = [0], {0}
    for ideal in ideals:  # appending while iterating: a FIFO queue
        if cap is not None and len(ideals) > cap:
            raise CapExceeded(f"ideal family exceeds cap {cap}")
        for x in range(poset.n):
            bit = 1 << x
            if not ideal & bit and down[x] & ~ideal == bit and ideal | bit not in seen:
                seen.add(ideal | bit)
                ideals.append(ideal | bit)
    return sorted(ideals, key=lambda m: (bin(m).count("1"), m))


def naive_ideals(poset: Poset):
    """Down-closed subsets via the full powerset. Posets up to ~14 elements."""
    elems = range(poset.n)
    out = []
    for r in range(poset.n + 1):
        for subset in combinations(elems, r):
            s = set(subset)
            if all(y in s for x in s for y in elems if poset.le(y, x)):
                out.append(frozenset(s))
    return out


# corpus generators


def random_convergent_game(rng: random.Random, max_vertices=6, max_chips=8) -> Cfg:
    """Random game with a sink reachable from every vertex (guaranteed)."""
    n = rng.randint(2, max_vertices)
    names = tuple(LETTERS[:n])
    sink = n - 1
    mult: dict[tuple[int, int], int] = {}

    def add(u, v, k=1):
        mult[(u, v)] = mult.get((u, v), 0) + k

    for v in range(n - 1):
        add(v, rng.randrange(v + 1, n), 1 if rng.random() < 0.8 else 2)
    for _ in range(rng.randint(0, n)):
        u = rng.randrange(0, n - 1)
        add(u, rng.randrange(0, n))
    graph = Multigraph(names, mult)
    chips = [0] * n
    for _ in range(rng.randint(1, max_chips)):
        # weight chips toward vertices that stand a chance of firing
        v = rng.randrange(0, n - 1) if rng.random() < 0.9 else rng.randrange(0, n)
        chips[v] += 1
    game = Cfg(graph, tuple(chips))
    assert game.graph.sink_reachable_from_all()
    return game


def random_coloured_game(rng: random.Random, max_vertices=5, max_colours=3) -> ColouredCfg:
    """Random coloured game whose every colour restriction drains to sinks."""
    n = rng.randint(2, max_vertices)
    names = tuple(LETTERS[:n])
    k = rng.randint(1, max_colours)
    layers: dict[int, dict[tuple[int, int], int]] = {}
    init: dict[int, tuple[int, ...]] = {}
    for c in range(1, k + 1):
        m = rng.randint(2, n)
        support = rng.sample(range(n), m)
        local_sink = support[-1]
        layer: dict[tuple[int, int], int] = {}

        def add(u, v, amount=1):
            layer[(u, v)] = layer.get((u, v), 0) + amount

        for i, u in enumerate(support[:-1]):
            add(u, support[rng.randrange(i + 1, m)], 1 if rng.random() < 0.8 else 2)
        for _ in range(rng.randint(0, m)):
            u = support[rng.randrange(0, m - 1)]
            add(u, support[rng.randrange(0, m)])
        layers[c] = layer
        chips = [0] * n
        for _ in range(rng.randint(1, 4)):
            chips[support[rng.randrange(0, m - 1)]] += 1
        init[c] = tuple(chips)
    return ColouredCfg(ColouredMultigraph(names, layers), init)


# poset enumeration (for the exhaustive distributive corpus)


def _canonical_key(leq: np.ndarray) -> bytes:
    n = len(leq)
    best = None
    for perm in permutations(range(n)):
        perm = list(perm)
        candidate = leq[np.ix_(perm, perm)].tobytes()
        if best is None or candidate < best:
            best = candidate
    return best


def all_posets(n: int) -> list[Poset]:
    """All posets on n elements up to isomorphism.

    Every poset admits a linear extension, so enumerating transitively closed
    strict upper-triangular relations and deduplicating by a canonical key
    covers all isomorphism classes.
    """
    if n == 0:
        return [Poset(np.zeros((0, 0), dtype=bool), labels=())]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = {}
    for mask in range(1 << len(pairs)):
        rel = np.eye(n, dtype=bool)
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                rel[i, j] = True
        if ((rel @ rel) & ~rel).any():
            continue
        key = _canonical_key(rel)
        if key not in seen:
            seen[key] = Poset(rel, _checked=True)
    return list(seen.values())


def all_posets_upto(n: int) -> list[Poset]:
    return list(chain.from_iterable(all_posets(m) for m in range(1, n + 1)))
