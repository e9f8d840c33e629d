"""Shared oracles and corpus generators for the test suite: one independent
oracle per concept, each written apart from the library code it checks.

- degrees: ``in_degree``, ``nonloop_out_degree``, ``total_multiplicity`` and
  the coloured ``pair_multiplicity``, sums over the edge multiplicities
- firing: ``_fire_in_place`` and ``tuple_successors``, read off the edge
  multiplicities alone; firing orders: ``all_firing_sequences``; a run to
  the fixpoint under a policy: ``scan_run``, the firable set rescanned before
  every firing
- classical closure: ``tuple_space``, ``tuple_closure`` on tuples
- coloured opening rule and closure: ``full_scan_open`` (every colour replayed
  over every open vertex after every firing) and ``full_scan_space``
- cover rows: ``grouped_space``; the cube of moves: ``cube_walk_witness``;
  a cover's fired vertex: ``fired_vertex``, the one entry of the firing
  vector that grows along it
- order: ``dense_leq``; ``generated_leq``, the pairs closed by Warshall's
  rule, and ``generated_order``, its Poset; ``naive_cover_pairs``
- join and meet: ``naive_join``, ``naive_meet``, ``naive_not_a_lattice_message``
- distributivity: ``dense_distributivity_witness``, the triple law on the
  dense tables
- ULD detectors: none here; the cube and cover-step detectors of
  ``Lattice.uld_detectors`` check each other on every corpus
- irreducible codes: ``dense_mx_masks``, columns of the dense order
- arrows: ``naive_arrow_relations``, ``naive_arrow_witness_report``
- ideals: ``naive_ideals``, the powerset; set families: ``assert_set_family``,
  inclusion, labels and joins by definition, fed the ideal quotient's members
  by the paper's grouping, ``dense_ideal_quotient``
- parsing lattice files: no oracle; ``tests/test_formats.py`` pins each error
  with its line, and comments, whitespace and line ends
- shot labels and DOT: ``oracle_labels``, ``oracle_space_to_dot``
- split: no oracle; tests pin the names, multiplicities and chips of split
  games; simplify: ``replaying_simplify``, one fixpoint run per split
- Sand Pile Model: ``sand_pile_heights``, the grain move on height vectors
- construction maps: ``meet_table_map``, ``pair_set_hasse_isomorphism``;
  coloured synthesis: ``paper_coloured_from_uld``, ``paper_uld_map``

No oracle imports a private function or class of ``chipfire.engine`` or
``chipfire.coloured`` (``tests/test_oracle_imports.py``). The dense order and
tables are filled one public ``le``, ``join`` or ``meet`` per cell. Isomorphism
has no oracle here: ``find_isomorphism`` is one, which no command runs, and
each mapping it returns is checked by ``transforms.is_hasse_isomorphism``.
Each input family meets its closure oracle in one test, all of them in
``tests/test_packed_closure.py``, and the oracles of the lattice layer,
through ``assert_lattice_layer``, in one test, all of them in
``tests/test_lattice_tables.py``. An oracle or a test is retired only with a
row of ``tests/mutants.py`` aimed at what it checked, which the tests kept
must catch (``python tests/mutants.py``).

The input generators live here too, so that no test module imports another:
the seeded random games, the hypothesis strategies ``convergent_games``,
``coloured_games``, ``posets`` and ``antimatroids``, and the builders
``random_dag_poset``, ``bounded``, ``wide_text``, ``grid_sandpile`` and
``all_posets``.
"""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
import weakref
from importlib import resources
from itertools import chain, combinations, permutations, product

import numpy as np
import pytest
from hypothesis import strategies as st

from chipfire import coloured, transforms
from chipfire.coloured import ColouredCfg, ColouredState
from chipfire.engine import Cfg, ConfigSpace
from chipfire.errors import (
    FiringVectorConflict,
    StateCapExceeded,
    StepCapExceeded,
)
from chipfire.lattice import (
    ArrowRelations,
    ArrowWitnessReport,
    Lattice,
    Poset,
    _family_lattice,
    arrow_witness_report,
)
from chipfire.multigraph import ColouredMultigraph, Multigraph
from chipfire.transforms import SplitReport

LETTERS = "abcdefghij"


def data_path(name):
    """The path of a data file shipped with the package."""
    return str(resources.files("chipfire.data").joinpath(name))


def v(game, name):
    """The vertex of a game named ``name``."""
    return game.graph.vertex(name)


def with_duals(lattices):
    """Each lattice, then its dual."""
    return [each for lat in lattices for each in (lat, dual(lat))]


# degree oracles


def in_degree(graph: Multigraph, v: int) -> int:
    """Total multiplicity of the edges into v, loops included."""
    return sum(k for (_, w), k in graph.mult.items() if w == v)


def nonloop_out_degree(graph: Multigraph, v: int) -> int:
    """Total multiplicity of the edges out of v to other vertices."""
    return sum(k for (u, w), k in graph.mult.items() if u == v != w)


def total_multiplicity(graph: Multigraph) -> int:
    """Total multiplicity of all edges."""
    return sum(graph.mult.values())


def pair_multiplicity(graph: ColouredMultigraph, u: int, v: int) -> int:
    """Total multiplicity of (u, v) summed over all colour layers."""
    return sum(edges.get((u, v), 0) for edges in graph.layers.values())


# independent dynamics oracles


def _fire_in_place(chips: list, graph: Multigraph, v: int) -> None:
    """Fire v on a mutable chip list, read off the edge multiplicities alone:
    one chip leaves v along each edge out of v (a loop's comes back)."""
    for (u, w), k in graph.mult.items():
        if u == v:
            chips[v] -= k
            chips[w] += k


def scan_run(cfg: Cfg, policy="min", rng=None):
    """``Cfg.run_to_fixpoint`` by its definition, as (the firings as
    (vertex, configuration after it) pairs, final configuration, counts):
    before every firing the firable set is rescanned off the edge
    multiplicities, and the policy picks from it: ``min``, ``max``,
    ``rng.choice`` of it sorted, or a callable's pick from the frozenset.
    No step cap: convergent games only."""
    n, graph = cfg.graph.n, cfg.graph
    out = [sum(k for (u, _), k in graph.mult.items() if u == v) for v in range(n)]
    chips, counts, fired = list(cfg.init), [0] * n, []
    while fs := frozenset(v for v in range(n) if 0 < out[v] <= chips[v]):
        if policy == "min":
            v = min(fs)
        elif policy == "max":
            v = max(fs)
        elif policy == "random":
            v = rng.choice(sorted(fs))
        else:
            v = policy(fs)
        _fire_in_place(chips, graph, v)
        counts[v] += 1
        fired.append((v, tuple(chips)))
    return fired, tuple(chips), tuple(counts)


def full_scan_firable(game: ColouredCfg, state: ColouredState) -> frozenset[int]:
    """Vertices, open or closed, firable in at least one colour restriction."""
    out = set()
    for ci, c in enumerate(game.colours):
        deg = game.graph.restriction_to_colour(c)._out_degrees
        chips = state.chips[ci]
        out.update(v for v in range(game.graph.n) if 0 < deg[v] <= chips[v])
    return frozenset(out)


def full_scan_openable(game: ColouredCfg, state: ColouredState) -> frozenset[int]:
    """Closed vertices firable in at least one colour restriction."""
    return full_scan_firable(game, state) - state.opened


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
                f"colour {c} converges, but the step cap came first: "
                f"not stable within {coloured._STABILIZE_CAP} firings"
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


def full_scan_parts(game: ColouredCfg, state_cap=None):
    """``tuple_closure`` of a coloured game on ``ColouredState``s of chip
    tuples, with the full-scan opening rule; the states as chips."""

    def successors(state):
        openable = sorted(full_scan_openable(game, state))
        return [(v, full_scan_open(game, state, v)) for v in openable]

    vectors, states, covers = tuple_closure(game, game.initial_state(), successors, state_cap)
    return vectors, tuple(state.chips for state in states), covers


def full_scan_space(game: ColouredCfg, state_cap=None) -> ConfigSpace:
    """``ColouredCfg.enumerate_space`` through ``full_scan_parts``."""
    return grouped_space(game.graph.names, *full_scan_parts(game, state_cap))


def tuple_closure(game, start, successors, state_cap):
    """``engine._closure`` with each firing vector an n-tuple, sliced anew on
    every move, and states sorted by (sum, tuple): the oracle for the packed
    vectors. Same cap, same two checks, same texts. Returns the vectors, the
    states and the sorted (lower, upper, fired vertex) cover triples, all in
    canonical order."""
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
    return (
        tuple(vectors[i] for i in order),
        tuple(states[i] for i in order),
        tuple(sorted((rank[a], rank[b], v) for a, v, b in transitions)),
    )


def grouped_by_state(n, covers):
    """Per state of n, its upper covers in the order of the (lower, upper,
    vertex) triples ``covers``, and its fired vertices as a mask (bit v)."""
    ups, masks = [[] for _ in range(n)], [0] * n
    for lo, hi, v in covers:
        ups[lo].append(hi)
        masks[lo] |= 1 << v
    return tuple(map(tuple, ups)), tuple(masks)


def grouped_space(names, vectors, configs, covers) -> ConfigSpace:
    """The ConfigSpace of sorted cover triples, grouped per state here
    (``grouped_by_state``), not by the engine. Its ``vectors`` and
    ``configs`` are seeded with the tuples given, so no unpacking rule of
    the engine's makes them; its packed vectors, which ``len`` and
    ``height`` read, are packed here by the engine's documented layout (a
    64-bit field per vertex, vertex 0 the most significant, and the total
    firings above them), and its states are the configurations themselves."""
    n = len(names)
    packed = tuple(
        sum(vec) << 64 * n | sum(c << 64 * (n - 1 - v) for v, c in enumerate(vec))
        for vec in vectors
    )
    ups, masks = grouped_by_state(len(vectors), covers)
    space = ConfigSpace(
        names=names,
        packed_vectors=packed,
        packed_states=configs,
        unpack=list,
        ups=ups,
        move_masks=masks,
    )
    vars(space).update(vectors=vectors, configs=configs)
    return space


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


def tuple_parts(cfg: Cfg, state_cap=None):
    """``tuple_closure`` of a game on configuration tuples."""
    return tuple_closure(cfg, cfg.init, lambda conf: tuple_successors(cfg, conf), state_cap)


def tuple_space(cfg: Cfg, state_cap=None) -> ConfigSpace:
    """``Cfg.enumerate_space`` on configuration tuples, through ``tuple_closure``."""
    return grouped_space(cfg.graph.names, *tuple_parts(cfg, state_cap))


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


def fired_vertex(vectors, lo, hi) -> int:
    """The vertex the cover (lo, hi) fires: the one entry where ``vectors[hi]``
    exceeds ``vectors[lo]``."""
    [v] = [v for v, (a, b) in enumerate(zip(vectors[lo], vectors[hi])) if b > a]
    return v


def cube_walk_witness(space):
    """Least state whose k >= 2 moves do not span a cube of 2^k states,
    or None.

    The subsets S of the moves u_1..u_k out of x are walked by subset
    DP: the state for S is the state for S - {u_b} moved along u_b, with
    b the highest index in S. Every such move must exist. The moves are
    read off ``space.ups`` and the vectors, as {vertex: next state} per state.
    """
    vectors = space.vectors
    moves = [{fired_vertex(vectors, lo, hi): hi for hi in ups} for lo, ups in enumerate(space.ups)]
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


def replaying_simplify(cfg: Cfg, max_rounds=1000):
    """(simple game, split reports) by splitting a most-fired vertex with
    ``transforms.split_vertex`` and running the split game to its fixpoint
    again, until every vertex fires at most once: one fixpoint per round,
    where ``simplify`` predicts every round's counts from one run."""
    reports = []
    current = cfg
    for iteration in range(1, max_rounds + 1):
        counts = current.run_to_fixpoint().counts
        worst = max(counts, default=0)
        if worst <= 1:
            return current, tuple(reports)
        a = counts.index(worst)
        reports.append(SplitReport(current.graph.names[a], 2 * sum(current.init), iteration, a))
        current = transforms.split_vertex(current, a)
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


def grid_sandpile(n: int, pile: int) -> Cfg:
    """Dhar's abelian sandpile on an n x n grid, ``pile`` chips on the
    centre cell: every cell sends one chip to each of its four neighbours,
    the ones off the grid into the sink ``s``."""
    cell = {(i, j): i * n + j for i in range(n) for j in range(n)}
    sink, mult = n * n, {}
    for (i, j), u in cell.items():
        for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            w = cell.get((a, b), sink)
            mult[u, w] = mult.get((u, w), 0) + 1
    chips = [0] * (n * n + 1)
    chips[cell[n // 2, n // 2]] = pile
    names = [f"r{i}c{j}" for i, j in cell] + ["s"]
    return Cfg(Multigraph(tuple(names), mult), tuple(chips))


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
    returns (the result included) and the peak bytes on the way. A full
    collection first empties the free lists that earlier code filled: an
    object taken from one is not traced, so both counts would depend on
    what ran before."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


# shot labels and the space's DOT text: one str.format per token, each label
# escaped whole, and each edge's fired vertex read off the vectors


def oracle_labels(space: ConfigSpace) -> tuple[str, ...]:
    """Every state's shot label: its fired names, ``{a,b}``, or each with
    its count, ``{a:1,b:2}``, if any vertex fires twice in the space."""
    names, counted = space.names, any(c > 1 for vec in space.vectors for c in vec)
    word = "{}:{}" if counted else "{}"  # "{}" formats the name and drops the count
    return tuple(
        "{" + ",".join([word.format(names[v], c) for v, c in enumerate(vec) if c]) + "}"
        for vec in space.vectors
    )


def _oracle_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def oracle_space_to_dot(space: ConfigSpace) -> str:
    """Hasse diagram of a configuration space, initial state at the bottom:
    a node per state, then an edge per upper cover in ``ups`` order."""
    lines = ["digraph configuration_space {", "  rankdir=BT;", "  node [shape=box];"]
    for x, label in enumerate(oracle_labels(space)):
        lines.append(f"  n{x} [label={_oracle_quote(label)}];")
    for lo, ups in enumerate(space.ups):
        for hi in ups:
            name = space.names[fired_vertex(space.vectors, lo, hi)]
            lines.append(f"  n{lo} -> n{hi} [label={_oracle_quote(name)}];")
    return "\n".join(lines + ["}"]) + "\n"


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
    """The first triple (x, y, z) breaking the distributive law on the dense
    tables, or None: every x, vectorised over all (y, z)."""
    mt, jt = dense_meet_table(lattice), dense_join_table(lattice)
    for x in range(lattice.n):
        lhs = mt[x][jt]
        rhs = jt[np.ix_(mt[x], mt[x])]
        bad = np.nonzero(lhs != rhs)
        if bad[0].size:
            return (x, int(bad[0][0]), int(bad[1][0]))
    return None


def generated_leq(n, pairs) -> np.ndarray:
    """The order the pairs (lo, hi) generate, by its definition, as a boolean
    matrix: every pair is checked first, then the pairs are closed
    reflexively and transitively by Warshall's rule, and x != y with
    x <= y <= x is a cycle."""
    pairs = list(pairs)
    for lo, hi in pairs:
        if not (0 <= lo < n and 0 <= hi < n) or lo == hi:
            raise ValueError(f"bad cover pair ({lo},{hi})")
    leq = np.eye(n, dtype=bool)
    for lo, hi in pairs:
        leq[lo, hi] = True
    for k in range(n):  # x <= k <= y gives x <= y
        leq |= leq[:, [k]] & leq[k]
    if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
        raise ValueError("cover relation contains a cycle")
    return leq


def generated_order(n, pairs, labels=None) -> Poset:
    """``generated_leq`` as a Poset. Only the order is handed over: its
    covers are the ones ``Poset`` derives from it."""
    return Poset(generated_leq(n, pairs), labels=labels, _checked=True)


def row_masks(matrix) -> tuple[int, ...]:
    """Each row of a boolean matrix as an int whose bit i is column i, packed
    by numpy: the dense form the library's int sets are checked against."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def dense_mx_masks(lattice: Lattice) -> tuple[int, ...]:
    """mi_above masks over positions in M: the columns of the dense order at M."""
    return row_masks(dense_leq(lattice)[:, list(lattice.M)])


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


def pair_set_hasse_isomorphism(image, rows, target_rows) -> bool:
    """A Hasse-diagram isomorphism by its definition: ``image`` is a
    bijection onto range(n), n the target's size, that maps the set of the
    source's (lower, upper) cover pairs exactly onto the set of the
    target's; each side's pairs are read off its upper-cover rows."""
    n = len(target_rows)
    if image is None or len(image) != n or set(image) != set(range(n)):
        return False
    # for a bijection, equal pair sets is "into" plus equal counts
    return {(image[lo], image[hi]) for lo, ups in enumerate(rows) for hi in ups} == {
        (lo, hi) for lo, ups in enumerate(target_rows) for hi in ups
    }


# the paper's coloured synthesis (Magnien, Phan & Vuillon, arXiv math/0110211),
# kept as an oracle for the path games of ``transforms.coloured_from_uld``


def paper_arrow_classes(lattice: Lattice) -> list[tuple[tuple[int, ...], int]]:
    """The arrow classes in the order of ``paper_coloured_from_uld``'s
    vertices: each is (the positions in J of its members, their common
    partner in M)."""
    j_pos = {j: pos for pos, j in enumerate(lattice.J)}
    return sorted(
        (tuple(sorted(j_pos[j] for j in members)), m)
        for m, members in lattice.arrow_partition().classes.items()
    )


def paper_coloured_from_uld(lattice: Lattice) -> ColouredCfg:
    """The coloured game of the paper's proof: one vertex per arrow class
    plus a sink, and one colour per join-irreducible j, carrying the
    classical ideal game of the down-set of j (``transforms._ideal_game_parts``
    on that down-set) landed on the classes; multiplicities and chips that
    meet on a class add up. A k-element chain gets k - 1 colours. Its space
    is the lattice on the test corpora, but it has too few states on the
    Sand Pile Model's lattices from SPM(16) on."""
    classes = [members for members, _ in paper_arrow_classes(lattice)]
    jp = lattice.join_irreducible_poset()
    bot = len(classes)
    target = {pos: ci for ci, members in enumerate(classes) for pos in members}
    names = tuple("+".join(jp.labels[pos] for pos in members) for members in classes)
    names += (transforms._fresh_name("bot", set(jp.labels)),)
    layers, init = {}, {}
    for pos in range(jp.n):
        below = [q for q in range(jp.n) if jp._down_masks[pos] >> q & 1]
        edges, chips = transforms._ideal_game_parts(jp.restrict(below))
        remap = [target[q] for q in below] + [bot]
        layer = {}
        for (u, v), k in edges.items():
            key = (remap[u], remap[v])
            layer[key] = layer.get(key, 0) + k
        chip_vec = [0] * (bot + 1)
        for i, c in enumerate(chips):
            chip_vec[remap[i]] += c
        layers[pos + 1] = layer
        init[pos + 1] = tuple(chip_vec)
    return ColouredCfg(ColouredMultigraph(names, layers), init)


def paper_uld_map(lattice: Lattice, space: ConfigSpace) -> list:
    """Where the states of ``paper_coloured_from_uld(lattice)`` land: an open
    set S goes to the meet of the partners of the arrow classes outside it,
    the element with those meet-irreducibles above it; vertex i is the i-th
    class. None for a state whose code no element has."""
    partners = [m for _, m in paper_arrow_classes(lattice)]
    # M is ascending, so bit b of a code is the class with the b-th smallest partner
    order = sorted(range(len(partners)), key=partners.__getitem__)
    element = {code: x for x, code in enumerate(lattice._mx_masks)}
    codes = (sum(1 << b for b, v in enumerate(order) if not vec[v]) for vec in space.vectors)
    return [element.get(code) for code in codes]


@st.composite
def antimatroid_families(draw):
    """The union closure of the prefixes of a few words over at most 5
    letters, an antimatroid: its sets as masks, sorted by (size, value)."""
    k = draw(st.integers(1, 5))
    words = draw(st.lists(st.permutations(range(k)), min_size=1, max_size=4))
    family = {0}
    for word in words:
        prefix = 0
        for letter in word[:draw(st.integers(0, k))]:
            prefix |= 1 << letter
            family |= {prefix | member for member in family}
    return sorted(family, key=lambda m: (m.bit_count(), m))


def antimatroids():
    """``antimatroid_families`` as lattices of sets."""
    return antimatroid_families().map(lambda members: _family_lattice(members, members, "abcde"))


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


def assert_set_family(lat: Lattice, masks, ground_labels) -> None:
    """``lat`` is the family of bitmasks ``masks`` ordered by inclusion, by
    definition: x <= y iff member x is a subset of member y (read through
    ``dense_leq``; the covers derived from it), each label names its member's
    ground elements (bit b is ``ground_labels[b]``), and the join of x and y
    is the least member containing their union, which is the union itself
    when the family is union-closed."""
    n = len(masks)
    subset = np.array([[a & ~b == 0 for b in masks] for a in masks], dtype=bool).reshape(n, n)
    assert np.array_equal(dense_leq(lat), subset), lat.labels
    assert lat.cover_pairs == Poset(subset, _checked=True).cover_pairs, lat.labels
    names = [[ground_labels[b] for b in range(m.bit_length()) if m >> b & 1] for m in masks]
    assert lat.labels == tuple("{" + ",".join(members) + "}" for members in names)
    join = dense_join_table(lat)
    for x in range(n):  # the members above both x and y are those above their join
        assert np.array_equal(subset[join[x]], subset[x] & subset), (lat.labels, x)


def dense_ideal_quotient(lattice: Lattice) -> list[int]:
    """The members of ``Lattice.ideal_quotient`` by the paper's grouping: the
    ideals of the join-irreducible order grouped by the partners of their
    members, each group represented by its union; sorted by (size, value)."""
    partner = lattice.arrow_partition().partner
    jp = lattice.join_irreducible_poset()
    groups: dict[frozenset, int] = {}
    for mask in jp.ideal_masks():
        key = frozenset(partner[j] for b, j in enumerate(lattice.J) if mask >> b & 1)
        groups[key] = groups.get(key, 0) | mask
    return sorted(groups.values(), key=lambda m: (m.bit_count(), m))


def dual(lattice: Lattice) -> Lattice:
    """The same elements under the reversed order."""
    return Lattice(dense_leq(lattice).T, labels=lattice.labels, _checked=True)


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
    leq = dense_leq(lattice)
    uld = lattice.is_uld
    failures = []
    down_ok = True
    updown_ok = True if uld else None
    for m in lattice.M:
        for x in range(lattice.n):
            if leq[x, m]:
                continue
            witnesses = [j for j in lattice.J if leq[j, x] and (j, m) in arrows.down]
            if not witnesses:
                down_ok = False
                failures.append(("down", x, m))
            elif uld and not any((j, m) in arrows.updown for j in witnesses):
                updown_ok = False
                failures.append(("updown", x, m))
    up_ok = True
    for j in lattice.J:
        for x in range(lattice.n):
            if leq[j, x]:
                continue
            if not any(leq[x, m] and (j, m) in arrows.up for m in lattice.M):
                up_ok = False
                failures.append(("up", j, x))
    return ArrowWitnessReport(down_ok, updown_ok, up_ok, tuple(failures))


# the lattice layer, each concept against its one oracle

SCAN_MAX = 40  # the scanning join and meet oracles cost about n^4
DENSE_MAX = 256  # the dense oracles and a space's queries per pair cost n^2 calls and more


def assert_lattice_layer(lat: Lattice, space: ConfigSpace | None = None) -> None:
    """Each concept of the lattice layer against its one oracle, on ``lat``
    and on ``dual(lat)``: joins and meets against ``naive_join`` and
    ``naive_meet`` (at most ``SCAN_MAX`` elements); the distributivity
    verdict and first witness against ``dense_distributivity_witness``;
    ``_mx_masks`` against ``dense_mx_masks``; the arrow partition against
    the up-down arrows; ``arrow_relations`` and ``arrow_witness_report``
    against the loops over J x M. Past ``DENSE_MAX`` elements none of these
    runs. Given the ``space`` that ``lat`` views, every verdict and query
    the space reads off its firing vectors and moves must equal the
    lattice's, and its moves must span a cube at every state
    (``cube_walk_witness``)."""
    for each in (lat, dual(lat)) if lat.n <= DENSE_MAX else ():
        if each.n <= SCAN_MAX:
            for x, y in product(range(each.n), repeat=2):
                assert each.join(x, y) == naive_join(each, x, y), (each.labels, x, y)
                assert each.meet(x, y) == naive_meet(each, x, y), (each.labels, x, y)
        witness = each.distributivity_witness()
        assert witness == dense_distributivity_witness(each), each.labels
        assert each.is_distributive == (witness is None), each.labels
        assert each._mx_masks == dense_mx_masks(each), each.labels
        arrows = naive_arrow_relations(each)
        assert each.arrow_relations == arrows, each.labels
        assert arrow_witness_report(each) == naive_arrow_witness_report(each), each.labels
        if each.is_uld:
            partner = each.arrow_partition().partner
            assert arrows.updown == {(j, partner[j]) for j in each.J}, each.labels
        else:
            with pytest.raises(ValueError):
                each.arrow_partition()
    if space is None:
        return
    for rule in ("cover_pairs", "_upper_covers", "J", "M", "_mx_masks", "is_ranked", "height",
                 "uld_detectors", "is_uld", "is_distributive", "_up_masks", "_down_masks",
                 "_rank_info", "cover_labels", "_arrows", "arrow_relations"):
        assert getattr(space, rule) == getattr(lat, rule), rule
    for rule in ("_hypercube_witness", "_cover_step_witness", "arrow_partition", "edge_labels"):
        assert getattr(space, rule)() == getattr(lat, rule)(), rule
    assert arrow_witness_report(space) == arrow_witness_report(lat)
    # the commuting check stands in for the subset walk it replaced
    assert space._hypercube_witness() is None and cube_walk_witness(space) is None
    for x in range(space.n):
        assert space.ji_below(x) == lat.ji_below(x) and space.mi_above(x) == lat.mi_above(x), x
    if space.n > DENSE_MAX:  # the masks these queries read are compared above
        return
    pairs = list(product(range(space.n), repeat=2))
    for query in ("le", "join", "meet"):
        mine, theirs = getattr(space, query), getattr(lat, query)
        assert [mine(x, y) for x, y in pairs] == [theirs(x, y) for x, y in pairs], query
    # the join of the order is the componentwise max of the firing vectors
    assert [space.join_of(x, y) for x, y in pairs] == [lat.join(x, y) for x, y in pairs]
    assert space.distributivity_witness() == lat.distributivity_witness()


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


def coloured_union(games, rng: random.Random) -> ColouredCfg:
    """The disjoint union of coloured games, as the ``space`` workload builds
    its coloured products: each game's vertices renamed apart, and its
    colours mapped to distinct colours drawn in a shuffled order. Its space
    is the product of theirs."""
    count = sum(len(game.colours) for game in games)
    fresh = iter(rng.sample(range(1, count + 1), count))
    names, layers, init, base = [], {}, {}, 0
    for i, game in enumerate(games):
        n = game.graph.n
        names += [f"{name}{i}" for name in game.graph.names]
        for c in game.colours:
            new = next(fresh)
            layers[new] = {(u + base, w + base): k for (u, w), k in game.graph.layers[c].items()}
            init[new] = (0,) * base + game.init[c]
        base += n
    init = {c: chips + (0,) * (base - len(chips)) for c, chips in init.items()}
    return ColouredCfg(ColouredMultigraph(tuple(names), layers), init)


def wide_text(k):
    """k one-chip sources draining to one sink, as a game file: a space of
    2^k states."""
    sources = [f"s{i}" for i in range(k)]
    return (
        "vertices: " + " ".join(sources) + " t\n"
        + "".join(f"edge: {s} t 1\n" for s in sources)
        + "chips: " + " ".join(f"{s}=1" for s in sources) + "\n"
    )


@st.composite
def convergent_games(draw):
    """Games whose every non-sink vertex has an edge to a later vertex, so
    the last vertex is a sink reachable from everywhere; loops and parallel
    edges allowed."""
    n = draw(st.integers(2, 5))
    mult: dict[tuple[int, int], int] = {}
    for v in range(n - 1):
        w = draw(st.integers(v + 1, n - 1))
        mult[(v, w)] = draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, n))):
        edge = (draw(st.integers(0, n - 2)), draw(st.integers(0, n - 1)))
        mult[edge] = mult.get(edge, 0) + 1
    chips = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Cfg(Multigraph(tuple("abcde"[:n]), mult), tuple(chips))


@st.composite
def coloured_games(draw):
    """Coloured games whose every vertex with a colour-c edge also has a
    colour-c edge to a later vertex, so each colour drains to the last
    vertex; loops and parallel edges allowed."""
    n = draw(st.integers(2, 5))
    layers = {}
    init = {}
    for c in range(1, draw(st.integers(1, 3)) + 1):
        layer: dict[tuple[int, int], int] = {}
        for v in range(n - 1):
            if v == 0 or draw(st.booleans()):
                layer[(v, draw(st.integers(v + 1, n - 1)))] = draw(st.integers(1, 2))
        sources = sorted({u for u, _ in layer})
        for _ in range(draw(st.integers(0, n))):
            edge = (draw(st.sampled_from(sources)), draw(st.integers(0, n - 1)))
            layer[edge] = layer.get(edge, 0) + 1
        layers[c] = layer
        init[c] = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return ColouredCfg(ColouredMultigraph(tuple("abcde"[:n]), layers), init)


@st.composite
def posets(draw):
    """Orders on up to 8 elements, closed from random pairs i < j."""
    n = draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Poset.from_covers(n, [pair for pair, keep in zip(pairs, chosen) if keep])


def random_dag_poset(rng: random.Random, n: int) -> Poset:
    """The order closed from the pairs i < j of n elements, each kept with
    probability 0.35."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    return Poset.from_covers(n, pairs)


def bounded(poset: Poset) -> Poset:
    """The poset with a new least and a new greatest element."""
    n = poset.n
    leq = np.zeros((n + 2, n + 2), dtype=bool)
    leq[0, :] = leq[:, n + 1] = True
    leq[1:n + 1, 1:n + 1] = dense_leq(poset)
    return Poset(leq, labels=("bot",) + poset.labels + ("top",), _checked=True)


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
