"""Shared oracles and corpus generators for the test suite.

Oracles here are written independently of the engine's breadth-first
enumeration: depth-first exploration with an explicit stack (classical and
coloured), raw firing sequences without memoisation, a subset walk over each
state's cube of moves, a ``simplify`` that replays the fixpoint after every
split, construction maps through the meet table, naive triple-loop law
checks, loop-based arrow relations and witness reports, a scanning
transitive reduction, the dense inclusion order of a set family, and
powerset-based ideal enumeration.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, permutations

import numpy as np

from chipfire.coloured import ColouredCfg
from chipfire.engine import Cfg
from chipfire.lattice import ArrowRelations, ArrowWitnessReport, Lattice, Poset
from chipfire.multigraph import ColouredMultigraph, Multigraph
from chipfire.transforms import SplitReport, split_vertex

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
    b the highest index in S. Every such move must exist.
    """
    moves = space._moves
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
    """(simple game, split reports) by splitting a most-fired vertex and
    running the split game to its fixpoint again, until every vertex fires
    at most once."""
    reports = []
    current = cfg
    for iteration in range(1, max_rounds + 1):
        counts = current.run_to_fixpoint().counts
        worst = max(counts, default=0)
        if worst <= 1:
            return current, tuple(reports)
        a = counts.index(worst)
        reports.append(SplitReport(current.graph.names[a], 2 * sum(current.init), iteration, a))
        current = split_vertex(current, a)
    raise AssertionError(f"not simple after {max_rounds} rounds")


# independent lattice oracles


def meet_table_map(lattice: Lattice, ms, space):
    """Each state's meet of ``ms[v]`` over the vertices v it has not fired,
    folded through the meet table from the top."""
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
    ups = [
        z
        for z in range(lattice.n)
        if lattice.leq[x, z] and lattice.leq[y, z]
    ]
    mins = [a for a in ups if not any(b != a and lattice.leq[b, a] for b in ups)]
    return mins[0] if len(mins) == 1 else None


def naive_meet(lattice: Lattice, x, y):
    """Greatest common lower bound by scanning; None when absent or ambiguous."""
    downs = [
        z
        for z in range(lattice.n)
        if lattice.leq[z, x] and lattice.leq[z, y]
    ]
    maxs = [a for a in downs if not any(b != a and lattice.leq[a, b] for b in downs)]
    return maxs[0] if len(maxs) == 1 else None


def naive_not_a_lattice_message(poset: Poset):
    """The error for the first pair (i <= j, join before meet) without a
    unique least upper or greatest lower bound; None for a lattice."""
    labels, n = poset.labels, poset.n
    for i in range(n):
        for j in range(i, n):
            for kind, word, rel in (
                ("upper", "minimal", poset.leq),
                ("lower", "maximal", poset.leq.T),
            ):
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
    return Lattice(lattice.leq.T, labels=lattice.labels, _checked=True)


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
    for j in lattice.J:
        j_lo = lattice.j_lower(j)
        for m in lattice.M:
            if lattice.leq[j, m]:
                continue
            if lattice.leq[j_lo, m]:
                down.add((j, m))
            if lattice.leq[j, lattice.m_upper(m)]:
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
