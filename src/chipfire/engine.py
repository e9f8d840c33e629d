"""Classical chip-firing dynamics: firing, fixpoint execution, space enumeration.

A vertex holding at least its out-degree in chips may fire, sending one chip
along each outgoing edge. Loops return their chips to the firing vertex but
still count toward the firing threshold.

Classical and coloured configuration spaces both come from ``_closure``, one
breadth-first closure that holds the state cap, the canonical order and two
checks: a revisited state keeps its firing vector, and no two states share one.

A space answers the lattice questions ``chipfire space`` asks (J, M, rank,
the two ULD detectors, distributivity) from its firing vectors and moves,
without a dense order. That rests on one more check, run lazily before the
first such answer: at every state, any two moves u != v commute, i.e. after
u the move v is still possible (firing or opening u only adds chips to v).
With distinct firing vectors, this local confluence gives the exchange lemma
of Björner, Lovász & Shor (1991): the reachable vectors are closed under
componentwise max, and x reaches y iff vec(x) <= vec(y). So the space is a
lattice whose join is the componentwise max. The same check is the space's
hypercube detector: every set of moves out of a state spans a cube. The
cover-step detector, on the meet-irreducible coding, is the independent one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import FiringVectorConflict, StateCapExceeded, StepCapExceeded
from .lattice import (
    Lattice,
    _distributive_verdict,
    _first_bad_step,
    _longest_path_ranks,
    _packed_ints,
    _uld_verdict,
)
from .multigraph import Multigraph


def _fire_in_place(chips: list, graph: Multigraph, v: int) -> None:
    """Fire v on a mutable chip list, without checking that v may fire."""
    chips[v] -= graph._out_degrees[v]
    for w, k in graph._out_adj[v]:
        chips[w] += k


def _closure(game, start, successors, state_cap) -> "ConfigSpace":
    """Breadth-first closure of ``start`` under ``successors``, as a ConfigSpace.

    ``successors(state)`` lists the moves ``(v, next_state)``; each move adds
    one to entry v of the firing vector. States are hashable and stored as
    the space's configurations. Raises FiringVectorConflict when a state is
    reached again with a different firing vector, RuntimeError when two states
    share one (for a coloured game: one open-set with two chip contents).
    """
    ids = {start: 0}  # state -> discovery number
    states, vectors = [start], [(0,) * game.graph.n]
    transitions = []
    for i, state in enumerate(states):  # appending while iterating: a FIFO queue
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
    covers = tuple(sorted((rank[a], rank[b], v) for a, v, b in transitions))
    return ConfigSpace(
        game=game,
        names=game.graph.names,
        vectors=tuple(vectors[i] for i in order),
        configs=tuple(states[i] for i in order),
        covers=covers,
    )


def _chooser(policy, rng) -> Callable[[frozenset[int]], int]:
    if policy == "min":
        return min
    if policy == "max":
        return max
    if policy == "random":
        r = rng if rng is not None else random.Random(0)
        return lambda fs: r.choice(sorted(fs))
    if callable(policy):
        return policy
    raise ValueError(f"unknown firing policy {policy!r}")


@dataclass(frozen=True)
class FixpointRun:
    """Result of playing a game to its fixed point."""

    final: tuple[int, ...]
    counts: tuple[int, ...]

    @property
    def steps(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class Cfg:
    """A chip-firing game: support graph plus initial chip configuration."""

    graph: Multigraph
    init: tuple[int, ...]

    def __post_init__(self):
        init = tuple(int(c) for c in self.init)
        if len(init) != self.graph.n:
            raise ValueError("initial configuration must cover every vertex")
        if any(c < 0 for c in init):
            raise ValueError("chip counts must be non-negative")
        object.__setattr__(self, "init", init)

    @property
    def converges_guaranteed(self) -> bool:
        """True when every vertex can drain to a sink, which forces convergence."""
        return len(self.graph.drain_set()) == self.graph.n

    def _require_guard(self, cap, what):
        if cap is None and not self.converges_guaranteed:
            raise ValueError(
                f"{what} needs a cap: no sink is reachable from every vertex, "
                "so convergence is not guaranteed"
            )

    def firable(self, conf) -> frozenset[int]:
        """Vertices holding at least their (positive) out-degree in chips."""
        deg = self.graph._out_degrees
        return frozenset(v for v in range(self.graph.n) if 0 < deg[v] <= conf[v])

    def fire(self, conf, v: int) -> tuple[int, ...]:
        """Send one chip along each edge out of v; v must be firable."""
        if v not in self.firable(conf):
            raise ValueError(f"vertex {self.graph.names[v]} is not firable")
        return self._fire(conf, v)

    def _fire(self, conf, v) -> tuple[int, ...]:
        """``fire`` for a vertex the caller has already found firable."""
        nxt = list(conf)
        _fire_in_place(nxt, self.graph, v)
        return tuple(nxt)

    def run_to_fixpoint(
        self, policy="min", step_cap=None, rng=None, on_fire=None
    ) -> FixpointRun:
        """Fire under the given policy until nothing is firable.

        The final configuration and the per-vertex firing counts are
        independent of the policy (strong convergence).
        """
        self._require_guard(step_cap, "run_to_fixpoint")
        choose = _chooser(policy, rng)
        conf = self.init
        counts = [0] * self.graph.n
        steps = 0
        while True:
            fs = self.firable(conf)
            if not fs:
                return FixpointRun(conf, tuple(counts))
            if step_cap is not None and steps >= step_cap:
                raise StepCapExceeded(
                    f"possibly divergent: no fixpoint within step cap {step_cap}"
                )
            v = choose(fs)
            if v not in fs:  # a caller-supplied policy may pick any vertex
                raise ValueError(f"vertex {self.graph.names[v]} is not firable")
            conf = self._fire(conf, v)
            counts[v] += 1
            steps += 1
            if on_fire is not None:
                on_fire(v, conf)

    def is_simple(self, step_cap=None) -> bool:
        """True when no vertex fires more than once on the way to the fixpoint."""
        return max(self.run_to_fixpoint(step_cap=step_cap).counts, default=0) <= 1

    def enumerate_space(self, state_cap=None) -> "ConfigSpace":
        """Breadth-first closure of every reachable configuration.

        States are keyed by configuration; the firing-count vector is stored
        and cross-checked on revisits (equal configurations reached from the
        same start must have fired the same multiset of vertices).
        """
        self._require_guard(state_cap, "enumerate_space")

        def successors(conf):
            return [(v, self._fire(conf, v)) for v in sorted(self.firable(conf))]

        return _closure(self, self.init, successors, state_cap)


@dataclass(frozen=True)
class ConfigSpace:
    """All reachable states of a game, ordered by how much has been fired.

    Elements are in canonical order: by total firings, then lexicographically
    by firing-count vector. Element 0 is the initial state; covers are
    labelled by the fired (or opened) vertex.

    The lattice verdicts (``J``, ``M``, ``is_ranked``, ``uld_detectors``,
    ``is_uld``, ``is_distributive``) are read from the vectors and covers,
    in O(states · |M| · vertices) at most; they first check that moves
    commute (``_moves``), which with distinct vectors proves the space is a
    lattice ordered componentwise and is also the hypercube detector's
    verdict; the cover-step detector on ``_mx_masks`` is checked against
    it. The rules they share with ``Lattice`` live in ``chipfire.lattice``.
    ``lattice()`` builds the dense, verified view only on demand.
    """

    game: object
    names: tuple[str, ...]
    vectors: tuple[tuple[int, ...], ...]
    configs: tuple
    covers: tuple[tuple[int, int, int], ...]

    def __len__(self):
        return len(self.vectors)

    @cached_property
    def _index(self) -> Mapping[tuple[int, ...], int]:
        return {vec: i for i, vec in enumerate(self.vectors)}

    @property
    def bottom(self) -> int:
        return 0

    @cached_property
    def top(self) -> int:
        """The unique state with no outgoing cover."""
        has_up = {lo for lo, _, _ in self.covers}
        tops = [i for i in range(len(self.vectors)) if i not in has_up]
        if len(tops) != 1:
            raise RuntimeError(f"expected a unique maximal state, found {len(tops)}")
        return tops[0]

    @property
    def height(self) -> int:
        return sum(self.vectors[self.top])

    @cached_property
    def is_simple_space(self) -> bool:
        return all(c <= 1 for vec in self.vectors for c in vec)

    def shot_set(self, i) -> frozenset[int]:
        """Vertices fired at least once to reach element i."""
        return frozenset(v for v, c in enumerate(self.vectors[i]) if c)

    def shot_label(self, i) -> str:
        vec = self.vectors[i]
        if self.is_simple_space:
            inner = ",".join(self.names[v] for v, c in enumerate(vec) if c)
        else:
            inner = ",".join(
                f"{self.names[v]}:{c}" for v, c in enumerate(vec) if c
            )
        return "{" + inner + "}"

    def join_of(self, a: int, b: int) -> int:
        """The element whose firing vector is the componentwise union of a and b."""
        union = tuple(map(max, self.vectors[a], self.vectors[b]))
        try:
            return self._index[union]
        except KeyError:
            raise RuntimeError(
                "shot-set union is not a reachable state; "
                "the space is not union-closed"
            ) from None

    def lattice(self):
        """The space as a verified lattice, labelled by shot-sets."""
        return self._lattice

    @cached_property
    def _lattice(self):
        labels = tuple(self.shot_label(i) for i in range(len(self.vectors)))
        cover_labels = {(lo, hi): self.names[v] for lo, hi, v in self.covers}
        return Lattice.from_covers(
            len(self.vectors),
            [(lo, hi) for lo, hi, _ in self.covers],
            labels=labels,
            cover_labels=cover_labels,
        )

    # lattice verdicts from vectors and covers

    @cached_property
    def _moves(self) -> tuple[dict[int, int], ...]:
        """Per state, its moves as {fired vertex: next state}.

        Raises RuntimeError when two moves u != v out of a state do not
        commute: after u, the move v is gone. Chips only ever arrive at v
        when u fires or opens, so that is an engine fault.
        """
        moves = tuple({} for _ in self.vectors)
        for lo, hi, v in self.covers:
            moves[lo][v] = hi
        for x, out in enumerate(moves):
            for u, child in out.items():
                lost = out.keys() - moves[child].keys() - {u}
                if lost:
                    v = min(lost)
                    raise RuntimeError(
                        f"moves {self.names[u]} and {self.names[v]} do not commute "
                        f"at state {self.shot_label(x)}: {self.names[v]} is lost "
                        f"after {self.names[u]}"
                    )
        return moves

    @cached_property
    def _lower_covers(self) -> tuple[tuple[int, ...], ...]:
        downs = [[] for _ in self.vectors]
        for x, out in enumerate(self._moves):
            for y in out.values():
                downs[y].append(x)
        return tuple(tuple(d) for d in downs)

    @cached_property
    def J(self) -> tuple[int, ...]:
        """Join-irreducibles: states with exactly one lower cover."""
        return tuple(x for x, lows in enumerate(self._lower_covers) if len(lows) == 1)

    @cached_property
    def M(self) -> tuple[int, ...]:
        """Meet-irreducibles: states with exactly one move."""
        return tuple(x for x, out in enumerate(self._moves) if len(out) == 1)

    @cached_property
    def _mx_masks(self) -> tuple[int, ...]:
        """mi_above as bitmask over positions in M: bit b of x is set when
        vec(x) <= vec(M[b]) componentwise, one vectorised pass per M[b]."""
        n = len(self.vectors)
        vecs = np.array(self.vectors, dtype=np.int64).reshape(n, -1)
        packed = np.zeros((n, -(-len(self.M) // 8)), dtype=np.uint8)
        for b, m in enumerate(self.M):
            packed[:, b >> 3] |= (vecs <= vecs[m]).all(axis=1).view(np.uint8) << (b & 7)
        return _packed_ints(packed)

    @cached_property
    def is_ranked(self) -> bool:
        # index order sorts by total firings, so it is a linear extension
        return _longest_path_ranks(range(len(self.vectors)), self._lower_covers)[0]

    def _hypercube_witness(self):
        """Least state whose k >= 2 moves do not span a cube of 2^k states,
        or None: always None once ``_moves`` has passed, which it forces.

        ``_moves`` raises unless, at every state, every other move survives
        each move. Then, by induction on |S|, any subset S of the moves U
        out of x can be walked from x in any order: after the moves T ⊂ S,
        each move of S - T is still possible. So the 2^k walks all exist,
        and with distinct firing vectors they end in 2^k distinct states.
        The independent check is the cover-step detector on ``_mx_masks``.
        """
        self._moves
        return None

    def _cover_step_witness(self):
        """Cover that removes != 1 meet-irreducible, or None."""
        return _first_bad_step(((lo, hi) for lo, hi, _ in self.covers), self._mx_masks)

    @cached_property
    def uld_detectors(self) -> tuple[bool, bool]:
        """(hypercube-interval verdict, cover-step verdict); must agree."""
        return (self._hypercube_witness() is None, self._cover_step_witness() is None)

    @cached_property
    def is_uld(self) -> bool:
        return _uld_verdict(self)

    @cached_property
    def is_distributive(self) -> bool:
        return _distributive_verdict(self)
