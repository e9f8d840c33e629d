"""Classical chip-firing dynamics: firing, fixpoint execution, space enumeration.

A vertex holding at least its out-degree in chips may fire, sending one chip
along each outgoing edge. Loops return their chips to the firing vertex but
still count toward the firing threshold.

Classical and coloured configuration spaces both come from ``_closure``, one
breadth-first closure that holds the state cap, the canonical order and two
checks: a revisited state keeps its firing vector, and no two states share one.
So every cover it records adds exactly one firing: total firings ranks the
space, and each (lower, upper) pair of states is at most one cover.

Inside the closure a firing vector is one int, a 64-bit field per vertex, and
the states of both kinds of game are ints: a classical configuration has a
field per vertex as wide as the bit length of the total chip count, and a
coloured state (``chipfire.coloured``) has the open-set mask and one such
block per colour. No field can overflow: a vertex fires at most as often as
the states stored, and chips are conserved and never negative. Both are
unpacked to tuples once, when the space is built.

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
cover-step detector is the independent one, on the meet-irreducible coding.
It, J, M, the coding and the verdicts are ``Lattice``'s own members, which
read nothing but covers: a space hands them its checked covers.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping

from .errors import FiringVectorConflict, StateCapExceeded, StepCapExceeded
from .lattice import Lattice, Poset
from .multigraph import Multigraph, _as_int


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

    A firing vector is one int with a 64-bit field per vertex, vertex 0 the
    most significant, so a move adds one shifted bit and int order is the
    lexicographic order of the vectors. No field can overflow: a vertex has
    fired at most as often as the state's level (its total firings), and a
    state at level L closes a path of L + 1 states already stored. Each
    vector is unpacked once, at the end.
    """
    n = game.graph.n
    unit = [1 << 64 * (n - 1 - v) for v in range(n)]
    ids = {start: 0}  # state -> discovery number
    states, vectors, levels = [start], [0], [0]
    transitions = []
    for i, state in enumerate(states):  # appending while iterating: a FIFO queue
        if state_cap is not None and len(states) > state_cap:
            raise StateCapExceeded(f"state space exceeds cap {state_cap}")
        vec, level = vectors[i], levels[i] + 1
        for v, nxt in successors(state):
            nvec = vec + unit[v]
            j = ids.get(nxt)
            if j is None:
                j = ids[nxt] = len(states)
                states.append(nxt)
                vectors.append(nvec)
                levels.append(level)
            elif vectors[j] != nvec:
                raise FiringVectorConflict("revisited state with a different firing vector")
            transitions.append((i, v, j))
    if len(set(vectors)) != len(vectors):
        raise RuntimeError("two states share a firing vector")
    key = [level << 64 * n | vec for level, vec in zip(levels, vectors)]
    order = sorted(range(len(states)), key=key.__getitem__)  # (level, vector)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    covers = tuple(sorted([(rank[a], rank[b], v) for a, v, b in transitions]))
    unpack, size = struct.Struct(f">{n}Q").unpack, 8 * n
    return ConfigSpace(
        names=game.graph.names,
        vectors=tuple(unpack(vectors[i].to_bytes(size, "big")) for i in order),
        configs=tuple(states[i] for i in order),
        covers=covers,
    )


def _chooser(policy, rng, check) -> Callable[[frozenset[int]], int]:
    if policy == "min":
        return min
    if policy == "max":
        return max
    if policy == "random":
        r = rng if rng is not None else random.Random(0)
        return lambda fs: r.choice(sorted(fs))
    if callable(policy):  # it may pick any id: ``check`` converts it first
        return lambda fs: check(policy(fs))
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
        object.__setattr__(self, "init", self._conf(self.init, "initial configuration"))

    def _conf(self, conf, what="configuration") -> tuple[int, ...]:
        """conf as a tuple of plain ints: one non-negative integer per vertex."""
        conf = tuple(_as_int(c, "chip count") for c in conf)
        if len(conf) != self.graph.n:
            raise ValueError(f"{what} must cover every vertex")
        if any(c < 0 for c in conf):
            raise ValueError("chip counts must be non-negative")
        return conf

    @cached_property
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
        return self._firable(self._conf(conf))

    def _firable(self, conf) -> frozenset[int]:
        """``firable`` for a configuration the caller has already checked."""
        deg = self.graph._out_degrees
        return frozenset(v for v in range(self.graph.n) if 0 < deg[v] <= conf[v])

    def fire(self, conf, v: int) -> tuple[int, ...]:
        """Send one chip along each edge out of v; v must be firable."""
        v = self.graph._check(v)
        conf = self._conf(conf)
        if v not in self._firable(conf):
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
        choose = _chooser(policy, rng, self.graph._check)
        conf = self.init
        counts = [0] * self.graph.n
        steps = 0
        while True:
            fs = self._firable(conf)
            if not fs:
                return FixpointRun(conf, tuple(counts))
            if step_cap is not None and steps >= step_cap:
                verdict = (
                    "the game converges, but the step cap came first"
                    if self.converges_guaranteed
                    else "possibly divergent"
                )
                raise StepCapExceeded(f"{verdict}: no fixpoint within step cap {step_cap}")
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
        same start must have fired the same multiset of vertices). The closure
        runs on configurations packed by ``_packing``, unpacked once at the end.
        """
        self._require_guard(state_cap, "enumerate_space")
        space = _closure(self, self._pack(self.init), self._successors, state_cap)
        return replace(space, configs=tuple(map(self._unpack, space.configs)))

    @cached_property
    def _packing(self) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
        """How ``enumerate_space`` packs a configuration into one int: a field
        of ``width`` bits per vertex, vertex v at bit width*v; and per vertex
        of positive out-degree, in ascending order, its (vertex, shift,
        out-degree, firing delta).

        ``width`` is the bit length of the total chip count. Chips are
        conserved and never negative, so every field of a reachable
        configuration fits, and adding a firable vertex's delta (its
        out-degree off its own field, each out-edge's chips onto the target's)
        neither borrows nor carries between fields.
        """
        g = self.graph
        width = max(1, sum(self.init).bit_length())
        moves = tuple(
            (v, width * v, deg, sum(k << width * w for w, k in g._out_adj[v]) - (deg << width * v))
            for v, deg in enumerate(g._out_degrees)
            if deg
        )
        return width, moves

    def _pack(self, conf) -> int:
        width, _ = self._packing
        return sum(c << width * v for v, c in enumerate(conf))

    def _unpack(self, conf: int) -> tuple[int, ...]:
        width, _ = self._packing
        mask = (1 << width) - 1
        return tuple([conf >> s & mask for s in range(0, width * self.graph.n, width)])

    def _successors(self, conf: int) -> list[tuple[int, int]]:
        """The moves (v, next configuration) out of a packed configuration,
        in ascending vertex order."""
        width, moves = self._packing
        mask = (1 << width) - 1
        return [(v, conf + delta) for v, shift, deg, delta in moves if conf >> shift & mask >= deg]


@dataclass(frozen=True)
class ConfigSpace:
    """All reachable states of a game, ordered by how much has been fired.

    Elements are in canonical order: by total firings, then lexicographically
    by firing-count vector. Element 0 is the initial state; covers are
    labelled by the fired (or opened) vertex.

    The lattice verdicts (``J``, ``M``, ``_mx_masks``, ``uld_detectors``,
    ``is_uld``, ``is_distributive``) are ``Lattice``'s own members, taken by
    assignment. They read the cover interface below: ``n``, ``cover_pairs``,
    ``topo_order`` and the covers per element. ``cover_pairs`` first checks
    that moves commute (``_moves``), which with distinct vectors proves the
    space is a lattice ordered componentwise and is also the hypercube
    detector's verdict; the cover-step detector on ``_mx_masks`` is checked
    against it. Rank and height are read off the firing vectors, as
    ``_closure`` keeps a cover only when it adds one firing.
    ``lattice()`` builds the verified ``Lattice`` only on demand.
    """

    names: tuple[str, ...]
    vectors: tuple[tuple[int, ...], ...]
    configs: tuple
    covers: tuple[tuple[int, int, int], ...]

    def __len__(self):
        return len(self.vectors)

    @property
    def n(self) -> int:
        return len(self.vectors)

    _id_kind = Poset._id_kind
    _check = Poset._check  # the one id rule, for element ids as a Lattice takes them

    @cached_property
    def _index(self) -> Mapping[tuple[int, ...], int]:
        return {vec: i for i, vec in enumerate(self.vectors)}

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
        return frozenset(v for v, c in enumerate(self.vectors[self._check(i)]) if c)

    def shot_label(self, i) -> str:
        vec = self.vectors[self._check(i)]
        if self.is_simple_space:
            inner = ",".join(self.names[v] for v, c in enumerate(vec) if c)
        else:
            inner = ",".join(
                f"{self.names[v]}:{c}" for v, c in enumerate(vec) if c
            )
        return "{" + inner + "}"

    def join_of(self, a: int, b: int) -> int:
        """The element whose firing vector is the componentwise union of a and b."""
        union = tuple(map(max, self.vectors[self._check(a)], self.vectors[self._check(b)]))
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

    # lattice verdicts: Lattice's rules over the checked covers

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
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """(lower, upper) per cover, once ``_moves`` has checked that moves
        commute; ``_closure`` records each pair of states at most once."""
        self._moves
        return tuple((lo, hi) for lo, hi, _ in self.covers)

    @property
    def topo_order(self) -> range:
        """The canonical order, a linear extension: every cover adds a firing."""
        return range(self.n)

    _upper_covers = Poset._upper_covers
    _lower_covers = Poset._lower_covers
    J = Lattice.J
    M = Lattice.M
    _mx_masks = Lattice._mx_masks

    @property
    def is_ranked(self) -> bool:
        """True once ``_moves`` has passed, which it forces: ``_closure`` keeps
        a cover only when it adds one firing, so total firings is a rank."""
        self._moves
        return True

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

    _cover_step_witness = Lattice._cover_step_witness
    uld_detectors = Lattice.uld_detectors
    is_uld = Lattice.is_uld
    is_distributive = Lattice.is_distributive
