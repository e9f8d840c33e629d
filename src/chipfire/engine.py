"""Classical chip-firing dynamics: firing, fixpoint execution, space enumeration.

A vertex holding at least its out-degree in chips may fire, sending one chip
along each outgoing edge. Loops return their chips to the firing vertex but
still count toward the firing threshold.

Classical and coloured configuration spaces both come from ``_closure``, one
breadth-first closure that holds the state cap, the canonical order and two
checks: a revisited state keeps its firing vector, and no two states share one.
So every cover it records adds exactly one firing: total firings ranks the
space, and each (lower, upper) pair of states is at most one cover.

Inside the closure a firing vector is one int, a 64-bit field per vertex and
above them a 64-bit level field, the total firings, so int order is the
canonical order. No field overflows: a level is below the state count, and no
vertex has fired more often than the level. The states of both kinds of game
are ints built from the chip blocks of ``_block``: a classical configuration
is one block, a coloured state (``chipfire.coloured``) the open-set mask and
one block per colour. The closure unpacks them by the game's rule, once, into
the finished space.

A space answers the lattice questions ``chipfire space`` asks (J, M, rank,
the two ULD detectors, distributivity) from its firing vectors and moves,
without a dense order. That rests on one more check, run lazily before the
first such answer: at every state, any two moves u != v commute, i.e. after
u the move v is still possible (firing or opening u only adds chips to v).
Each state's moves are one int mask, so the check is one test per cover.
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
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Mapping

from .errors import FiringVectorConflict, StateCapExceeded, StepCapExceeded
from .lattice import Lattice, Poset, _commuting
from .multigraph import Multigraph, _as_int


def _block(graph: Multigraph, total: int, offset: int):
    """The layout of one chip vector on ``graph`` packed into an int, as
    (width, shifts, mask, deltas): vertex v's field is the ``mask`` bits from
    ``shifts[v] = offset + width*v``, and adding ``deltas[v]`` fires v (its
    out-degree off its own field, each out-edge's chips onto the target's).

    ``width`` is the bit length of ``total``, the vector's chip total. Chips
    are conserved and never negative, so every field of a reachable vector
    fits and a firing neither borrows nor carries out of its block.
    """
    n, deg = graph.n, graph._out_degrees
    width = max(1, total.bit_length())
    shifts = tuple(range(offset, offset + width * n, width))
    deltas = tuple(
        sum(k << shifts[w] for w, k in graph._out_adj[v]) - (deg[v] << shifts[v])
        for v in range(n)
    )
    return width, shifts, (1 << width) - 1, deltas


def _pack_block(chips, block) -> int:
    """A chip vector laid out in ``block`` (from ``_block``), as an int."""
    return sum(c << s for c, s in zip(chips, block[1]))


def _unpack_block(states, block) -> list[tuple[int, ...]]:
    """The chip vector that ``block`` holds in each packed state. Each distinct
    block value is shifted to bit 0 and unpacked once (a colour's are few)."""
    width, shifts, mask, _ = block
    low, bits = min(shifts, default=0), (1 << width * len(shifts)) - 1
    fields = range(0, width * len(shifts), width)
    blocks = [x >> low & bits for x in states]
    chips = {b: tuple([b >> s & mask for s in fields]) for b in set(blocks)}
    return list(map(chips.__getitem__, blocks))


def _closure(game, start, successors, unpack, state_cap) -> "ConfigSpace":
    """Breadth-first closure of ``start`` under ``successors``, as a ConfigSpace.

    ``successors(state)`` lists the moves ``(v, next_state)``; each move adds
    one to entry v of the firing vector. States are hashable; ``unpack`` turns
    the list of them, in canonical order, into the space's configurations.
    Raises FiringVectorConflict when a state is reached again with a
    different firing vector, RuntimeError when two states share one (for a
    coloured game: one open-set with two chip contents).

    A firing vector is one int: a 64-bit field per vertex, vertex 0 the most
    significant, and above them a 64-bit level field, the total firings. A
    move adds one to its vertex's field and one to the level, so int order is
    the canonical order, (total firings, vector). No field can overflow: a
    vertex has fired at most as often as the state's level, and a state at
    level L closes a path of L + 1 states already stored, so every field is
    below the state count. Each vector and state is unpacked once, at the
    end, after the covers are sorted and the discovery-order lists dropped.
    """
    n = game.graph.n
    unit = [1 << 64 * n | 1 << 64 * (n - 1 - v) for v in range(n)]
    ids = {start: 0}  # state -> discovery number
    states, vectors = [start], [0]
    transitions = []
    for i, state in enumerate(states):  # appending while iterating: a FIFO queue
        if state_cap is not None and len(states) > state_cap:
            raise StateCapExceeded(f"state space exceeds cap {state_cap}")
        vec = vectors[i]
        for v, nxt in successors(state):
            nvec = vec + unit[v]
            j = ids.get(nxt)
            if j is None:
                j = ids[nxt] = len(states)
                states.append(nxt)
                vectors.append(nvec)
            elif vectors[j] != nvec:
                raise FiringVectorConflict("revisited state with a different firing vector")
            transitions.append((i, v, j))
    del ids
    if len(set(vectors)) != len(vectors):
        raise RuntimeError("two states share a firing vector")
    order = sorted(range(len(states)), key=vectors.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    covers = tuple(sorted([(rank[a], rank[b], v) for a, v, b in transitions]))
    del transitions, rank
    fields, size = struct.Struct(f">8x{n}Q").unpack, 8 * (n + 1)  # skip the level
    vectors = tuple(fields(vectors[i].to_bytes(size, "big")) for i in order)
    configs = tuple(unpack([states[i] for i in order]))
    return ConfigSpace(names=game.graph.names, vectors=vectors, configs=configs, covers=covers)


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
        graph, nxt = self.graph, list(conf)
        nxt[v] -= graph._out_degrees[v]
        for w, k in graph._out_adj[v]:
            nxt[w] += k
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
        block = self._packing[0]
        unpack = partial(_unpack_block, block=block)
        return _closure(self, _pack_block(self.init, block), self._successors, unpack, state_cap)

    @cached_property
    def _packing(self):
        """How ``enumerate_space`` packs a configuration, one ``_block`` at bit
        0; and the moves ``_successors`` reads: per vertex of positive
        out-degree, ascending, its (vertex, shift, out-degree, firing delta)."""
        block = _block(self.graph, sum(self.init), 0)
        _, shifts, _, deltas = block
        moves = tuple(
            (v, shifts[v], deg, deltas[v]) for v, deg in enumerate(self.graph._out_degrees) if deg
        )
        return block, moves

    def _successors(self, conf: int) -> list[tuple[int, int]]:
        """The moves (v, next configuration) out of a packed configuration,
        in ascending vertex order."""
        (_, _, mask, _), moves = self._packing
        return [(v, conf + delta) for v, shift, deg, delta in moves if conf >> shift & mask >= deg]


@dataclass(frozen=True)
class ConfigSpace:
    """All reachable states of a game, ordered by how much has been fired.

    ``_closure`` builds it finished, with unpacked configurations. Elements
    are in canonical order: by total firings, then lexicographically by
    firing-count vector. Element 0 is the initial state; covers are labelled
    by the fired (or opened) vertex. ``labels`` holds every state's shot
    label, made in one pass, for ``shot_label``, the DOT text and ``lattice()``.

    The lattice verdicts (``J``, ``M``, ``_mx_masks``, ``uld_detectors``,
    ``is_uld``, ``is_distributive``) are ``Lattice``'s own members, taken by
    assignment. They read the cover interface below: ``n``, ``topo_order``
    and the upper covers per element, which ``_upper_covers`` fills from
    ``cover_pairs``; the lower covers are filled from the upper ones.
    ``cover_pairs`` is made on request and not kept, so the cover relation is
    held as ``covers`` and the two adjacencies only. It first checks that
    moves commute on each state's mask of moves (``_moves``), which with
    distinct vectors proves the space is a lattice ordered componentwise and
    is the hypercube detector's verdict; the cover-step detector on
    ``_mx_masks`` is checked against it. Rank and height are read off the
    firing vectors, as ``_closure`` keeps a cover only when it adds one
    firing. ``lattice()`` builds the verified ``Lattice`` only on demand.
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

    def shot_set(self, i) -> frozenset[int]:
        """Vertices fired at least once to reach element i."""
        return frozenset(v for v, c in enumerate(self.vectors[self._check(i)]) if c)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Every state's shot label: its fired names, ``{a,b}``, or each with
        its count, ``{a:1,b:2}``, if any vertex fires twice in the space."""
        names, counted = self.names, any(c > 1 for vec in self.vectors for c in vec)
        word = "{}:{}" if counted else "{}"  # "{}" formats the name and drops the count
        return tuple(
            "{" + ",".join([word.format(names[v], c) for v, c in enumerate(vec) if c]) + "}"
            for vec in self.vectors
        )

    def shot_label(self, i) -> str:
        return self.labels[self._check(i)]

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
        cover_labels = {(lo, hi): self.names[v] for lo, hi, v in self.covers}
        return Lattice.from_covers(
            len(self.vectors),
            [(lo, hi) for lo, hi, _ in self.covers],
            labels=self.labels,
            cover_labels=cover_labels,
        )

    # lattice verdicts: Lattice's rules over the checked covers

    @cached_property
    def _moves(self) -> tuple[int, ...]:
        """Per state, the vertices it can fire or open, as a mask (bit v for
        vertex v).

        Raises RuntimeError at the first cover (x, child, u), in ``covers``
        order, after which another move v of x is gone, naming the lowest
        such v: the rule of ``lattice._commuting``, which ``Lattice`` runs on
        meet-irreducible codes. Chips only ever arrive at v when u fires or
        opens, so moves that do not commute are an engine fault.
        """
        moves, lost = _commuting(len(self.vectors), self.covers)
        if lost:
            x, _, u, v = lost
            u, v = self.names[u], self.names[v]
            raise RuntimeError(
                f"moves {u} and {v} do not commute at state {self.labels[x]}: "
                f"{v} is lost after {u}"
            )
        return tuple(moves)

    @property
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """(lower, upper) per cover, once ``_moves`` has checked that moves
        commute; ``_closure`` records each pair of states at most once. Made
        on each request and not kept: the verdicts read ``_upper_covers``."""
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
