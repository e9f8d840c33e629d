"""Classical chip-firing dynamics: firing, fixpoint execution, space enumeration.

A vertex holding at least its out-degree in chips may fire, sending one chip
along each outgoing edge. Loops return their chips to the firing vertex but
still count toward the firing threshold.

A run to the fixpoint keeps the firable vertices as a sorted worklist and
rescans no vertex. A firing of v changes the chips of v and of its
out-neighbours only, and an out-neighbour w != v only gains. So v is the only
vertex that can stop being firable, and only an out-neighbour w != v whose
chips cross its out-degree can become firable: the worklist is updated from
those alone, and stays exactly the firable set, in ascending order. The
policies read it: ``min`` and ``max`` its ends, ``random`` a draw from it.

Classical and coloured configuration spaces both come from ``_closure``, one
breadth-first closure that holds the state cap, the canonical order and two
checks: a revisited state keeps its firing vector, and no two states share one.
So every cover it records adds exactly one firing: total firings ranks the
space, and each (lower, upper) pair of states is at most one cover.

Inside the closure a firing vector is one int, a 64-bit field per vertex and
above them a 64-bit level field, the total firings, so int order is the
canonical order. No field overflows: a level is below the state count, and no
vertex has fired more often than the level. Every chip vector is packed by
one rule, ``_block``, into an int of its own at bit 0: a classical state is
one such int, a coloured state (``chipfire.coloured``) a tuple of them, one
per colour, with its open-set mask. The closure unpacks nothing: the finished
space keeps the vector ints and the packed states in canonical order, with
the game's unpack rule, and unpacks ``vectors`` and ``configs`` each once, on
first read. Its size, height and top read no vector: the height is the level
field of the top's int.

The closure hands the space its cover relation once, with no sort: each
state's upper covers and its moves as a mask. All successors of one state
are on the same level, and vertex 0 is the most significant field, so among
them a smaller fired vertex is a larger element: the successors, listed by
ascending vertex, are the upper covers reversed. So the k-th upper cover of
a state fires its k-th highest move, and the (lower, upper, vertex) triples
are read off on request.

A space is a ``Lattice``: it answers the lattice questions ``chipfire
space`` asks (J, M, rank, the two ULD detectors, distributivity) by
``Lattice``'s own members, which read nothing but its covers, without a dense
order. That rests on one more check, run lazily before the first such answer:
at every state, any two moves u != v commute, i.e. after u the move v is
still possible (firing or opening u only adds chips to v). Each state's moves
are the int mask the closure recorded, so the check is one test per cover.
With distinct firing vectors, this local confluence gives the exchange lemma
of Björner, Lovász & Shor (1991): the reachable vectors are closed under
componentwise max, and x reaches y iff vec(x) <= vec(y). So the space is a
lattice whose join is the componentwise max, and a ULD one: the check is the
space's code certificate, ``Lattice._antimatroid``, which the hypercube
detector reads. The cover-step detector is the independent one, on the
meet-irreducible coding. The space hands ``Lattice`` its checked upper
covers, the one store its (lower, upper) pairs are read off by ``Poset``'s
own rule. ``chipfire space`` fills no lower covers: J counts them off the
upper covers.
"""

from __future__ import annotations

import random
import struct
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Mapping

from .errors import FiringVectorConflict, StateCapExceeded, StepCapExceeded
from .lattice import Lattice, _commuting, _gather
from .multigraph import Multigraph, _as_int


def _block(graph: Multigraph, total: int):
    """The layout of one chip vector on ``graph`` packed into an int, as
    (width, shifts, mask, deltas): vertex v's field is the ``mask`` bits from
    ``shifts[v] = width*v``, and adding ``deltas[v]`` fires v (its out-degree
    off its own field, each out-edge's chips onto the target's).

    ``width`` is the bit length of ``total``, the vector's chip total. Chips
    are conserved and never negative, so every field of a reachable vector
    fits and a firing neither borrows nor carries out of its block.
    """
    n, deg = graph.n, graph._out_degrees
    width = max(1, total.bit_length())
    shifts = tuple(range(0, width * n, width))
    deltas = tuple(
        sum(k << shifts[w] for w, k in graph._out_adj[v]) - (deg[v] << shifts[v])
        for v in range(n)
    )
    return width, shifts, (1 << width) - 1, deltas


def _pack_block(chips, block) -> int:
    """A chip vector laid out in ``block`` (from ``_block``), as an int."""
    return sum(c << s for c, s in zip(chips, block[1]))


def _unpack_block(states, block) -> list[tuple[int, ...]]:
    """The chip vector that each int packed by ``block`` holds, field by
    field (the states of a classical space are all distinct)."""
    _, shifts, mask, _ = block
    return [tuple([x >> s & mask for s in shifts]) for x in states]


def _closure(game, start, successors, unpack, state_cap) -> "ConfigSpace":
    """Breadth-first closure of ``start`` under ``successors``, as a ConfigSpace.

    ``successors(state)`` lists the moves ``(v, next_state)`` in ascending
    vertex order; each move adds one to entry v of the firing vector. States
    are hashable: a classical state is an int, a coloured state a tuple of
    ints (its chip blocks and open set). ``unpack`` is the game's rule that
    turns a list of them into configurations. Raises
    FiringVectorConflict when a state is reached again with a different
    firing vector, RuntimeError when two states share one (for a coloured
    game: one open-set with two chip contents).

    A firing vector is one int: a 64-bit field per vertex, vertex 0 the most
    significant, and above them a 64-bit level field, the total firings. A
    move adds one to its vertex's field and one to the level, so int order is
    the canonical order, (total firings, vector). No field can overflow: a
    vertex has fired at most as often as the state's level, and a state at
    level L closes a path of L + 1 states already stored, so every field is
    below the state count.

    Each state records its successors in move order and its moves as a mask
    (bit v for a move of v). Reversed, the successors are its upper covers
    in canonical order (see the module docstring), so no cover triple is
    made and only the vectors are sorted. Nothing is unpacked: the space
    keeps the vector ints, the states and ``unpack``, in canonical order,
    and unpacks ``vectors`` and ``configs`` on first read.
    """
    n = game.graph.n
    unit = [1 << 64 * n | 1 << 64 * (n - 1 - v) for v in range(n)]
    ids = {start: 0}  # state -> discovery number
    states, vectors = [start], [0]
    nexts, masks = [], []  # per state: its successors' numbers, its moves
    for i, state in enumerate(states):  # appending while iterating: a FIFO queue
        if state_cap is not None and len(states) > state_cap:
            raise StateCapExceeded(f"state space exceeds cap {state_cap}")
        vec = vectors[i]
        out, mask = [], 0
        for v, nxt in successors(state):
            nvec = vec + unit[v]
            j = ids.get(nxt)
            if j is None:
                j = ids[nxt] = len(states)
                states.append(nxt)
                vectors.append(nvec)
            elif vectors[j] != nvec:
                raise FiringVectorConflict("revisited state with a different firing vector")
            out.append(j)
            mask |= 1 << v
        nexts.append(out)
        masks.append(mask)
    del ids
    if len(set(vectors)) != len(vectors):
        raise RuntimeError("two states share a firing vector")
    order = sorted(range(len(states)), key=vectors.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    for i, out in enumerate(nexts):  # each successor list is dropped as its row is made
        nexts[i] = tuple([rank[j] for j in reversed(out)])
    ups = tuple([nexts[i] for i in order])
    del nexts, rank
    return ConfigSpace(
        names=game.graph.names,
        packed_vectors=tuple([vectors[i] for i in order]),
        packed_states=tuple([states[i] for i in order]),
        unpack=unpack,
        ups=ups,
        move_masks=tuple([masks[i] for i in order]),
    )


def _unpack_vectors(packed, n) -> list[tuple[int, ...]]:
    """The firing vector that each int packed by ``_closure`` holds, one
    64-bit field per vertex of n; the level field above them is skipped."""
    fields, size = struct.Struct(f">8x{n}Q").unpack, 8 * (n + 1)
    return [fields(x.to_bytes(size, "big")) for x in packed]


class _Covers:
    """A space's covers as (lower, upper, vertex) triples in sorted order,
    read off its upper covers and move masks: the k-th upper cover of x,
    ascending, fires the k-th highest move of x. Iterating and ``len`` make
    no tuple of triples."""

    __slots__ = ("_ups", "_masks")

    def __init__(self, ups, masks):
        self._ups, self._masks = ups, masks

    def __len__(self):
        return sum(map(len, self._ups))

    def __iter__(self):
        for lo, (ups, mask) in enumerate(zip(self._ups, self._masks)):
            for hi in ups:
                v = mask.bit_length() - 1
                mask ^= 1 << v
                yield lo, hi, v


def _chooser(policy, rng, check) -> Callable[[list[int]], int]:
    """The policy's pick from the firable vertices as a sorted list: its
    first or last entry, a random one (what ``rng.choice(sorted(fs))`` would
    draw), or a callable's pick from them as a frozenset."""
    if policy == "min":
        return itemgetter(0)
    if policy == "max":
        return itemgetter(-1)
    if policy == "random":
        r = rng if rng is not None else random.Random(0)
        return r.choice
    if callable(policy):  # it may pick any id: ``check`` converts it first
        return lambda firable: check(policy(frozenset(firable)))
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

        The policy reads the firable vertices as a sorted worklist, which
        stays exactly the firable set: firing v changes the chips of v and
        its out-neighbours only, and an out-neighbour w != v only gains, so
        only v can leave the list and only such a w whose chips cross its
        out-degree can join it. ``step_cap`` bounds the number of firings.
        """
        self._require_guard(step_cap, "run_to_fixpoint")
        choose = _chooser(policy, rng, self.graph._check)
        deg, adj = self.graph._out_degrees, self.graph._out_adj
        conf = self.init
        firable = sorted(self._firable(conf))
        counts = [0] * self.graph.n
        steps = 0
        while firable:
            if step_cap is not None and steps >= step_cap:
                verdict = (
                    "the game converges, but the step cap came first"
                    if self.converges_guaranteed
                    else "possibly divergent"
                )
                raise StepCapExceeded(f"{verdict}: no fixpoint within step cap {step_cap}")
            v = choose(firable)
            i = bisect_left(firable, v)
            if i == len(firable) or firable[i] != v:  # a policy may pick any vertex
                raise ValueError(f"vertex {self.graph.names[v]} is not firable")
            conf = self._fire(conf, v)
            counts[v] += 1
            steps += 1
            if conf[v] < deg[v]:
                del firable[i]
            for w, k in adj[v]:
                if w != v and conf[w] - k < deg[w] <= conf[w]:
                    insort(firable, w)
            if on_fire is not None:
                on_fire(v, conf)
        return FixpointRun(conf, tuple(counts))

    def is_simple(self, step_cap=None) -> bool:
        """True when no vertex fires more than once on the way to the fixpoint."""
        return max(self.run_to_fixpoint(step_cap=step_cap).counts, default=0) <= 1

    def enumerate_space(self, state_cap=None) -> "ConfigSpace":
        """Breadth-first closure of every reachable configuration.

        States are keyed by configuration; the firing-count vector is stored
        and cross-checked on revisits (equal configurations reached from the
        same start must have fired the same multiset of vertices). The closure
        runs on configurations packed by ``_packing``; the space keeps them
        packed and unpacks its ``configs`` on first read.
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
        block = _block(self.graph, sum(self.init))
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
class ConfigSpace(Lattice):
    """All reachable states of a game, ordered by how much has been fired:
    a ``Lattice`` over the covers its closure hands over.

    ``_closure`` builds it finished, from what the closure holds: each
    state's firing vector as one int, level field included
    (``packed_vectors``), and its packed state (``packed_states``), with the
    game's rule that unpacks them (``unpack``). ``vectors`` and ``configs``
    are unpacked from them once each, on first read, into tuples; ``len``,
    ``n``, ``height`` and ``top`` read no vector. Elements
    are in canonical order: by total firings, then lexicographically by
    firing-count vector. Element 0 is the initial state. The cover relation
    is held once, as each state's upper covers in canonical order (``ups``)
    and its moves as a mask (``move_masks``, bit v when the state can fire or
    open v); ``covers``, the (lower, upper, fired vertex) triples in sorted
    order, ``cover_pairs`` and ``cover_labels`` are read off them on request
    and not kept; the round-trip check of ``synth`` and ``simplify``
    (``transforms.is_hasse_isomorphism``) reads ``ups`` and the maps read
    ``packed_vectors`` as they are. ``labels`` holds every state's shot
    label, made in one pass, for ``shot_label``, the DOT text and
    ``lattice()``.

    Every other query (``J``, ``M``, ``_mx_masks``, the two ULD detectors,
    ``is_uld``, ``is_distributive``, ``le``, ``join``, ``meet``, the arrows)
    is ``Lattice``'s or ``Poset``'s own member. They read the cover
    interface below: ``n``, ``topo_order``, ``_upper_covers`` and, for the
    order itself, the lazy up-sets ``_up_masks``. The verdicts ``chipfire
    space`` prints fill no lower covers and no up-set. ``_upper_covers``
    first checks that moves commute on the move masks (``_moves``), which
    with distinct vectors proves the space is a ULD lattice ordered
    componentwise: that is its certificate ``_antimatroid``, so the
    hypercube detector walks no cube, and the cover-step detector on
    ``_mx_masks`` is checked against it. Rank is total firings and the
    height the top's level, as ``_closure`` keeps a cover only when it adds
    one firing. ``lattice()`` builds the separately verified ``Lattice``
    only on demand.
    """

    names: tuple[str, ...]
    packed_vectors: tuple[int, ...]
    packed_states: tuple
    unpack: Callable[[tuple], list] = field(compare=False, repr=False)
    ups: tuple[tuple[int, ...], ...]
    move_masks: tuple[int, ...]

    bottom = 0  # the initial state, first in canonical order

    def __len__(self):
        return len(self.packed_vectors)

    @property
    def n(self) -> int:
        return len(self.packed_vectors)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """Each state's firing vector, one count per vertex."""
        return tuple(_unpack_vectors(self.packed_vectors, len(self.names)))

    @cached_property
    def configs(self) -> tuple:
        """Each state's configuration, unpacked by the game's rule."""
        return tuple(self.unpack(self.packed_states))

    @property
    def covers(self) -> _Covers:
        """(lower, upper, fired vertex) per cover, in sorted order."""
        return _Covers(self.ups, self.move_masks)

    @property
    def cover_labels(self) -> dict[tuple[int, int], str]:
        """The fired vertex's name per cover (lower, upper), in sorted order."""
        return {(lo, hi): self.names[v] for lo, hi, v in self.covers}

    @cached_property
    def _index(self) -> Mapping[tuple[int, ...], int]:
        return {vec: i for i, vec in enumerate(self.vectors)}

    @cached_property
    def top(self) -> int:
        """The unique state with no outgoing cover."""
        tops = [i for i, ups in enumerate(self.ups) if not ups]
        if len(tops) != 1:
            raise RuntimeError(f"expected a unique maximal state, found {len(tops)}")
        return tops[0]

    @property
    def height(self) -> int:
        """The top's level: the field above its firing vector's."""
        return self.packed_vectors[self.top] >> 64 * len(self.names)

    def shot_set(self, i) -> frozenset[int]:
        """Vertices fired at least once to reach element i."""
        return frozenset(v for v, c in enumerate(self.vectors[self._check(i)]) if c)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Every state's shot label: its fired names, ``{a,b}``, or each with
        its count, ``{a:1,b:2}``, if any vertex fires twice in the space.
        Each vertex has one word table, its word per count, so a label only
        joins words."""
        vectors = self.vectors
        most = max(chain.from_iterable(vectors), default=0)
        if most > 1:
            words = [[f"{name}:{c}" for c in range(most + 1)] for name in self.names]
        else:
            words = [[name, name] for name in self.names]  # word 0 is never read
        return tuple(
            ["{" + ",".join([w[c] for w, c in zip(words, vec) if c]) + "}" for vec in vectors]
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
        """The space as a separately verified lattice, labelled by shot-sets."""
        return self._lattice

    @cached_property
    def _lattice(self):
        cover_labels = self.cover_labels  # its keys are the cover pairs
        return Lattice.from_covers(
            self.n, cover_labels, labels=self.labels, cover_labels=cover_labels
        )

    # the cover interface that Lattice's members read

    @cached_property
    def _moves(self) -> tuple[int, ...]:
        """``move_masks``, once every two moves of each state commute.

        Raises RuntimeError at the first cover (x, child, u), in ``covers``
        order, after which another move v of x is gone, naming the lowest
        such v: the rule of ``lattice._commuting``, which ``Lattice`` runs on
        meet-irreducible codes, here in one loop over the recorded masks and
        ``ups``, reading each cover's move off the mask. Chips only ever
        arrive at v when u fires or opens, so moves that do not commute are
        an engine fault.

        Once it passes, every cover interval is a cube. By induction on |S|,
        any subset S of the k moves out of x can be walked from x in any
        order: after the moves T ⊂ S, each move of S - T is still possible.
        So the 2^k walks all exist, and with distinct firing vectors they end
        in 2^k distinct states.
        """
        lost = _commuting(self.move_masks, self.ups)
        if lost:
            x, _, u, v = lost
            u, v = self.names[u], self.names[v]
            raise RuntimeError(
                f"moves {u} and {v} do not commute at state {self.labels[x]}: "
                f"{v} is lost after {u}"
            )
        return self.move_masks

    @cached_property
    def _antimatroid(self) -> bool:
        """True once ``_moves`` has passed, which it forces: distinct firing
        vectors, one firing per cover and commuting moves are the space's
        code certificate, so ``_hypercube_witness`` is None with no walk."""
        self._moves
        return True

    @property
    def _upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """``ups``, once ``_moves`` has checked that moves commute: what the
        verdicts and ``cover_pairs`` read."""
        self._moves
        return self.ups

    @cached_property
    def _up_masks(self) -> tuple[int, ...]:
        """Each state's up-set, gathered over its upper covers from the top."""
        seeds = [1 << x for x in range(self.n)]
        return _gather(seeds, self._upper_covers, reversed(self.topo_order))

    @property
    def topo_order(self) -> range:
        """The canonical order, a linear extension: every cover adds a firing."""
        return range(self.n)

    @property
    def is_ranked(self) -> bool:
        """True once ``_moves`` has passed, which it forces: ``_closure`` keeps
        a cover only when it adds one firing, so total firings is a rank."""
        self._moves
        return True
