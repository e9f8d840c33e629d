"""Coloured chip-firing games: opening closed vertices, per-colour stabilization.

Vertices start closed. A closed vertex may be opened when some colour gives it
at least as many chips of that colour as it has outgoing edges of that colour
(and at least one such edge). Opening then stabilizes every colour's classical
game over the open vertices; closed vertices absorb chips but never fire.

Every reached state is stable in every colour over its open set: the start
opens nothing, and each opening stabilizes again. So opening v can restart a
colour only at v, and only in a colour in which v can fire; every other colour
keeps its chips as they are. A colour that v restarts is played from a
worklist seeded with v, since a firing can make only the fired vertex and its
out-neighbours firable. Colours share no chips and each colour's game is
classical, so by strong convergence (Björner, Lovász & Shor 1991) neither the
order of the colours nor the order of the firings changes the stable chips or
how often each vertex fires.

So a colour's restart is a pure function of its own chips, the open vertices
it can fire at (its firing support: the vertices of positive out-degree in
that colour) and the opened vertex, and in a game made of independent parts
the same restart recurs at many states. Enumeration remembers each one: a
memo keyed on (colour index, block, open-set mask & firing support, vertex)
holds the stabilized block. It lives for one level of the closure, the number
of open vertices, which the closure visits in order, and belongs to one
``enumerate_space`` call: the game holds none.

The configuration space comes from the engine's shared breadth-first closure
and its two checks; the second one reports an open-set reached with two chip
contents.

Inside the closure a state is a tuple of ints: one chip block per colour, in
colour order, each laid out at bit 0 by ``engine._block`` for that colour's
chip total (chips are conserved within each colour), then the open-set mask.
An opening rebuilds only the blocks of the colours it restarts, and a firing
delta is no wider than its colour's block. The space keeps the states packed
and unpacks them to chip tuples once, on the first read of its ``configs``.
``open_vertex`` and ``openable`` check the state they are given, down to its
stability over its open set, then pack it and run the same packed code: by
the game's own layout when the state's chip totals fit it, else by a layout
made from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Mapping

from .engine import Cfg, ConfigSpace, _block, _closure, _pack_block, _unpack_block
from .errors import StepCapExceeded
from .multigraph import ColouredMultigraph, _as_int

_STABILIZE_CAP = 1_000_000  # every colour is checked to converge, so this stops only a long run


@dataclass(frozen=True)
class ColouredState:
    """Per-colour chip counts plus the set of open vertices."""

    chips: tuple[tuple[int, ...], ...]  # indexed like the graph's colour order
    opened: frozenset[int]


@dataclass(frozen=True)
class ColouredCfg:
    """A coloured game: coloured support graph plus per-colour initial chips."""

    graph: ColouredMultigraph
    init: Mapping[int, tuple[int, ...]]

    def __post_init__(self):
        n = self.graph.n
        init = {}
        for c, chips in self.init.items():
            c = _as_int(c, "colour")
            if c not in self.graph.layers:
                raise ValueError(f"chips of colour {c} but no such colour in the graph")
            init[c] = self._chips(c, chips)
        for c in self.graph.colours:
            init.setdefault(c, (0,) * n)
            restriction = self.graph.restriction_to_colour(c)
            if len(restriction.drain_set()) != n:
                raise ValueError(
                    f"colour {c} restriction is not a convergent game: "
                    "some vertex cannot drain to a sink"
                )
        object.__setattr__(self, "init", init)

    def _chips(self, c, chips) -> tuple[int, ...]:
        """chips of colour c as a tuple of plain ints: one non-negative
        integer per vertex."""
        chips = tuple(_as_int(x, f"chip count of colour {c}") for x in chips)
        if len(chips) != self.graph.n or any(x < 0 for x in chips):
            raise ValueError(f"bad chip vector for colour {c}")
        return chips

    def _state(self, state: ColouredState) -> ColouredState:
        """state with its chips checked as the initial chips are, one vector
        per colour, and its open vertices as vertex ids."""
        if len(state.chips) != len(self.colours):
            raise ValueError(f"a state holds one chip vector per colour, {len(self.colours)}")
        return ColouredState(
            chips=tuple(self._chips(c, x) for c, x in zip(self.colours, state.chips)),
            opened=frozenset(map(self.graph._check, state.opened)),
        )

    @property
    def colours(self) -> tuple[int, ...]:
        return self.graph.colours

    def initial_state(self) -> ColouredState:
        return ColouredState(
            chips=tuple(self.init[c] for c in self.colours),
            opened=frozenset(),
        )

    def _layout(self, totals):
        """How a state whose colours hold ``totals`` chips packs into a
        tuple, and what the packed moves read: (per colour, per vertex, per
        colour its firing support).

        A packed state holds one ``engine._block`` per colour, in colour
        order, for that colour's chip total, so entry ci is colour ci's
        chips; its last entry is the open-set mask, bit v for vertex v. Per
        colour: (colour, block, out-degrees, out-neighbours). Per vertex:
        the (colour index, shift, field mask, out-degree) of each colour it
        has out-edges in, the gates ``openable`` and ``_openings`` read. A
        colour's firing support is the mask of its vertices of positive
        out-degree: the only open bits its ``_stabilize`` reads.
        """
        n = self.graph.n
        colours, gates, supports = [], [[] for _ in range(n)], []
        for ci, (c, total) in enumerate(zip(self.colours, totals)):
            g = self.graph.restriction_to_colour(c)
            block = _, shifts, mask, _ = _block(g, total)
            deg = g._out_degrees
            colours.append((c, block, deg, tuple(tuple(w for w, _ in adj) for adj in g._out_adj)))
            supports.append(sum(1 << v for v in range(n) if deg[v]))
            for v in range(n):
                if deg[v]:
                    gates[v].append((ci, shifts[v], mask, deg[v]))
        return tuple(colours), tuple(map(tuple, gates)), tuple(supports)

    @cached_property
    def _packing(self):
        """The ``_layout`` of the initial chip totals, which every reached
        state keeps: chips are conserved within each colour."""
        return self._layout([sum(self.init[c]) for c in self.colours])

    @staticmethod
    def _pack(state: ColouredState, packing) -> tuple[int, ...]:
        blocks = (block for _, block, *_ in packing[0])
        return (*map(_pack_block, state.chips, blocks), sum(1 << v for v in state.opened))

    @staticmethod
    def _unpack(states, packing) -> list[tuple[tuple[int, ...], ...]]:
        """The per-colour chips of each packed state. A colour's block takes
        few distinct values over a space, so each is unpacked once."""
        columns = []
        for (_, block, *_), values in zip(packing[0], zip(*states)):
            distinct = set(values)
            chips = dict(zip(distinct, _unpack_block(distinct, block)))
            columns.append(list(map(chips.__getitem__, values)))
        return list(zip(*columns)) if columns else [()] * len(states)

    def _packed(self, state: ColouredState):
        """A layout that holds a checked state, and the state packed by it:
        the game's own when each colour's chip total fits its field, as
        every reached state's does, else one laid out from those totals.

        Raises ValueError unless the state is stable over its open set, as
        every reached state is: an open vertex may pass none of its gates.
        """
        packing, totals = self._packing, [sum(chips) for chips in state.chips]
        if any(t > block[2] for t, (_, block, *_) in zip(totals, packing[0])):
            packing = self._layout(totals)
        x = self._pack(state, packing)
        for v in sorted(state.opened):
            for ci, shift, mask, deg in packing[1][v]:
                if x[ci] >> shift & mask >= deg:
                    name, c = self.graph.names[v], self.colours[ci]
                    raise ValueError(f"open vertex {name} can still fire in colour {c}")
        return packing, x

    def openable(self, state: ColouredState) -> frozenset[int]:
        """Closed vertices firable in at least one colour restriction."""
        (_, gates, _), x = self._packed(self._state(state))
        return frozenset(
            v
            for v, v_gates in enumerate(gates)
            if not x[-1] >> v & 1 and any(x[ci] >> s & mask >= d for ci, s, mask, d in v_gates)
        )

    def open_vertex(self, state: ColouredState, v: int) -> ColouredState:
        """Open v, then stabilize the colours in which v can fire.

        The state must be stable in every colour over its open set, as every
        reached state is, so the opening restarts a colour only at v, and the
        colours in which v cannot fire keep their chips. Colours share no
        chips, and within one colour strong convergence fixes the stable
        chips, so neither the colour order nor the firing order matters.
        """
        v = self.graph._check(v)
        state = self._state(state)
        if v in state.opened:
            raise ValueError(f"vertex {self.graph.names[v]} is already open")
        packing, x = self._packed(state)
        moves = self._openings(x, packing, {}, [v])
        if not moves:
            raise ValueError(f"vertex {self.graph.names[v]} cannot be opened")
        [chips] = self._unpack([moves[0][1]], packing)
        return ColouredState(chips, state.opened | {v})

    def _openings(self, x: tuple[int, ...], packing, memo, vertices) -> list:
        """The moves (v, next state) out of a state packed by ``packing``,
        one per closed v of ``vertices`` that some colour lets fire, in the
        order given: each move rebuilds only the blocks of the colours v
        restarts.

        A restart is a pure function of the colour's block, the open bits
        of its firing support and v, so ``memo`` maps each such key,
        ``(colour index, block, opened & support, v)``, to the stabilized
        block, and a key seen before is not played again.
        """
        (colours, gates, supports), opened, out = packing, x[-1], []
        for v in vertices:
            if opened >> v & 1:
                continue
            blocks = None
            for ci, shift, mask, deg in gates[v]:
                if x[ci] >> shift & mask >= deg:
                    if blocks is None:
                        blocks, now = list(x), opened | 1 << v
                    key = ci, x[ci], now & supports[ci], v
                    new = memo.get(key)
                    if new is None:
                        new = memo[key] = self._stabilize(x[ci], now, colours[ci], v)
                    blocks[ci] = new
            if blocks is not None:
                blocks[-1] = now
                out.append((v, tuple(blocks)))
        return out

    def _stabilize(self, x: int, opened: int, colour, v: int) -> int:
        """Play one colour's block ``x``, by that colour's entry of the
        layout, on the vertices of the open-set mask ``opened``, from a
        worklist seeded with v; closed vertices absorb chips.

        The chips must be stable at every open vertex but v.
        """
        c, (_, shifts, mask, deltas), degs, targets = colour
        todo = [v]
        steps = 0
        while todo:
            u = todo.pop()
            deg, shift = degs[u], shifts[u]
            if not opened >> u & 1 or not 0 < deg <= x >> shift & mask:
                continue
            while deg <= x >> shift & mask:
                x += deltas[u]
                steps += 1
                if steps > _STABILIZE_CAP:
                    raise StepCapExceeded(
                        f"colour {c} converges, but the step cap came first: "
                        f"not stable within {_STABILIZE_CAP} firings"
                    )
            todo.extend(targets[u])
        return x

    def _successors(self, x: tuple[int, ...], restarts) -> list[tuple[int, tuple[int, ...]]]:
        """The moves (v, next state) out of a packed state, in ascending
        vertex order.

        Restarts are remembered for one level of the closure, its number of
        open vertices: ``restarts``, the one ``enumerate_space`` call's own
        dict, maps the level to its memo, and as the closure visits the
        levels in order, the first state of a level drops the memo of the
        level before.
        """
        level = x[-1].bit_count()
        restarts.pop(level - 1, None)  # each move opens one vertex: levels are consecutive
        return self._openings(x, self._packing, restarts.setdefault(level, {}), range(self.graph.n))

    def enumerate_space(self, state_cap=None) -> ConfigSpace:
        """Breadth-first closure over open-sets; chip state is cross-checked.

        Opening order does not matter: each open-set must be reached with a
        single chip content, and a second one would be reported. The closure
        runs on states packed by ``_packing``; the space keeps them packed
        and unpacks its ``configs`` by ``_unpack`` on first read. The
        closure visits the levels in order, so ``_successors`` remembers
        restarts per level, in a memo that this call owns: the game holds
        none, and calls on one game, in turn or at once, share none.
        """
        packing = self._packing
        start = self._pack(self.initial_state(), packing)
        unpack = partial(self._unpack, packing=packing)
        successors = partial(self._successors, restarts={})
        return _closure(self, start, successors, unpack, state_cap)


def from_classical(cfg: Cfg) -> ColouredCfg:
    """View a simple convergent game as a one-colour coloured game."""
    if not cfg.converges_guaranteed:
        raise ValueError("the game must be convergent")
    if not cfg.is_simple():
        raise ValueError("the game is not simple; simplify it first")
    graph = ColouredMultigraph(cfg.graph.names, {1: dict(cfg.graph.mult)})
    return ColouredCfg(graph, {1: cfg.init})
