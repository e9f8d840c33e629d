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

The configuration space comes from the engine's shared breadth-first closure
and its two checks; the second one reports an open-set reached with two chip
contents.

Inside the closure a state is one int: the open-set mask in the low n bits,
then one block of n fields per colour, each field as wide as the bit length
of that colour's chip total. Chips are conserved within each colour and never
go negative, so no field overflows, and a firing is one added delta that
neither borrows nor carries. States are unpacked to chip tuples once, when
the space is built. ``open_vertex`` and ``openable`` check the state they are
given, pack it and run the same packed code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from .engine import Cfg, ConfigSpace, _closure
from .errors import StepCapExceeded
from .multigraph import ColouredMultigraph, _as_int

_STABILIZE_CAP = 1_000_000  # defensive; per-colour convergence is checked up front


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

    @cached_property
    def _packing(self):
        """How ``enumerate_space`` packs a state into one int, and what the
        packed moves read: (per colour, per vertex).

        The open-set mask sits in the low n bits, bit v for vertex v. Above it
        comes one block of n fields per colour, in colour order; a field is as
        wide as the bit length of that colour's chip total, and vertex v's
        field sits at ``shifts[v]``. Chips are conserved within each colour and
        never go negative, so every field of a reachable state fits, and
        adding a firing's delta (the out-degree off the vertex's own field,
        each out-edge's chips onto the target's, all in one colour's block)
        neither borrows nor carries between fields.

        Per colour, in colour order: (colour, block offset, field width,
        shifts, field mask, out-degrees, firing deltas, out-neighbours). Per
        vertex: the (colour index, shift, field mask, out-degree) of each
        colour it has out-edges in, the gates ``_openable`` reads.
        """
        n = self.graph.n
        colours, gates = [], [[] for _ in range(n)]
        offset = n
        for ci, c in enumerate(self.colours):
            g = self.graph.restriction_to_colour(c)
            width = max(1, sum(self.init[c]).bit_length())
            shifts = tuple(range(offset, offset + width * n, width))
            mask = (1 << width) - 1
            deg = g._out_degrees
            deltas = tuple(
                sum(k << shifts[w] for w, k in g._out_adj[v]) - (deg[v] << shifts[v])
                for v in range(n)
            )
            targets = tuple(tuple(w for w, _ in adj) for adj in g._out_adj)
            colours.append((c, offset, width, shifts, mask, deg, deltas, targets))
            for v in range(n):
                if deg[v]:
                    gates[v].append((ci, shifts[v], mask, deg[v]))
            offset += width * n
        return tuple(colours), tuple(map(tuple, gates))

    def _pack(self, state: ColouredState) -> int:
        colours, _ = self._packing
        x = sum(1 << v for v in state.opened)
        for (_, _, _, shifts, *_), chips in zip(colours, state.chips):
            x += sum(k << s for k, s in zip(chips, shifts))
        return x

    def _unpack(self, states) -> list[tuple[tuple[int, ...], ...]]:
        """The per-colour chips of each packed state. A colour block takes
        only a few distinct values, so each one is unpacked once."""
        colours, _ = self._packing
        n = self.graph.n
        columns = []
        for _, offset, width, _, mask, *_ in colours:
            block_mask, fields = (1 << width * n) - 1, range(0, width * n, width)
            blocks = [x >> offset & block_mask for x in states]
            chips = {b: tuple([b >> s & mask for s in fields]) for b in set(blocks)}
            columns.append(map(chips.__getitem__, blocks))
        return list(zip(*columns)) if columns else [()] * len(states)

    def _packed(self, state: ColouredState) -> tuple["ColouredCfg", int]:
        """The game started from a checked state's chips, and the state packed
        by it: that game's packing fits the state whatever its chip totals."""
        game = replace(self, init=dict(zip(self.colours, state.chips)))
        return game, game._pack(state)

    def openable(self, state: ColouredState) -> frozenset[int]:
        """Closed vertices firable in at least one colour restriction."""
        game, x = self._packed(self._state(state))
        return frozenset(game._openable(x))

    def _openable(self, x: int) -> list[int]:
        """``openable`` on a packed state, in ascending order."""
        out = []
        for v, gates in enumerate(self._packing[1]):
            if not x >> v & 1:
                for _, shift, mask, deg in gates:
                    if x >> shift & mask >= deg:
                        out.append(v)
                        break
        return out

    def open_vertex(self, state: ColouredState, v: int) -> ColouredState:
        """Open v, then stabilize the colours in which v can fire.

        A state reached from the initial one is stable in every colour over
        its open set, so the opening restarts a colour only at v, and the
        colours in which v cannot fire keep their chips. Colours share no
        chips, and within one colour strong convergence fixes the stable
        chips, so neither the colour order nor the firing order matters.
        """
        v = self.graph._check(v)
        state = self._state(state)
        if v in state.opened:
            raise ValueError(f"vertex {self.graph.names[v]} is already open")
        game, x = self._packed(state)
        if v not in game._openable(x):
            raise ValueError(f"vertex {self.graph.names[v]} cannot be opened")
        [chips] = game._unpack([game._open(x, v)])
        return ColouredState(chips, state.opened | {v})

    def _open(self, x: int, v: int) -> int:
        """``open_vertex`` on a packed state, for a vertex the caller has
        already found openable."""
        x |= 1 << v
        for ci, shift, mask, deg in self._packing[1][v]:
            if x >> shift & mask >= deg:
                x = self._stabilize(x, ci, v)
        return x

    def _stabilize(self, x: int, ci: int, v: int) -> int:
        """Play colour index ci of a packed state on the open vertices, from
        a worklist seeded with v; closed vertices absorb chips.

        The chips must be stable at every open vertex but v.
        """
        c, _, _, shifts, mask, degs, deltas, targets = self._packing[0][ci]
        todo = [v]
        steps = 0
        while todo:
            u = todo.pop()
            deg, shift = degs[u], shifts[u]
            if not x >> u & 1 or not 0 < deg <= x >> shift & mask:
                continue
            while deg <= x >> shift & mask:
                x += deltas[u]
                steps += 1
                if steps > _STABILIZE_CAP:
                    raise StepCapExceeded(
                        f"colour {c} did not stabilize within {_STABILIZE_CAP} firings"
                    )
            todo.extend(targets[u])
        return x

    def _successors(self, x: int) -> list[tuple[int, int]]:
        """The moves (v, next state) out of a packed state, in ascending
        vertex order."""
        return [(v, self._open(x, v)) for v in self._openable(x)]

    def enumerate_space(self, state_cap=None) -> ConfigSpace:
        """Breadth-first closure over open-sets; chip state is cross-checked.

        Opening order does not matter: each open-set must be reached with a
        single chip content, and a second one would be reported. The closure
        runs on states packed by ``_packing``, unpacked once at the end.
        """
        start = self._pack(self.initial_state())
        space = _closure(self, start, self._successors, state_cap)
        return replace(space, configs=tuple(self._unpack(space.configs)))


def from_classical(cfg: Cfg) -> ColouredCfg:
    """View a simple convergent game as a one-colour coloured game."""
    if not cfg.converges_guaranteed:
        raise ValueError("the game must be convergent")
    if not cfg.is_simple():
        raise ValueError("the game is not simple; simplify it first")
    graph = ColouredMultigraph(cfg.graph.names, {1: dict(cfg.graph.mult)})
    return ColouredCfg(graph, {1: cfg.init})
