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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from .engine import Cfg, ConfigSpace, _closure, _fire_in_place
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
    def _colour_index(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the (colour index, out-degree) pairs of the colours it
        has out-edges in."""
        degrees = [self.graph.restriction_to_colour(c)._out_degrees for c in self.colours]
        return tuple(
            tuple((ci, deg[v]) for ci, deg in enumerate(degrees) if deg[v])
            for v in range(self.graph.n)
        )

    def openable(self, state: ColouredState) -> frozenset[int]:
        """Closed vertices firable in at least one colour restriction."""
        return self._openable(self._state(state))

    def _openable(self, state: ColouredState) -> frozenset[int]:
        """``openable`` for a state the caller has already checked."""
        chips, opened = state.chips, state.opened
        return frozenset(
            v
            for v, colours in enumerate(self._colour_index)
            if v not in opened and any(deg <= chips[ci][v] for ci, deg in colours)
        )

    def _stabilize_colour(self, ci, chips, opened, v):
        """Play colour index ci on the open vertices, from a worklist seeded
        with v; closed vertices absorb chips.

        The chips must be stable at every open vertex but v.
        """
        c = self.colours[ci]
        restriction = self.graph.restriction_to_colour(c)
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
                if steps > _STABILIZE_CAP:
                    raise StepCapExceeded(
                        f"colour {c} did not stabilize within {_STABILIZE_CAP} firings"
                    )
            todo.extend(w for w, _ in adj[u])
        return tuple(chips)

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
        if v not in self._openable(state):
            raise ValueError(f"vertex {self.graph.names[v]} cannot be opened")
        return self._open(state, v)

    def _open(self, state: ColouredState, v: int) -> ColouredState:
        """``open_vertex`` for a vertex the caller has already found openable."""
        opened = state.opened | {v}
        chips = list(state.chips)
        for ci, deg in self._colour_index[v]:
            if deg <= chips[ci][v]:
                chips[ci] = self._stabilize_colour(ci, chips[ci], opened, v)
        return ColouredState(chips=tuple(chips), opened=opened)

    def enumerate_space(self, state_cap=None) -> ConfigSpace:
        """Breadth-first closure over open-sets; chip state is cross-checked.

        Opening order does not matter: each open-set must be reached with a
        single chip content, and a second one would be reported.
        """

        def successors(state):
            return [(v, self._open(state, v)) for v in sorted(self._openable(state))]

        space = _closure(self, self.initial_state(), successors, state_cap)
        return replace(space, configs=tuple(state.chips for state in space.configs))


def from_classical(cfg: Cfg) -> ColouredCfg:
    """View a simple convergent game as a one-colour coloured game."""
    if not cfg.converges_guaranteed:
        raise ValueError("the game must be convergent")
    if not cfg.is_simple():
        raise ValueError("the game is not simple; simplify it first")
    graph = ColouredMultigraph(cfg.graph.names, {1: dict(cfg.graph.mult)})
    return ColouredCfg(graph, {1: cfg.init})
