"""Directed multigraphs with edge multiplicities, loop counts and colour layers.

Edges are stored as multiplicity counts per ordered vertex pair rather than as
edge lists; the dynamics only ever need counts, and the splitting transform
creates large bundles of parallel edges.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .lattice import Poset


def _as_int(x, what) -> int:
    """x as a plain int (numpy ints and bools too); ValueError for anything
    else, so a float is never truncated nor a string parsed."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def _as_edge_dict(mult, n):
    out = {}
    for (u, v), k in mult.items():
        try:  # inline, not _as_int: this runs once per edge bundle
            a, b, m = operator.index(u), operator.index(v), operator.index(k)
        except TypeError:
            raise ValueError(
                f"edge ({u!r},{v!r}) with multiplicity {k!r}: ids and multiplicity must be integers"
            ) from None
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        if m < 0:
            raise ValueError(f"negative multiplicity on edge ({u},{v})")
        if m:
            out[(a, b)] = m
    return out


@dataclass(frozen=True)
class Multigraph:
    """Directed multigraph on vertices 0..n-1 with display names.

    Immutable after construction; all queries are pure.
    """

    names: tuple[str, ...]
    mult: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        names = tuple(str(x) for x in self.names)
        if len(set(names)) != len(names):
            raise ValueError("vertex names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "mult", _as_edge_dict(self.mult, len(names)))

    @classmethod
    def from_edges(cls, names, edges: Iterable[tuple[str, str, int]]):
        """Build from (source name, target name, multiplicity) triples; repeats add up."""
        graph = cls(names)  # checks the names; its vertex() looks them up
        mult: dict[tuple[int, int], int] = {}
        for u, v, k in edges:
            key = (graph.vertex(u), graph.vertex(v))
            mult[key] = mult.get(key, 0) + _as_int(k, "multiplicity")
        return cls(graph.names, mult)

    @property
    def n(self) -> int:
        return len(self.names)

    def vertex(self, name: str) -> int:
        try:
            return self._index[str(name)]
        except KeyError:
            raise ValueError(f"unknown vertex {name!r}") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.names)}

    _id_kind = "vertex"
    _check = Poset._check  # the one id rule: v as a plain int, else ValueError

    def multiplicity(self, u: int, v: int) -> int:
        return self.mult.get((self._check(u), self._check(v)), 0)

    @cached_property
    def _out_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, sorted (target, multiplicity) pairs."""
        adj = [[] for _ in range(self.n)]
        for (u, v), k in self.mult.items():
            adj[u].append((v, k))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _out_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for (u, _), k in self.mult.items():
            deg[u] += k
        return tuple(deg)

    @cached_property
    def _in_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for (_, v), k in self.mult.items():
            deg[v] += k
        return tuple(deg)

    def out_degree(self, v: int) -> int:
        """Total multiplicity of edges leaving v; loops count once per loop edge."""
        return self._out_degrees[self._check(v)]

    def in_degree(self, v: int) -> int:
        return self._in_degrees[self._check(v)]

    def loops(self, v: int) -> int:
        return self.multiplicity(v, v)

    def nonloop_out_degree(self, v: int) -> int:
        return self.out_degree(v) - self.loops(v)

    @property
    def total_multiplicity(self) -> int:
        return sum(self.mult.values())

    def sinks(self) -> frozenset[int]:
        """Vertices with no outgoing edges."""
        return frozenset(v for v in range(self.n) if self._out_degrees[v] == 0)

    @cached_property
    def _reverse_adj(self) -> tuple[tuple[int, ...], ...]:
        adj = [set() for _ in range(self.n)]
        for (u, v) in self.mult:
            adj[v].add(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def _reachable_to(self, targets: Iterable[int]) -> frozenset[int]:
        """Vertices with a directed path into the target set (targets included)."""
        seen = set(targets)
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for u in self._reverse_adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        return frozenset(seen)

    def sink_reachable_from_all(self) -> bool:
        """True iff a single sink is reachable from every vertex."""
        return any(len(self._reachable_to([s])) == self.n for s in self.sinks())

    def drain_set(self) -> frozenset[int]:
        """Vertices from which some sink is reachable."""
        return self._reachable_to(self.sinks())

    def induced_subgraph(self, vertices: Iterable[int]) -> "Multigraph":
        """Subgraph on the given vertices, keeping edges with both endpoints inside."""
        keep = sorted({self._check(v) for v in vertices})
        remap = {v: i for i, v in enumerate(keep)}
        mult = {
            (remap[u], remap[v]): k
            for (u, v), k in self.mult.items()
            if u in remap and v in remap
        }
        return Multigraph(tuple(self.names[v] for v in keep), mult)

    def __repr__(self):
        return f"Multigraph({list(self.names)}, {len(self.mult)} edge bundles)"


@dataclass(frozen=True)
class ColouredMultigraph:
    """Directed multigraph whose edges carry a colour; one edge layer per colour."""

    names: tuple[str, ...]
    layers: Mapping[int, Mapping[tuple[int, int], int]] = field(default_factory=dict)

    def __post_init__(self):
        names = tuple(str(x) for x in self.names)
        if len(set(names)) != len(names):
            raise ValueError("vertex names must be unique")
        layers = {
            _as_int(c, "colour"): _as_edge_dict(edges, len(names))
            for c, edges in self.layers.items()
        }
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "layers", layers)

    @classmethod
    def from_edges(cls, names, edges: Iterable[tuple[str, str, int, int]]):
        """Build from (source, target, multiplicity, colour) tuples."""
        graph = cls(names)  # checks the names; its vertex() looks them up
        layers: dict[int, dict[tuple[int, int], int]] = {}
        for u, v, k, c in edges:
            layer = layers.setdefault(_as_int(c, "colour"), {})
            key = (graph.vertex(u), graph.vertex(v))
            layer[key] = layer.get(key, 0) + _as_int(k, "multiplicity")
        return cls(graph.names, layers)

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def colours(self) -> tuple[int, ...]:
        return tuple(sorted(self.layers))

    _index = Multigraph._index
    vertex = Multigraph.vertex
    _id_kind = Multigraph._id_kind
    _check = Multigraph._check

    def restriction_to_colour(self, c: int) -> Multigraph:
        """The classical multigraph carrying only the colour-c edges."""
        if c not in self.layers:
            raise ValueError(f"unknown colour {c!r}")
        return self._restrictions[c]

    @cached_property
    def _restrictions(self) -> dict[int, Multigraph]:
        return {c: Multigraph(self.names, edges) for c, edges in self.layers.items()}

    def pair_multiplicity(self, u: int, v: int) -> int:
        """Total multiplicity of (u, v) summed over all colours."""
        key = (self._check(u), self._check(v))
        return sum(edges.get(key, 0) for edges in self.layers.values())

    def __repr__(self):
        return f"ColouredMultigraph({list(self.names)}, colours={list(self.colours)})"
