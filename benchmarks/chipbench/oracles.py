"""Answers computed without the program, and checks of its outputs.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not. The game reader and the two explorers here
follow the file format and the firing/opening rules as documented, and share
no code with ``chipfire``.
"""

from __future__ import annotations

import re
from collections import deque

import numpy as np

from .inputs import Facts

# explorers give up beyond this many states instead of running away
STATE_CAP = 100_000


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


# sandpile


def topple(n: int, pile: int, pos: tuple[int, int]):
    """Parallel toppling of an n x n sandpile with one pile.

    Every unstable cell topples floor(c/4) times per round; by the abelian
    property the final grid and the per-cell counts match any firing order.
    Returns (final grid, per-cell topplings, chips in the sink).
    """
    grid = np.zeros((n, n), dtype=np.int64)
    grid[pos] = pile
    fired = np.zeros_like(grid)
    while True:
        k = grid // 4
        if not k.any():
            break
        fired += k
        grid -= 4 * k
        grid[1:, :] += k[:-1, :]
        grid[:-1, :] += k[1:, :]
        grid[:, 1:] += k[:, :-1]
        grid[:, :-1] += k[:, 1:]
    return grid, fired, pile - int(grid.sum())


def sandpile_stdout(n: int, pile: int, pos: tuple[int, int]) -> tuple[str, int]:
    """Expected stdout of ``chipfire run`` on the grid, and the firing count."""
    grid, fired, sink = topple(n, pile, pos)
    names = [f"r{i}c{j}" for i in range(n) for j in range(n)] + ["sink"]
    final = grid.ravel().tolist() + [sink]
    counts = fired.ravel().tolist() + [0]
    lines = [] if sum(counts) else ["no firings"]
    lines.append("final: " + " ".join(f"{v}={c}" for v, c in zip(names, final)))
    lines.append("fired: " + " ".join(f"{v}={c}" for v, c in zip(names, counts)))
    return "\n".join(lines) + "\n", sum(counts)


def check_exact(expected: str, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if out != expected:
        got = out.splitlines()
        want = expected.splitlines()
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"line {i + 1}: got {a[:60]!r}, expected {b[:60]!r}"
        return f"got {len(got)} lines, expected {len(want)}"
    return None


# configuration spaces


def space_stdout(facts: Facts, dot_path: str | None) -> str:
    """Expected stdout of ``chipfire space`` on a product game."""
    lines = [
        f"elements: {facts.n}",
        f"height: {facts.height}",
        "ranked: yes",
        f"distributive: {_yes(facts.distributive)}",
        "ULD: yes",
    ]
    if dot_path:
        lines.append(f"dot: {dot_path}")
    return "\n".join(lines) + "\n"


_DOT_NODE = re.compile(r"^  n\d+ \[label=", re.M)
_DOT_EDGE = re.compile(r"^  n\d+ -> n\d+", re.M)


def check_dot(text: str, facts: Facts) -> str | None:
    nodes = len(_DOT_NODE.findall(text))
    edges = len(_DOT_EDGE.findall(text))
    if (nodes, edges) != (facts.n, facts.covers):
        return f"DOT has {nodes} nodes and {edges} edges, expected {facts.n} and {facts.covers}"
    return None


# lattice analysis


def check_analysis(facts: Facts, rc: int, out: str) -> str | None:
    """``chipfire check`` on a ULD lattice with known facts."""
    if rc != 0:
        return f"exit code {rc}"
    want = [
        f"elements: {facts.n}",
        "lattice: yes",
        "ranked: yes",
        f"height: {facts.height}",
        f"distributive: {_yes(facts.distributive)}",
        "ULD: yes",
        "  hypercube-interval detector: yes",
        "  cover-step detector: yes",
        f"|J|: {facts.j}",
        f"|M|: {facts.m}",
    ]
    got = out.splitlines()
    for i, line in enumerate(want):
        if i >= len(got) or got[i] != line:
            return f"line {i + 1}: expected {line!r}"
    rest = got[len(want):]
    # the arrow partition splits J into |M| non-empty classes (singletons
    # when distributive), and ULD lattices have down and up-down witnesses
    classes = next((line for line in rest if line.startswith("classes: ")), "")
    sizes = [int(x) for x in classes.split("sizes: ")[-1].split()] if classes else []
    if len(sizes) != facts.m or sum(sizes) != facts.j or min(sizes, default=0) < 1:
        return f"bad classes line {classes!r}"
    if facts.distributive and max(sizes) != 1:
        return f"distributive lattice with non-singleton classes {classes!r}"
    if not any(line.startswith("arrow witnesses: down=yes updown=yes ") for line in rest):
        return "missing arrow witnesses"
    return None


# independent game reader and explorers


def read_game(text: str):
    """Parse the documented game format.

    Returns (names, layers, chips): ``layers`` maps a colour (None for a
    classical game) to {(u, v): multiplicity}, ``chips`` maps a colour to a
    per-vertex list.
    """
    names, layers, chips = [], {}, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, rest = (s.strip() for s in line.split(":", 1))
        tokens = rest.split()
        if key == "vertices":
            names = tokens
        elif key == "edge":
            colour = None
            if tokens[-1].startswith("colour="):
                colour = int(tokens.pop()[len("colour="):])
            u, v = names.index(tokens[0]), names.index(tokens[1])
            k = int(tokens[2]) if len(tokens) > 2 else 1
            layer = layers.setdefault(colour, {})
            layer[(u, v)] = layer.get((u, v), 0) + k
        elif key == "chips":
            for item in tokens:
                name, value = item.split("=", 1)
                for part in value.split(","):
                    count, _, colour = part.partition("@")
                    vec = chips.setdefault(int(colour) if colour else None, [0] * len(names))
                    vec[names.index(name)] += int(count)
        else:
            raise ValueError(f"unknown keyword {key!r}")
    for c in layers:
        chips.setdefault(c, [0] * len(names))
    return names, layers, chips


def _degrees_and_adjacency(n, layer):
    deg = [0] * n
    adj = [[] for _ in range(n)]
    for (u, v), k in layer.items():
        deg[u] += k
        adj[u].append((v, k))
    return deg, adj


def classical_space(text: str):
    """Reachable configurations of a classical game, and per-vertex firing
    counts at its fixpoint (fired in index order)."""
    names, layers, chips = read_game(text)
    n = len(names)
    deg, adj = _degrees_and_adjacency(n, layers.get(None, {}))

    def fire(conf, v):
        nxt = list(conf)
        nxt[v] -= deg[v]
        for w, k in adj[v]:
            nxt[w] += k
        return tuple(nxt)

    start = tuple(chips.get(None, [0] * n))
    seen = {start}
    queue = deque([start])
    while queue:
        conf = queue.popleft()
        for v in range(n):
            if 0 < deg[v] <= conf[v]:
                nxt = fire(conf, v)
                if nxt not in seen:
                    if len(seen) >= STATE_CAP:
                        raise RuntimeError(f"more than {STATE_CAP} configurations")
                    seen.add(nxt)
                    queue.append(nxt)
    conf, counts = start, [0] * n
    while True:
        ready = [v for v in range(n) if 0 < deg[v] <= conf[v]]
        if not ready:
            return len(seen), counts
        conf = fire(conf, ready[0])
        counts[ready[0]] += 1


def coloured_space_size(text: str) -> int:
    """Number of reachable open-sets of a coloured game.

    A closed vertex opens when some colour gives it at least its positive
    out-degree in that colour; each colour then fires its open vertices until
    none can fire, in ascending colour order.
    """
    names, layers, chips = read_game(text)
    n = len(names)
    colours = sorted(layers)
    tables = [_degrees_and_adjacency(n, layers[c]) for c in colours]
    start = (frozenset(), tuple(tuple(chips[c]) for c in colours))
    seen = {start[0]: start[1]}
    queue = deque([start])
    while queue:
        opened, state = queue.popleft()
        for v in range(n):
            if v in opened or not any(
                0 < deg[v] <= vec[v] for (deg, _), vec in zip(tables, state)
            ):
                continue
            now = opened | {v}
            nxt = []
            for (deg, adj), vec in zip(tables, state):
                vec = list(vec)
                ready = [u for u in now if 0 < deg[u] <= vec[u]]
                while ready:
                    u = ready.pop()
                    vec[u] -= deg[u]
                    for w, k in adj[u]:
                        vec[w] += k
                    ready = [u for u in now if 0 < deg[u] <= vec[u]]
                nxt.append(tuple(vec))
            if now not in seen:
                if len(seen) >= STATE_CAP:
                    raise RuntimeError(f"more than {STATE_CAP} open-sets")
                seen[now] = tuple(nxt)
                queue.append((now, tuple(nxt)))
    return len(seen)


def check_synth(facts: Facts, mode: str, rc: int, err: str, out_path: str) -> str | None:
    """``chipfire synth``: exit 0, the isomorphic verdict, and a written game
    with |M| + 1 vertices whose space has as many elements as the lattice."""
    if rc != 0:
        return f"exit code {rc}"
    if "round-trip: isomorphic" not in err.splitlines():
        return "missing 'round-trip: isomorphic'"
    try:
        with open(out_path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return f"cannot read the synthesized game: {exc}"
    names, layers, _ = read_game(text)
    if (None in layers) != (mode == "distributive"):
        return f"mode {mode} wrote a {'classical' if None in layers else 'coloured'} game"
    if len(names) != facts.m + 1:
        return f"synthesized game has {len(names)} vertices, expected {facts.m + 1}"
    size = classical_space(text)[0] if mode == "distributive" else coloured_space_size(text)
    if size != facts.n:
        return f"synthesized space has {size} elements, expected {facts.n}"
    return None


def check_simplify(space_size: int, rc: int, err: str, out_path: str) -> str | None:
    """``chipfire simplify``: exit 0, the simple and isomorphic verdicts, and a
    written game where no vertex fires twice and the space size is unchanged."""
    if rc != 0:
        return f"exit code {rc}"
    lines = err.splitlines()
    for want in ("simple: yes", "isomorphic: yes"):
        if want not in lines:
            return f"missing {want!r}"
    try:
        with open(out_path, encoding="utf-8") as handle:
            size, counts = classical_space(handle.read())
    except OSError as exc:
        return f"cannot read the simplified game: {exc}"
    if max(counts, default=0) > 1:
        return "simplified game fires a vertex twice"
    if size != space_size:
        return f"simplified space has {size} elements, expected {space_size}"
    return None
