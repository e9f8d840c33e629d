"""Text formats for games and lattices, plus Graphviz DOT export.

Game files::

    vertices: a b c d
    edge: a c 1
    edge: c d 2
    chips: a=1 b=1 c=1 d=0

Coloured games add ``colour=`` on edges and ``count@colour`` chip entries::

    edge: a c 1 colour=3
    chips: a=1@1,1@3

Lattice files::

    elements: e0 e1 e2
    cover: e0 e1

Both read their lines through one grammar: ``#`` starts a comment, a line
left blank is skipped, and any other line is ``keyword: rest``, the keyword
ending at its first colon. The three DOT writers make their node and edge
lines, each name or label escaped once, and hand them ready to one emitter,
which adds the header lines. ``space_to_dot`` reads its edges straight off
the space's upper covers and move masks, with no cover triple.
"""

from __future__ import annotations

from .coloured import ColouredCfg
from .engine import Cfg, ConfigSpace
from .errors import NotALatticeError, ParseError
from .lattice import Lattice
from .multigraph import ColouredMultigraph, Multigraph

_PALETTE = (
    "black", "red3", "blue3", "green4", "darkorange2",
    "purple3", "deepskyblue3", "brown", "magenta3", "gold3",
)


def _keyword_lines(text, path):
    """``(lineno, keyword, rest)`` for each line with content; ParseError for
    one without a colon."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        keyword, colon, rest = raw.partition("#")[0].partition(":")
        if colon:
            yield lineno, keyword.strip(), rest
        elif keyword := keyword.strip():
            raise ParseError(f"expected 'keyword: ...', got {keyword!r}", path, lineno)


def parse_game(text: str, path: str = "<string>"):
    """Parse a game file: a Cfg, or a ColouredCfg when an edge or chip entry
    has a colour. The edges and chips are gathered by colour in one pass each;
    a classical game is the ``None`` layer."""
    names: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    edges = []  # (u, v, k, colour or None, lineno)
    chip_items = []  # (vertex, count, colour or None, lineno)
    for lineno, keyword, rest in _keyword_lines(text, path):
        if keyword == "vertices":
            if names is not None:
                raise ParseError("duplicate vertices line", path, lineno)
            tokens = rest.split()
            if not tokens:
                raise ParseError("vertices line needs at least one name", path, lineno)
            if len(set(tokens)) != len(tokens):
                raise ParseError("duplicate vertex name", path, lineno)
            names = tuple(tokens)
            index = {x: i for i, x in enumerate(names)}
        elif keyword == "edge":
            if names is None:
                raise ParseError("edge before vertices line", path, lineno)
            tokens = rest.split()
            colour = None
            if tokens and tokens[-1].startswith("colour="):
                try:
                    colour = int(tokens[-1][len("colour="):])
                except ValueError:
                    raise ParseError(f"bad colour in {tokens[-1]!r}", path, lineno) from None
                tokens = tokens[:-1]
            if len(tokens) == 2:
                u, v, k = tokens[0], tokens[1], 1
            elif len(tokens) == 3:
                u, v = tokens[0], tokens[1]
                try:
                    k = int(tokens[2])
                except ValueError:
                    raise ParseError(f"bad multiplicity {tokens[2]!r}", path, lineno) from None
            else:
                raise ParseError("edge needs 'edge: U V [K] [colour=C]'", path, lineno)
            for name in (u, v):
                if name not in index:
                    raise ParseError(f"unknown vertex {name!r}", path, lineno)
            if k < 0:
                raise ParseError("negative multiplicity", path, lineno)
            edges.append((index[u], index[v], k, colour, lineno))
        elif keyword == "chips":
            if names is None:
                raise ParseError("chips before vertices line", path, lineno)
            for item in rest.split():
                name, eq, value = item.rpartition("=")  # names may hold '='
                if not eq:
                    raise ParseError(f"bad chip entry {item!r}", path, lineno)
                if name not in index:
                    raise ParseError(f"unknown vertex {name!r}", path, lineno)
                for part in value.split(","):
                    count, at, colour = part.partition("@")
                    try:
                        entry = (int(count), int(colour) if at else None)
                    except ValueError:
                        raise ParseError(f"bad chip entry {item!r}", path, lineno) from None
                    chip_items.append((index[name], *entry, lineno))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", path, lineno)
    if names is None:
        raise ParseError("missing vertices line", path)
    coloured = any(c is not None for *_, c, _ in edges) or any(
        c is not None for *_, c, _ in chip_items
    )
    layers: dict[int | None, dict] = {} if coloured else {None: {}}  # classical: the None layer
    for u, v, k, c, lineno in edges:
        layer = layers.get(c)
        if layer is None:
            if c is None:
                raise ParseError("uncoloured edge in a coloured game", path, lineno)
            layer = layers[c] = {}
        layer[(u, v)] = layer.get((u, v), 0) + k
    init = {c: [0] * len(names) for c in layers}
    for v, count, c, lineno in chip_items:
        chips = init.get(c)
        if chips is None:
            if c is None:
                raise ParseError("chip entry without a colour in a coloured game", path, lineno)
            raise ParseError(f"chips of colour {c} but no edges of that colour", path, lineno)
        if count < 0:
            raise ParseError("negative chip count", path, lineno)
        chips[v] += count
    if not coloured:
        return Cfg(Multigraph(names, layers[None]), tuple(init[None]))
    return ColouredCfg(
        ColouredMultigraph(names, layers),
        {c: tuple(chips) for c, chips in init.items()},
    )


def parse_game_file(path) -> Cfg | ColouredCfg:
    with open(path, encoding="utf-8") as handle:
        return parse_game(handle.read(), path=str(path))


def _writable(names, kind):
    """``names``; ValueError for the first that a file cannot hold."""
    for name in names:  # split() cuts at each character that isspace()
        if name.split() != [name] or "#" in name:
            raise ValueError(f"{kind} {name!r} cannot be written: empty or holds whitespace or '#'")
    return names


def serialize_game(game: Cfg | ColouredCfg) -> str:
    """Canonical text form; parsing it back gives an equal game. A game
    without vertices, or a coloured one without colours (its file would read
    back as classical), has none: ValueError."""
    if not game.graph.names:
        raise ValueError("a game without vertices cannot be written")
    if isinstance(game, ColouredCfg) and not game.colours:
        raise ValueError("a coloured game without colours cannot be written")
    names = _writable(game.graph.names, "vertex")
    lines = ["vertices: " + " ".join(names)]
    if isinstance(game, Cfg):
        for (u, v), k in sorted(game.graph.mult.items()):
            lines.append(f"edge: {names[u]} {names[v]} {k}")
        chips = " ".join(f"{names[v]}={c}" for v, c in enumerate(game.init))
        lines.append("chips: " + chips)
    else:
        for c in game.colours:
            layer = sorted(game.graph.layers[c].items())
            if not layer:  # an edge of multiplicity 0 declares an edgeless colour
                layer = [((0, 0), 0)]
            for (u, v), k in layer:
                lines.append(f"edge: {names[u]} {names[v]} {k} colour={c}")
        entries = []
        for v in range(game.graph.n):
            parts = [
                f"{game.init[c][v]}@{c}" for c in game.colours if game.init[c][v]
            ]
            if parts:
                entries.append(f"{names[v]}=" + ",".join(parts))
        if entries:
            lines.append("chips: " + " ".join(entries))
    return "\n".join(lines) + "\n"


def parse_lattice(text: str, path: str = "<string>") -> Lattice:
    """Parse a lattice file in one pass over its lines; cover lines, nearly
    all of a file, are tested first."""
    labels: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    covers = []
    for lineno, keyword, rest in _keyword_lines(text, path):
        if keyword == "cover":
            if labels is None:
                raise ParseError("cover before elements line", path, lineno)
            tokens = rest.split()
            if len(tokens) != 2:
                raise ParseError("cover needs 'cover: LOW HIGH'", path, lineno)
            lo, hi = index.get(tokens[0]), index.get(tokens[1])
            if lo is None or hi is None:
                name = tokens[0] if lo is None else tokens[1]
                raise ParseError(f"unknown element {name!r}", path, lineno)
            if lo == hi:
                raise ParseError(f"element {tokens[0]!r} cannot cover itself", path, lineno)
            covers.append((lo, hi))
        elif keyword == "elements":
            if labels is not None:
                raise ParseError("duplicate elements line", path, lineno)
            tokens = rest.split()
            if len(set(tokens)) != len(tokens):
                raise ParseError("duplicate element name", path, lineno)
            labels = tuple(tokens)
            index = {x: i for i, x in enumerate(labels)}
        else:
            raise ParseError(f"unknown keyword {keyword!r}", path, lineno)
    if labels is None:
        raise ParseError("missing elements line", path)
    try:
        return Lattice.from_covers(len(labels), covers, labels=labels)
    except ValueError as exc:
        # NotALatticeError passes through; a cycle becomes a parse error
        if isinstance(exc, NotALatticeError):
            raise
        raise ParseError(str(exc), path) from None


def parse_lattice_file(path) -> Lattice:
    with open(path, encoding="utf-8") as handle:
        return parse_lattice(handle.read(), path=str(path))


def serialize_lattice(lattice: Lattice) -> str:
    lines = ["elements: " + " ".join(_writable(lattice.labels, "label"))]
    for lo, hi in lattice.cover_pairs:
        lines.append(f"cover: {lattice.labels[lo]} {lattice.labels[hi]}")
    return "\n".join(lines) + "\n"


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name, header, rows) -> str:
    """A digraph: its header lines, then ``rows``, each a ready node line
    ``  n{x} [attrs];`` or edge line ``  n{lo} -> n{hi} [attrs];``, nodes
    first."""
    return "\n".join([f"digraph {name} {{", *[f"  {line};" for line in header], *rows, "}\n"])


def space_to_dot(space: ConfigSpace) -> str:
    """Hasse diagram of a configuration space, initial state at the bottom.

    Each vertex name is escaped once. A shot label holds only names,
    ``{},:`` and digits, and escaping changes none but ``"`` and ``\\``, so
    when no name changes neither does a label: it is quoted as it stands.
    The edges are read off ``ups`` and ``move_masks``, the k-th upper cover
    of a state firing its k-th highest move.
    """
    names = space.names
    quoted = [_quote(name) for name in names]
    if all(q[1:-1] == name for q, name in zip(quoted, names)):
        rows = [f'  n{x} [label="{label}"];' for x, label in enumerate(space.labels)]
    else:
        rows = [f"  n{x} [label={_quote(label)}];" for x, label in enumerate(space.labels)]
    fired = [f" [label={q}];" for q in quoted]  # the tail of an edge line firing v: fired[v]
    for lo, (ups, mask) in enumerate(zip(space.ups, space.move_masks)):
        head = f"  n{lo} -> n"
        for hi in ups:
            v = mask.bit_length() - 1
            mask ^= 1 << v
            rows.append(f"{head}{hi}{fired[v]}")
    return _dot("configuration_space", ("rankdir=BT", "node [shape=box]"), rows)


def lattice_to_dot(lattice: Lattice, edge_labels=False) -> str:
    """Hasse diagram, bottom-up; covers carry the edge labelling (which
    labels every cover) when asked, else the lattice's own cover labels.
    Each label is escaped once, and the edges are read off ``_upper_covers``."""
    quoted = [_quote(label) for label in lattice.labels]
    if edge_labels:
        labelling = {c: quoted[m] for c, m in lattice.edge_labels().items()}
    else:
        cover_labels = lattice.cover_labels
        escaped = {label: _quote(label) for label in set(cover_labels.values())}
        labelling = {c: escaped[label] for c, label in cover_labels.items()}
    rows = [f"  n{x} [label={q}];" for x, q in enumerate(quoted)]
    for lo, ups in enumerate(lattice._upper_covers):
        for hi in ups:
            q = labelling.get((lo, hi))
            rows.append(f"  n{lo} -> n{hi};" if q is None else f"  n{lo} -> n{hi} [label={q}];")
    return _dot("lattice", ("rankdir=BT", "node [shape=box]"), rows)


def coloured_game_to_dot(game: ColouredCfg, state=None) -> str:
    """The coloured support graph; open vertices of a state are filled grey."""
    opened = state.opened if state is not None else frozenset()
    rows = []
    for v, name in enumerate(game.graph.names):
        fill = ", style=filled, fillcolor=gray85" if v in opened else ""
        rows.append(f"  n{v} [label={_quote(name)}{fill}];")
    for ci, c in enumerate(game.colours):
        attrs = f"label={_quote(str(c))}, color={_PALETTE[ci % len(_PALETTE)]}"
        for (u, v), k in sorted(game.graph.layers[c].items()):
            rows += [f"  n{u} -> n{v} [{attrs}];"] * k
    return _dot("coloured_game", ("node [shape=circle]",), rows)
