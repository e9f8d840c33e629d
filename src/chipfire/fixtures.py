"""Bundled example games and lattices, shipped as data files.

- ``funnel``: 4-vertex simple game whose 7-element space is ULD but not
  distributive (it contains a pentagon).
- ``relay_chain``: smallest natural non-simple game (one vertex fires twice,
  the next four times).
- ``gated_cube``: 23-element union-closed family, the stock example of a ULD
  lattice with one more join- than meet-irreducible.
- ``shared_gate`` / ``split_track``: coloured games; the first realizes the
  funnel's 7-element space, the second the full 3x3 grid of ideals.
"""

from __future__ import annotations

from importlib import resources

from .formats import parse_game, parse_lattice
from .lattice import Lattice


def _read(name: str) -> str:
    return resources.files("chipfire.data").joinpath(name).read_text(encoding="utf-8")


def funnel_game():
    return parse_game(_read("funnel.cfg"), path="funnel.cfg")


def relay_chain_game():
    return parse_game(_read("relay_chain.cfg"), path="relay_chain.cfg")


def shared_gate_game():
    return parse_game(_read("shared_gate.ccfg"), path="shared_gate.ccfg")


def split_track_game():
    return parse_game(_read("split_track.ccfg"), path="split_track.ccfg")


def gated_cube_lattice() -> Lattice:
    return parse_lattice(_read("gated_cube.lat"), path="gated_cube.lat")


def pentagon() -> Lattice:
    """N5: the smallest non-modular lattice; not ranked, not ULD."""
    covers = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
    return Lattice.from_covers(5, covers, labels=("0", "x", "y", "z", "1"))


def diamond() -> Lattice:
    """M3: three incomparable atoms below a common top; the classic
    distributivity failure."""
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return Lattice.from_covers(5, covers, labels=("0", "x", "y", "z", "1"))
