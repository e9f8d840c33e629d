"""Chip-firing games, their configuration-space lattices, and lattice-to-game
synthesis (classical and coloured)."""

from .coloured import ColouredCfg, ColouredState, from_classical
from .engine import Cfg, ConfigSpace, FixpointRun
from .errors import (
    CapExceeded,
    DetectorDisagreement,
    FiringVectorConflict,
    NotALatticeError,
    ParseError,
    StateCapExceeded,
    StepCapExceeded,
)
from .lattice import (
    ArrowPartition,
    ArrowRelations,
    ArrowWitnessReport,
    Lattice,
    Poset,
    arrow_witness_report,
    find_isomorphism,
    ideal_lattice,
    is_isomorphic,
)
from .multigraph import ColouredMultigraph, Multigraph
from .transforms import (
    SplitReport,
    cfg_from_distributive,
    coloured_from_uld,
    coloured_ideal_game,
    distributive_map,
    interval_cfg,
    is_hasse_isomorphism,
    simplify,
    split_map,
    split_vertex,
    uld_map,
)

__version__ = "0.1.0"

__all__ = [
    "ArrowPartition",
    "ArrowRelations",
    "ArrowWitnessReport",
    "CapExceeded",
    "Cfg",
    "ColouredCfg",
    "ColouredMultigraph",
    "ColouredState",
    "ConfigSpace",
    "DetectorDisagreement",
    "FiringVectorConflict",
    "FixpointRun",
    "Lattice",
    "Multigraph",
    "NotALatticeError",
    "ParseError",
    "Poset",
    "SplitReport",
    "StateCapExceeded",
    "StepCapExceeded",
    "arrow_witness_report",
    "cfg_from_distributive",
    "coloured_from_uld",
    "coloured_ideal_game",
    "distributive_map",
    "find_isomorphism",
    "from_classical",
    "ideal_lattice",
    "interval_cfg",
    "is_hasse_isomorphism",
    "is_isomorphic",
    "simplify",
    "split_map",
    "split_vertex",
    "uld_map",
]
