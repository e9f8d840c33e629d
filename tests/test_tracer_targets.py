"""Every name the benchmark's tracer wraps must exist in the library, and a
traced op must count what the tracer counts.

``benchmarks/chipbench/tracer.py`` lists its targets as ``(module, owner,
names, bucket, counter)`` and patches each one by name when it is installed;
a target renamed or deleted in ``chipfire`` would otherwise show only as a
``KeyError`` inside the benchmark's traced smoke run. Its move counters read
``len(space.covers)`` of every enumerated space, which only traced ``space``
and round-trip ops reach, so one of each runs here under the tracer. The
tracer is used as it is, not changed.
"""

import importlib
import sys
from pathlib import Path

from chipfire import cli
from chipfire.coloured import ColouredCfg
from chipfire.engine import Cfg

from helpers import data_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from chipbench.tracer import TARGETS, Tracer  # noqa: E402


def test_every_tracer_target_resolves():
    missing = []
    for module_name, owner, names, _bucket, _count in TARGETS:
        module = importlib.import_module(f"chipfire.{module_name}")
        scope = module if owner is None else getattr(module, owner, None)
        members = vars(scope) if scope is not None else {}
        missing += [(module_name, owner, name) for name in names if name not in members]
    assert missing == [], f"tracer targets missing from chipfire: {missing}"


def test_traced_ops_count_every_cover(monkeypatch, capsys):
    """``space``, ``space --coloured``, ``synth --mode uld`` and ``simplify``
    under the tracer: its transitions and openings are the covers of the
    spaces the ops built, and no traced call raised."""
    built = []

    def recording(enumerate_space):
        def record(self, *args, **kwargs):
            built.append(enumerate_space(self, *args, **kwargs))
            return built[-1]

        return record

    for owner in (Cfg, ColouredCfg):
        monkeypatch.setattr(owner, "enumerate_space", recording(owner.enumerate_space))
    ops = [
        ["space", data_path("relay_chain.cfg")],
        ["space", "--coloured", data_path("shared_gate.ccfg")],
        ["synth", data_path("gated_cube.lat"), "--mode", "uld"],
        ["simplify", data_path("relay_chain.cfg")],
    ]
    tracer = Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in ops]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(ops)
    assert not tracer.errors
    assert len(built) == 5  # simplify enumerates the game and the simple game
    counts = tracer.counts
    assert counts["engine.transitions"] and counts["coloured.openings"]
    moves = sum(len(row) for space in built for row in space.ups)
    assert counts["engine.transitions"] + counts["coloured.openings"] == moves
    assert counts["engine.states"] + counts["coloured.states"] == sum(map(len, built))
