"""Every name the benchmark's tracer wraps must exist in the library.

``benchmarks/chipbench/tracer.py`` lists its targets as ``(module, owner,
names, bucket, counter)`` and patches each one by name when it is installed;
a target renamed or deleted in ``chipfire`` would otherwise show only as a
``KeyError`` inside the benchmark's traced smoke run. The table is read, not
changed.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from chipbench.tracer import TARGETS  # noqa: E402


def test_every_tracer_target_resolves():
    missing = []
    for module_name, owner, names, _bucket, _count in TARGETS:
        module = importlib.import_module(f"chipfire.{module_name}")
        scope = module if owner is None else getattr(module, owner, None)
        members = vars(scope) if scope is not None else {}
        missing += [(module_name, owner, name) for name in names if name not in members]
    assert missing == [], f"tracer targets missing from chipfire: {missing}"
