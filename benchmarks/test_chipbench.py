"""Tests of the benchmark itself: seeded generators, oracles, and a smoke run.

Run with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from chipbench import harness, oracles, workloads  # noqa: E402

WORKLOADS = ("sandpile", "space", "roundtrip")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _contents(blocks, workdir):
    """Each op's argv with the work directory masked, plus its input file."""
    out = []
    for op in (op for block in blocks for op in block):
        with open(op.argv[1], encoding="utf-8") as handle:
            text = handle.read()
        out.append((tuple(a.replace(workdir, "<w>") for a in op.argv), op.kind, op.units, text))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_for_a_seed(workload, tmp_path):
    a, b, c = (str(tmp_path / x) for x in "abc")
    for d in (a, b, c):
        os.makedirs(d)
    first = _contents(workloads.generate(workload, 7, 1, a), a)
    again = _contents(workloads.generate(workload, 7, 1, b), b)
    other = _contents(workloads.generate(workload, 8, 1, c), c)
    assert first == again
    assert first != other
    # a block does not depend on how many blocks are generated
    longer = workloads.generate(workload, 7, 2, c)
    assert _contents(longer[:1], c) == first


def _first(workload, kind_prefix, tmp_path):
    blocks = workloads.generate(workload, 3, 1, str(tmp_path))
    op = next(op for op in blocks[0] if op.kind.startswith(kind_prefix))
    took, rc, out, err, error = harness.invoke(op.argv)
    assert error is None
    assert op.check(rc, out, err) is None, "the seed program must pass its oracle"
    return op, rc, out, err


def _flip_first_count(line):
    head, rest = line.split(": ", 1)
    items = rest.split()
    name, value = items[0].split("=")
    items[0] = f"{name}={int(value) + 1}"
    return f"{head}: " + " ".join(items)


@pytest.mark.parametrize("which", ["final:", "fired:"])
def test_sandpile_oracle_rejects_a_flipped_chip_count(which, tmp_path):
    op, rc, out, err = _first("sandpile", "run-", tmp_path)
    bad = "\n".join(
        _flip_first_count(line) if line.startswith(which) else line for line in out.splitlines()
    ) + "\n"
    assert op.check(rc, bad, err) is not None
    assert op.check(1, out, err) is not None


def test_space_oracle_rejects_a_wrong_distributive_line(tmp_path):
    op, rc, out, err = _first("space", "space-", tmp_path)
    flipped = out.replace("distributive: no", "distributive: X").replace(
        "distributive: yes", "distributive: no").replace("distributive: X", "distributive: yes")
    assert flipped != out
    assert op.check(rc, flipped, err) is not None


def test_space_oracle_rejects_a_short_dot_file(tmp_path):
    blocks = workloads.generate("space", 3, 1, str(tmp_path))
    op = next(op for op in blocks[0] if op.kind.endswith("-dot"))
    took, rc, out, err, error = harness.invoke(op.argv)
    assert op.check(rc, out, err) is None
    dot = op.argv[op.argv.index("--dot") + 1]
    with open(dot, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    del lines[max(i for i, line in enumerate(lines) if " -> " in line)]
    with open(dot, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    assert op.check(rc, out, err) is not None


def test_check_oracle_rejects_wrong_irreducible_counts(tmp_path):
    op, rc, out, err = _first("roundtrip", "check-", tmp_path)
    assert op.check(rc, out.replace("|J|: ", "|J|: 1"), err) is not None
    assert op.check(rc, out.replace("ULD: yes", "ULD: no", 1), err) is not None


@pytest.mark.parametrize("mode", ["synth-distributive", "synth-uld"])
def test_synth_oracle_rejects_a_corrupted_game(mode, tmp_path):
    op, rc, out, err = _first("roundtrip", mode, tmp_path)
    dest = op.argv[op.argv.index("-o") + 1]
    with open(dest, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    # without chips nothing fires or opens: the space shrinks to one element
    with open(dest, "w", encoding="utf-8") as handle:
        handle.write("\n".join(line for line in lines if not line.startswith("chips:")) + "\n")
    assert op.check(rc, out, err) is not None
    assert op.check(rc, out, err.replace("round-trip: isomorphic", "round-trip: NOT isomorphic")) is not None


def test_simplify_oracle_rejects_a_missing_verdict_and_a_non_simple_game(tmp_path):
    op, rc, out, err = _first("roundtrip", "simplify", tmp_path)
    assert op.check(rc, out, err.replace("isomorphic: yes", "isomorphic: no")) is not None
    dest = op.argv[op.argv.index("-o") + 1]
    shutil.copy(op.argv[1], dest)  # the original game is not simple
    assert op.check(rc, out, err) is not None


def test_independent_explorers_match_known_spaces():
    funnel = "vertices: a b c d\nedge: a c 1\nedge: b c 1\nedge: c d 2\nchips: a=1 b=1 c=1 d=0\n"
    assert oracles.classical_space(funnel) == (7, [1, 1, 1, 0])
    gate = (
        "vertices: a b c bot\n"
        "edge: a c 1 colour=1\nedge: c bot 1 colour=1\nedge: b c 1 colour=2\n"
        "edge: c bot 1 colour=2\nedge: a bot 1 colour=3\nedge: b bot 1 colour=4\n"
        "chips: a=1@1,1@3 b=1@2,1@4\n"
    )
    assert oracles.coloured_space_size(gate) == 7


def _printed(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_named_metric(trace, capsys, monkeypatch):
    monkeypatch.setattr(harness, "MIN_OPS", 7)
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    assert run.main(["--workload", "sandpile", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    text, result = _printed(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert any(line.startswith(f"sandpile {name} = ") and "(n=" in line for line in text)
    assert any(line.startswith("sandpile failed_ratio = 0 ") for line in text)
    if trace:
        shares = sum(result["metrics"][f"{layer}.share"]["value"] for layer in
                     ("cli", "formats", "multigraph", "engine", "lattice", "transforms", "coloured"))
        assert shares == pytest.approx(1.0, abs=0.02)
        assert result["metrics"]["engine.share"]["value"] > 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sandpile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
