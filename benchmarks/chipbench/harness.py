"""Closed-loop runner: one client, the next op starts when the last returns.

Ops are whole ``chipfire.cli.main(argv)`` calls with stdout and stderr
captured; their outputs are checked outside the timed region. Runs stop at
a block boundary once the time budget is spent (and, untraced, once at least
``MIN_OPS`` ops have run), so every run measures whole blocks. Untraced runs
time a machine-speed probe around every op (see ``probe``).
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

from . import workloads
from .probe import Probe, scaled

MIN_OPS = 100
# rough seconds per block on a 2-core 2.1 GHz Xeon; only sizes how many blocks are
# generated up front (runs that need more cycle through them again)
BLOCK_SECONDS = {"sandpile": 0.8, "space": 4.5, "roundtrip": 3.0}
SETUP_REPS = 9
# about ten times the slowest op; a program that hangs fails the op and ends
# the run instead of running past the time limit
OP_LIMIT_S = 20.0


class OpTimeout(Exception):
    """An op ran past OP_LIMIT_S; the run stops after it."""


def _expire(signum, frame):
    raise OpTimeout(f"no result within {OP_LIMIT_S} s")


def _timed_out(error) -> bool:
    return bool(error) and error.startswith(OpTimeout.__name__)


def invoke(argv):
    """Run one CLI op; returns (seconds, exit code, stdout, stderr, error)."""
    from chipfire import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    previous = signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - an op failure, recorded below
            rc, error = -1, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    took = time.perf_counter() - start
    return took, rc, out.getvalue(), err.getvalue(), error


def verdict(op, rc, out, err, error):
    """None when the op succeeded and its output passed the oracle."""
    if error is not None:
        return error
    if rc == 3:
        return "cap exceeded"
    try:
        return op.check(rc, out, err)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the op, not the run
        return f"oracle could not read the output: {type(exc).__name__}: {exc}"


def setup_once(root: str, env: dict) -> float:
    """Wall time from a fresh interpreter to ``chipfire.cli`` imported with its
    parser built."""
    code = "import chipfire.cli as c; c.build_parser()"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
    return time.perf_counter() - start


def plan_blocks(workload: str, seconds: float) -> int:
    return max(2, int(seconds / BLOCK_SECONDS[workload]) + 2)


def run_untraced(blocks, seconds, measure_setup):
    """Time whole blocks until the budget and MIN_OPS are both reached.

    A machine-speed probe runs between consecutive ops, so each op and each
    set-up sample is recorded as (seconds, probe before, probe after).
    Set-up is measured SETUP_REPS times, spread over the run between blocks.
    """
    probe = Probe()
    samples, units, failures, setup = [], [], [], []

    def timed(measure):
        before = probe()
        took = measure()
        return took, before, probe()

    start = time.perf_counter()
    b, stop = 0, False
    while not stop and (b == 0 or time.perf_counter() - start < seconds
                        or len(samples) < MIN_OPS):
        for op in blocks[b % len(blocks)]:
            if stop:
                break
            (took, rc, out, err, error), before, after = timed(lambda: invoke(op.argv))
            reason = verdict(op, rc, out, err, error)
            samples.append((took, before, after))
            units.append(op.units if reason is None else 0)
            if reason is not None:
                failures.append((op.kind, op.argv, reason))
                stop = stop or _timed_out(error)
        b += 1
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_REPS:
            setup.append(timed(measure_setup))
    while len(setup) < SETUP_REPS:
        setup.append(timed(measure_setup))
    return samples, units, setup, failures, b


def run_traced(blocks, seconds, tracer):
    """Run every op untraced and traced, alternating which goes first, so the
    two walls cover the same ops; time whole blocks until the budget."""
    walls = {False: 0.0, True: 0.0}
    attempted, failures = 0, []
    start = time.perf_counter()
    b, stop = 0, False
    while not stop and (b == 0 or time.perf_counter() - start < seconds):
        for i, op in enumerate(blocks[b % len(blocks)]):
            if stop:
                break
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.op += 1
                    tracer.install()
                try:
                    took, rc, out, err, error = invoke(op.argv)
                finally:
                    if traced:
                        tracer.uninstall()
                walls[traced] += took
                attempted += 1
                reason = verdict(op, rc, out, err, error)
                if reason is not None:
                    failures.append((op.kind, op.argv, reason))
                    stop = stop or _timed_out(error)
        b += 1
    return walls[True], walls[False], attempted, failures, b


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def end_to_end(samples, units, setup, scale=True):
    """Every end-to-end metric as {name: (value, unit, sample count)}.

    With ``scale`` each time is rescaled to the probe's reference speed;
    without, the raw wall times are used.
    """
    def times(rows):
        return [scaled(*row) if scale else row[0] for row in rows]

    ops, starts = times(samples), times(setup)
    n = len(ops)
    return {
        "units_per_s": (sum(units) / sum(ops), "units/s", n),
        "latency_p50_ms": (statistics.median(ops) * 1e3, "ms", n),
        "latency_p90_ms": (statistics.quantiles(ops, n=10, method="inclusive")[8] * 1e3, "ms", n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "setup_s": (statistics.median(starts), "s", len(starts)),
    }


def prepare(workload, seed, seconds, workdir):
    os.makedirs(workdir, exist_ok=True)
    blocks = workloads.generate(workload, seed, plan_blocks(workload, seconds), workdir)
    warm = blocks[0][0]
    took, rc, out, err, error = invoke(warm.argv)
    reason = verdict(warm, rc, out, err, error)
    return blocks, reason

