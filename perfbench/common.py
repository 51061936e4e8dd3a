"""Shared pieces of the benchmark: paths, run context, outcomes and the
speed calibration that every gated timing is scaled by."""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh-interpreter start-ups timed per set-up measurement.  One takes
#: about a second, and its time swings by up to a third from one to the
#: next.
SETUP_REPEATS = 7
#: Invocations per run of a CLI workload, at the least.  One takes
#: seconds; on the host README.md names, the run-to-run spread of the
#: median of three is no wider than that of four or five, because what
#: is left is the host's drift over tens of seconds, which more
#: invocations do not even out; :class:`Speed` addresses it instead.
MIN_INVOCATIONS = 3
#: Calibrations after each invocation (one takes a fifth of a second).
CALIBRATIONS_PER_INVOCATION = 3
#: Median wall time of :func:`calibration_s` on the reference host, the
#: one README.md names.  Gated timings are scaled to that host's speed
#: (see :class:`Speed`).
REFERENCE_CALIBRATION_S = 0.2

_COLD_START = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import repro.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = repro.cli.main(sys.argv[2:])\n"
    "sys.exit(0 if code in (0, 1) else 10 + code)\n"
)


@dataclass
class Outcome:
    """What one workload (or one traced layer group) measured."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit, samples)
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: Figures printed beside the metrics but kept out of the JSON line.
    extras: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (value, unit, samples)

    def extra(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.extras[name] = (value, unit, samples)

    def fail(self, message: str) -> None:
        self.correct = False
        self.notes.append(f"MISMATCH: {message}")

    def merge(self, other: "Outcome") -> None:
        self.correct = self.correct and other.correct
        self.attempted += other.attempted
        self.failed += other.failed
        self.metrics.update(other.metrics)
        self.extras.update(other.extras)
        self.notes.extend(other.notes)


@dataclass
class Context:
    """Paths, seed and limits shared by the workloads of one run."""

    seed: int
    seconds: float
    tmp: Path
    nproc: int
    env: dict[str, str]
    #: Every span recorded in this run, written out when it ends.
    spans: list[dict] = field(default_factory=list)

    def child(self, args: list[str], timeout: float = 120) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=self.env, timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def make_inputs(self, workload: str) -> Path:
        """Generate a workload's inputs in a child process.

        The child keeps the generator's memory out of this process's
        peak resident set.
        """
        out = self.tmp / workload
        out.mkdir()
        done = self.child([str(HERE / "hotel.py"), workload, str(self.seed),
                           str(out)])
        if done.returncode != 0:
            raise RuntimeError(f"input generation failed: {done.stderr}")
        return out

    def cold_start(self, argv: list[str]) -> float:
        """Wall time of a fresh interpreter importing ``repro.cli`` and
        running one warm-up invocation of ``argv``."""
        start = time.perf_counter()
        done = self.child(["-c", _COLD_START, str(SRC), *argv])
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(
                f"warm-up {argv[0]} exited {done.returncode}: {done.stderr}")
        return wall


def calibration_s() -> float:
    """Wall time of a fixed piece of work that shares no code with ``repro``.

    It mixes interpreter work (hashing, list appends) with numpy sorts,
    as the program does.  On a host whose processor speed drifts, its
    time drifts with the program's.
    """
    import numpy as np

    gc.collect()
    values = np.random.default_rng(0).random(300_000)
    start = time.perf_counter()
    rng = random.Random(0)
    groups: dict[int, list[int]] = {}
    for i in range(60_000):
        groups.setdefault(rng.randrange(3000), []).append(i)
    for _ in range(3):
        np.unique(np.argsort(values, kind="stable") % 977, return_counts=True)
    return time.perf_counter() - start


class Speed:
    """The host's speed during one run, from calibrations between its
    measured operations.

    The processor of a shared host runs up to half as fast for minutes
    at a time, as the load beside it changes; a slow phase stretches
    the calibration as it stretches the program.  Gated timings are
    therefore scaled to the reference host: multiplied by
    ``REFERENCE_CALIBRATION_S`` over the run's median calibration time.
    Two runs then compare the program rather than the moment.  The
    median of many short calibrations spread over the run follows
    phases of tens of seconds and evens out sub-second swings.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def calibrate(self, times: int = 1) -> None:
        self.samples += [calibration_s() for _ in range(times)]

    def factor(self) -> float:
        return REFERENCE_CALIBRATION_S / median(self.samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def invoke_cli(argv: list[str]) -> tuple[int, str, float]:
    """``repro.cli.main(argv)`` in this process: exit code, output, wall s.

    Garbage left by an earlier invocation is collected first, as if each
    invocation ran in a fresh process, so neither its memory nor a
    collection it triggers falls into this one's measurement.
    """
    from repro.cli import main

    gc.collect()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def report_timed(outcome: Outcome, speed: Speed, setup: list[float],
                 ops: list[float], rows: int, work_s: float,
                 peak_mb: float) -> None:
    """The gated end-to-end metrics of one run.

    ``setup`` are the set-up wall times, ``ops`` the wall times of the
    workload's unit of work and ``work_s`` the wall time it took to
    process ``rows`` input rows, all scaled by ``speed``; ``peak_mb`` is
    the peak resident set at the end of the measured phase.
    """
    factor = speed.factor()
    outcome.metric("setup_s", median(setup) * factor, "s", len(setup))
    outcome.metric("peak_rss_mb", peak_mb, "MB")
    outcome.metric("op_p50_ms", median(ops) * factor * 1e3, "ms", len(ops))
    outcome.metric("rows_per_s", rows / (work_s * factor), "rows/s", len(ops))
    outcome.extra("calibration_s", median(speed.samples), "s",
                  len(speed.samples))
    outcome.extra("failed_ratio", outcome.failed / outcome.attempted, "ratio",
                  outcome.attempted)


def measure_cli(ctx: Context, outcome: Outcome, argv: list[str],
                warm_argv: list[str], rows: int, verify) -> list[float]:
    """Time ``repro`` invocations of ``argv`` in this process.

    Set-up is timed in fresh interpreters running ``warm_argv``; one
    in-process warm-up follows.  Then ``argv`` runs until the
    invocations have taken ``ctx.seconds`` and at least
    ``MIN_INVOCATIONS`` times, each result handed to
    ``verify(code, output)``.  The host's speed is calibrated after
    every cold start and invocation.  Returns the wall time of each
    invocation as measured.
    """
    speed = Speed()
    setup: list[float] = []
    for _ in range(SETUP_REPEATS):
        setup.append(ctx.cold_start(warm_argv))
        speed.calibrate()
    invoke_cli(warm_argv)
    walls: list[float] = []
    while len(walls) < MIN_INVOCATIONS or sum(walls) < ctx.seconds:
        code, output, wall = invoke_cli(argv)
        verify(code, output)
        walls.append(wall)
        speed.calibrate(CALIBRATIONS_PER_INVOCATION)
    report_timed(outcome, speed, setup, walls, rows, median(walls),
                 peak_rss_mb())
    return walls
