"""Benchmark of ``repro check``, changefeed ingest and ``repro profile``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload check_csv --seed 1 --seconds 10 --trace 0

``--trace 0`` measures one workload (or, with ``--workload all``, each in
turn) end to end and prints its metrics;
``--trace 1`` replays the layer calls of all three workloads under spans
and prints the per-layer metrics (see ``perfbench/README.md``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from common import ROOT, SRC, Context, Outcome, usable_cores

WORKLOADS = ("check_csv", "ingest_window", "profile_discover")


def _import_repro() -> None:
    """Import the checkout's ``repro``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


def _environment() -> str:
    import numpy

    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={usable_cores()}")


def _print_report(title: str, outcome: Outcome) -> None:
    print(f"# perfbench {title} {_environment()}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit, samples) in {**outcome.metrics,
                                         **outcome.extras}.items():
        print(f"{name:<48} {value:>14.6g} {unit:<8} n={samples}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # Production defaults only: no mode switch reaches this process or
    # the interpreters it starts.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    _import_repro()

    # A terminated run still removes its inputs and stops its servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    ctx = Context(args.seed, args.seconds, tmp, usable_cores(), env)
    try:
        if args.trace:
            outcome = Outcome()
            for name in WORKLOADS:
                outcome.merge(importlib.import_module(name).trace(ctx))
            title = f"traced layers seed={args.seed}"
            spans = ROOT / ".perfbench-out" / f"spans-seed{args.seed}.json"
            spans.parent.mkdir(exist_ok=True)
            spans.write_text(json.dumps(ctx.spans) + "\n", encoding="utf-8")
        elif args.workload == "all":
            # One run of every workload; metric names take its prefix.
            outcome = Outcome()
            for name in WORKLOADS:
                part = importlib.import_module(name).run(ctx)
                part.metrics = {f"{name}.{k}": v for k, v in part.metrics.items()}
                part.extras = {f"{name}.{k}": v for k, v in part.extras.items()}
                outcome.merge(part)
            title = f"all workloads seed={args.seed}"
        else:
            outcome = importlib.import_module(args.workload).run(ctx)
            title = f"{args.workload} seed={args.seed}"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _print_report(title, outcome)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
