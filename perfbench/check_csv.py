"""Workload ``check_csv``: ``repro check`` of a hotel CSV against nine rules.

The batch path: CSV parsing, encoding and the pair kernels with verify
do the work; the server, durability and discovery layers do none.
"""

from __future__ import annotations

import gc
import io
import json
import re
import time
from statistics import mean, median

import hotel
from common import Context, Outcome, invoke_cli, measure_cli
from tracing import Tracer, counter_delta, read_counters

RULE_IDS = tuple(rule["id"] for rule in hotel.check_rules("", ""))
STRATEGIES = ("group", "sweep", "metric")

_STATUS = re.compile(r"^\[(FAIL|ok|skip|error|partial)\]")
_COUNT = re.compile(r": (\d+) violations$")


def _argv(inputs, stem: str = "data") -> list[str]:
    return ["check", str(inputs / f"{stem}.csv"),
            "--rules", str(inputs / f"{stem}_rules.json")]


def _reported_counts(output: str) -> list[int | None]:
    """Violations per rule, in rule-file order, from the check report."""
    counts: list[int | None] = []
    for line in output.splitlines():
        status = _STATUS.match(line)
        if status is None:
            continue
        if status.group(1) == "FAIL":
            counts.append(int(_COUNT.search(line).group(1)))
        elif status.group(1) == "ok":
            counts.append(0)
        else:
            counts.append(None)
    return counts


def _verify(outcome: Outcome, code: int, counts: list, expected: dict) -> None:
    outcome.attempted += 1
    want = [expected["violations"][rid] for rid in RULE_IDS]
    if code != 1 or counts != want:
        outcome.failed += 1
        outcome.fail(f"repro check exited {code} with per-rule counts "
                     f"{counts}; expected 1 and {want}")


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    inputs = ctx.make_inputs("check_csv")
    expected = json.loads((inputs / "expected.json").read_text())
    walls = measure_cli(
        ctx, outcome, _argv(inputs), _argv(inputs, "warm"), expected["rows"],
        lambda code, output: _verify(outcome, code, _reported_counts(output),
                                     expected))
    outcome.extra("check_rows_per_s", expected["rows"] / median(walls),
                  "rows/s", len(walls))
    return outcome


def _replay(tracer: Tracer, inputs) -> dict[str, int | None]:
    """The steps of ``cmd_check``, each layer call under its own span.

    Two steps are split out of the rule loop so their cost shows apart:
    the dictionary encoding of every column is forced before the first
    rule, and every rule's plan is compiled before any rule runs.
    """
    from repro.analysis import screen_rules
    from repro.cli import _detect_schema
    from repro.plan import PlanCompileError, plan_for
    from repro.relation.io import read_csv
    from repro.rules_io import load_rules

    path = str(inputs / "data.csv")
    counts: dict[str, int | None] = {}
    report = io.StringIO()
    with tracer.span("cli.check"):
        with tracer.span("rules_io.load_rules"):
            rules = load_rules(inputs / "data_rules.json")
        with tracer.span("cli.detect_schema"):
            schema = _detect_schema(path, set(), set())
        with tracer.span("relation.io.read_csv"):
            relation = read_csv(path, schema)
        with tracer.span("analysis.screen_rules"):
            skipped = screen_rules(rules)
        with tracer.span("relation.encoding.encode"):
            encoding = relation.encoding()
            for j in range(len(relation.schema)):
                encoding.column_codes(j)
        for dep in rules:
            with tracer.span("plan.compile"):
                try:
                    plan_for(dep)
                except PlanCompileError:
                    pass  # a CFD is evaluated without a pair plan
        for idx, (rid, dep) in enumerate(zip(RULE_IDS, rules)):
            if idx in skipped:
                counts[rid] = None
                continue
            dep.validate_schema(relation.schema)
            with tracer.span(f"rule.{rid}.violations"):
                violations = dep.violations(relation)
            counts[rid] = len(violations)
            with tracer.span("cli.report"):
                if violations:
                    report.write(f"[FAIL] {dep}: {len(violations)} violations\n  "
                                 + violations.summary(limit=5)
                                 .replace("\n", "\n  ") + "\n")
                else:
                    report.write(f"[ok]   {dep}\n")
    return counts


def trace(ctx: Context) -> Outcome:
    outcome = Outcome()
    inputs = ctx.make_inputs("check_csv")
    expected = json.loads((inputs / "expected.json").read_text())
    invoke_cli(_argv(inputs, "warm"))

    # The tracing overhead compares the same replay with spans off and
    # on; the traced replay sits between two untraced ones, so a drift
    # of the host's speed during the three cancels out.
    tracer = Tracer(f"check_csv-{ctx.seed}")
    off = Tracer("", enabled=False)
    walls: dict[bool, list[float]] = {True: [], False: []}
    for spans in (off, tracer, off):
        gc.collect()
        before = read_counters()
        start = time.perf_counter()
        counts = _replay(spans, inputs)
        walls[spans.enabled].append(time.perf_counter() - start)
        if spans.enabled:
            work = counter_delta(read_counters(), before)
        _verify(outcome, 1, [counts[rid] for rid in RULE_IDS], expected)
    ctx.spans.extend(tracer.spans)

    self_times = tracer.self_times()
    names = ["cli.detect_schema", "relation.io.read_csv",
             "relation.encoding.encode", "analysis.screen_rules",
             "plan.compile", "cli.report"]
    names += [f"rule.{rid}.violations" for rid in RULE_IDS]
    for name in names:
        seconds, calls = self_times.get(name, (0.0, 0))
        outcome.metric(f"{name}_s", seconds, "s", calls)
    for rid in RULE_IDS:
        outcome.metric(f"rule.{rid}.violations", counts[rid] or 0, "count")
    outcome.metric("plan.pairs_examined", work["pairs_examined"], "count")
    outcome.metric("plan.pairs_total", work["pairs_total"], "count")
    for strategy in STRATEGIES:
        cands = sum(v for k, v in work["candidates"].items()
                    if k.removeprefix("vec-") == strategy)
        hits = sum(v for k, v in work["verified"].items()
                   if k.removeprefix("vec-") == strategy)
        outcome.metric(f"plan.verified_ratio.{strategy}",
                       hits / cands if cands else 0.0, "ratio", cands)
    outcome.metric("trace.check_csv.overhead_s",
                   walls[True][0] - mean(walls[False]), "s")
    return outcome
