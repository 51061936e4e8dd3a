"""Workload ``profile_discover``: ``repro profile`` of a 2000-row table.

At 2000 rows the table sits at the profiler's cutoff for OD discovery,
so every pass runs.  The table plants exact FDs, an approximate FD, a
few hundred constant-CFD patterns and one monotone numeric pair.
Discovery reaches the relation substrate through partitions, the
partition cache and thousands of small rule checks rather than a few
large pair scans, so a change that helps ``check_csv`` but slows
discovery shows here.
"""

from __future__ import annotations

import gc
import json
import time
from statistics import mean, median

from common import Context, Outcome, invoke_cli, measure_cli
from tracing import Tracer, read_counters

#: Report category prefix -> metric key.
CATEGORIES = {
    "exact FDs": "exact_fd",
    "approximate FDs": "approx_fd",
    "soft FDs": "soft_fd",
    "constant CFDs": "constant_cfd",
    "order dependencies": "od",
    "sequential dependencies": "sd",
}


def _argv(inputs, stem: str = "data") -> list[str]:
    return ["profile", str(inputs / f"{stem}.csv")]


def _category(name: str) -> str:
    return next(key for prefix, key in CATEGORIES.items()
                if name.startswith(prefix))


def _cfd_key(rule) -> tuple:
    (lhs,), (rhs,) = rule.lhs, rule.rhs
    return (lhs, rule.pattern.entry(lhs).constant,
            rhs, rule.pattern.entry(rhs).constant)


def _summary(report) -> dict:
    """What the checks need from a report, as plain values: the rules it
    found (by category) and the rule count of each printed category."""
    found: dict[str, set] = {"exact_fd": set(), "approx_fd": set(),
                             "constant_cfd": set(), "od": set()}
    for r in report.rules:
        key = _category(r.category)
        if key in ("exact_fd", "approx_fd"):
            found[key].add((frozenset(r.rule.lhs), tuple(r.rule.rhs)))
        elif key == "constant_cfd":
            found[key].add(_cfd_key(r.rule))
        elif key == "od":
            found[key].add((r.rule.lhs[0].attribute, r.rule.rhs[0].attribute))
    return {"rows": len(report.relation), "found": found,
            "counts": {c: len(rs) for c, rs in report.by_category().items()}}


def _missing(found: dict[str, set], expected: dict) -> list[str]:
    """Planted dependencies absent from the report."""
    missing = [f"{key} {lhs}->{rhs}" for key in ("exact_fd", "approx_fd")
               for lhs, rhs in expected[key]
               if (frozenset(lhs), tuple(rhs)) not in found[key]]
    missing += [f"constant_cfd {cfd}" for cfd in expected["constant_cfd"]
                if tuple(cfd) not in found["constant_cfd"]]
    missing += [f"od {lhs}->{rhs}" for lhs, rhs in expected["od"]
                if (lhs, rhs) not in found["od"]]
    return missing


def _verify(outcome: Outcome, code: int, summary: dict, expected: dict,
            output: str | None = None) -> None:
    """The exit code and the planted rules, then the printed counts.

    The CLI prints only a few rules per category, so the full rule list
    comes from a report of the same profile; the category counts in
    ``output``, when given, must agree with it.
    """
    outcome.attempted += 1
    missing = _missing(summary["found"], expected)
    if code != 0 or missing or summary["rows"] != expected["rows"]:
        outcome.failed += 1
        outcome.fail(f"repro profile exited {code}; planted rules missing: "
                     f"{missing[:5]} ({len(missing)} in all)")
        return
    if output is None:
        return
    for category, count in summary["counts"].items():
        if f"{category} — {count} found:" not in output:
            outcome.failed += 1
            outcome.fail(f"repro profile output lacks '{category}' with "
                         f"{count} rules")
            return


def _profile(inputs):
    from repro.cli import load_relation
    from repro.profiler import profile_relation

    return profile_relation(load_relation(str(inputs / "data.csv")))


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    inputs = ctx.make_inputs("profile_discover")
    expected = json.loads((inputs / "expected.json").read_text())
    summary = _summary(_profile(inputs))
    walls = measure_cli(
        ctx, outcome, _argv(inputs), _argv(inputs, "warm"), expected["rows"],
        lambda code, output: _verify(outcome, code, summary, expected, output))
    outcome.extra("profile_s", median(walls), "s", len(walls))
    outcome.extra("profile.rules", sum(summary["counts"].values()), "count")
    return outcome


def _replay(tracer: Tracer, inputs):
    """The passes of ``profile_relation`` in their order, each under a span.

    Mirrors ``repro.profiler.profile_relation`` with its CLI defaults
    (epsilon 0.05, LHS size 2, CORDS strength 0.9, CFD support 3).
    """
    from repro.cli import load_relation
    from repro.discovery import (cords, discover_constant_cfds,
                                 discover_pairwise_ods, discover_sds, tane)
    from repro.profiler import ProfileReport, RuleReport

    with tracer.span("cli.profile"):
        with tracer.span("cli.load_relation"):
            relation = load_relation(str(inputs / "data.csv"))
        report = ProfileReport(relation)

        def add(category: str, deps) -> None:
            key = _category(category)
            for dep in deps:
                with tracer.span(f"profile.violations.{key}"):
                    count = len(dep.violations(relation))
                report.rules.append(RuleReport(dep, category, count))

        with tracer.span("discovery.tane"):
            exact = tane(relation, max_lhs_size=2)
        add("exact FDs (TANE)", exact)
        with tracer.span("discovery.tane_approx"):
            approx = tane(relation, max_lhs_size=2, epsilon=0.05)
        exact_strs = {str(d) for d in exact}
        add("approximate FDs (g3 <= 0.05)",
            [d for d in approx
             if f"{', '.join(d.lhs)} -> {', '.join(d.rhs)}" not in exact_strs])
        with tracer.span("discovery.cords"):
            soft = cords(relation, strength_threshold=0.9)
        exact_pairs = {(d.lhs, d.rhs) for d in exact if len(d.lhs) == 1}
        add("soft FDs (CORDS, strength >= 0.9)",
            [d for d in soft if (d.lhs, d.rhs) not in exact_pairs])
        with tracer.span("discovery.cfd"):
            cfds = discover_constant_cfds(relation, min_support=3,
                                          max_lhs_size=1)
        add("constant CFDs (support >= 3)", cfds)
        with tracer.span("discovery.od"):
            ods = discover_pairwise_ods(relation)
        add("order dependencies", ods)
        with tracer.span("discovery.sd"):
            sds = discover_sds(relation)
        add("sequential dependencies (fitted gaps)", sds)
    return report


def trace(ctx: Context) -> Outcome:
    outcome = Outcome()
    inputs = ctx.make_inputs("profile_discover")
    expected = json.loads((inputs / "expected.json").read_text())
    invoke_cli(_argv(inputs, "warm"))

    # The same replay with spans off, on and off again: the overhead is
    # the traced wall time minus the mean of the untraced ones.
    tracer = Tracer(f"profile_discover-{ctx.seed}")
    off = Tracer("", enabled=False)
    walls: dict[bool, list[float]] = {True: [], False: []}
    for spans in (off, tracer, off):
        gc.collect()
        start = time.perf_counter()
        replayed = _replay(spans, inputs)
        walls[spans.enabled].append(time.perf_counter() - start)
        _verify(outcome, 0, _summary(replayed), expected)
        if spans.enabled:
            report = replayed
    ctx.spans.extend(tracer.spans)
    counters = read_counters(report.relation)

    self_times = tracer.self_times()
    for name in [f"discovery.{p}" for p in
                 ("tane", "tane_approx", "cords", "cfd", "od", "sd")]:
        seconds, calls = self_times.get(name, (0.0, 0))
        outcome.metric(f"{name}_s", seconds, "s", calls)
    for key in CATEGORIES.values():
        seconds, calls = self_times.get(f"profile.violations.{key}", (0.0, 0))
        outcome.metric(f"profile.violations_s.{key}", seconds, "s", calls)
        outcome.metric(f"profile.rules.{key}", calls, "count")
    outcome.metric("relation.partition_cache.hits", counters["cache_hits"],
                   "count")
    outcome.metric("relation.partition_cache.builds", counters["cache_builds"],
                   "count")
    outcome.metric("trace.profile_discover.overhead_s",
                   walls[True][0] - mean(walls[False]), "s")
    return outcome
