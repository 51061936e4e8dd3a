"""Workload ``ingest_window``: a changefeed into a durable ``repro serve``.

One in-process ``ReproApp`` with a data directory (default ``fsync=batch``
and snapshot cadence) holds one tenant whose 10^4-row window slides:
every batch inserts 100 new rows, deletes the 100 oldest and updates a
few prices.  One keep-alive client runs a closed loop, as a changefeed
producer that waits for the WAL acknowledgement does; every fourth
batch it also reads ``GET /tenants/{t}/violations``.  At the end the
server restarts on the same directory.

The incremental detector, the WAL, snapshots and HTTP do the work; CSV
parsing and discovery do none.  A constant window keeps the relation at
one size however long the feed runs, and deletes and updates take the
delta path that is not insert-only.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import time
from pathlib import Path
from statistics import mean, median

import hotel
from common import Context, Outcome, Speed, peak_rss_mb, report_timed
from tracing import Tracer, tail

TENANT = "bench"
WINDOW = 10_000
BATCH = 100
UPDATES = 3
#: Bookings per hotel in the window: the latest bookings of many hotels.
ROWS_PER_HOTEL = 5
READ_EVERY = 4
#: Set-ups (server, tenant, rules, preload) timed per run.
SETUPS = 7
#: Batches between two calibrations of the host's speed (see
#: ``common.Speed``).
CALIBRATE_EVERY = 8
#: Batches per run, unless ``--seconds`` run out first: a fixed amount
#: of work keeps the detector's history, the memory it holds and the
#: WAL replayed on restart the same from run to run.
MAX_BATCHES = 64
#: Batches of the traced run, in turn traced direct layer calls, HTTP
#: and untraced direct calls.  Batch 256 (index 255, a traced one)
#: passes the default snapshot cadence.
TRACE_BATCHES = 264
#: Batches also fed to one single-rule detector per rule.
TRACE_PER_RULE = 64

RULE_IDS = tuple(rule["id"] for rule in hotel.ingest_rules())
SCHEMA = [{"name": name, "type": "numerical" if name in hotel.NUMERIC
           else "categorical"} for name in hotel.COLUMNS]
PRICE, NIGHTS, TOTAL = (hotel.COLUMNS.index(c)
                        for c in ("price", "nights", "total"))


class Stream:
    """The seed's changefeed, mirrored client-side as the current window."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.hotels = hotel.Hotels(WINDOW // ROWS_PER_HOTEL, self.rng)
        self.window, _ = hotel.booking_rows(WINDOW, seed, hotels=self.hotels,
                                            rng=self.rng)
        self.next = WINDOW

    def batch(self) -> dict:
        inserts, _ = hotel.booking_rows(BATCH, 0, start=self.next,
                                        hotels=self.hotels, rng=self.rng)
        self.next += BATCH
        updates = []
        for _ in range(UPDATES):
            i = self.rng.randrange(BATCH, len(self.window))
            row = list(self.window[i])
            hotel_id = int(row[hotel.COLUMNS.index("name")].split("-")[1])
            row[PRICE] = (self.hotels.hotel_base[hotel_id]
                          + 5.0 * self.rng.randrange(3))
            row[TOTAL] = row[PRICE] * row[NIGHTS]
            self.window[i] = tuple(row)
            updates.append({"row": i, "set": {"price": row[PRICE],
                                              "total": row[TOTAL]}})
        del self.window[:BATCH]
        self.window.extend(inserts)
        return {"insert": [list(r) for r in inserts],
                "delete": list(range(BATCH)), "update": updates}


class Client:
    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body=None,
                headers: dict | None = None) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body)
        self.conn.request(method, path, body=data, headers=headers or {})
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read() or b"null")

    def close(self) -> None:
        """Let the server end the connection, then close this side.

        A server stopped while it still waits on an open keep-alive
        connection cancels that handler mid-read, which asyncio reports
        on stderr; the ``Connection: close`` request avoids that.
        """
        self.request("GET", "/healthz", headers={"Connection": "close"})
        self.conn.close()


def _start(data_dir: Path, workers: int):
    from repro.server import ReproApp

    handle = ReproApp(max_workers=workers, data_dir=data_dir).run_in_thread()
    return handle, Client(handle.port)


def _stop(handle, client: Client) -> None:
    try:
        client.close()
    finally:
        handle.stop()


def _set_up(stream: Stream, data_dir: Path, workers: int):
    """Server start, tenant registration with the window, rule upload."""
    handle, client = _start(data_dir, workers)
    status, body = client.request("POST", "/tenants", {
        "tenant": TENANT, "schema": SCHEMA,
        "rows": [list(r) for r in stream.window]})
    if status == 201:
        status, body = client.request(
            "PUT", f"/tenants/{TENANT}/rules", {"rules": hotel.ingest_rules()})
    if status != 200:
        _stop(handle, client)
        raise RuntimeError(f"tenant set-up refused ({status}): {body}")
    return handle, client


def _cold_total(window: list[tuple]) -> int:
    """Violations of the tenant's rules over ``window``, computed cold."""
    from repro.quality.detection import Detector
    from repro.relation import Attribute, AttributeType, Relation, Schema
    from repro.rules_io import parse_rules_with_meta

    schema = Schema([Attribute(a["name"], AttributeType(a["type"]))
                     for a in SCHEMA])
    rules = [e.dependency for e in
             parse_rules_with_meta({"rules": hotel.ingest_rules()})]
    return len(Detector(rules).detect(Relation.from_rows(schema, window))
               .violations)


class Feed:
    """The closed-loop client: batches, every fourth one followed by a read."""

    def __init__(self, client: Client, stream: Stream, outcome: Outcome) -> None:
        self.client = client
        self.stream = stream
        self.outcome = outcome
        self.batch_s: list[float] = []
        self.read_s: list[float] = []
        self.acked = 0
        self.last_total: int | None = None

    def _call(self, method: str, path: str, body=None) -> tuple[float, dict | None]:
        self.outcome.attempted += 1
        start = time.perf_counter()
        status, reply = self.client.request(method, path, body)
        wall = time.perf_counter() - start
        if status != 200 or reply.get("complete") is False:
            self.outcome.failed += 1
            self.outcome.fail(f"{method} {path} answered {status}: {reply}")
            return wall, None
        return wall, reply

    def step(self) -> None:
        self.last_payload = self.stream.batch()
        wall, reply = self._call("POST", f"/tenants/{TENANT}/batches",
                                 self.last_payload)
        if reply is not None:
            self.batch_s.append(wall)
            self.acked += 1
            self.last_total = reply["total_violations"]
        if self.acked % READ_EVERY == 0:
            wall, reply = self._call("GET", f"/tenants/{TENANT}/violations")
            if reply is not None:
                self.read_s.append(wall)

    def read_total(self) -> int | None:
        __, reply = self._call("GET", f"/tenants/{TENANT}/violations")
        return None if reply is None else reply["total_violations"]


def _check_totals(outcome: Outcome, feed: Feed, served: int | None) -> None:
    cold = _cold_total(feed.stream.window)
    if not feed.last_total == served == cold:
        outcome.fail(f"violation totals differ: last acknowledged "
                     f"{feed.last_total}, served {served}, cold {cold}")


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    workers = min(4, ctx.nproc)
    speed = Speed()
    setup_s: list[float] = []
    for i in range(SETUPS):
        stream = Stream(ctx.seed)
        data_dir = ctx.tmp / f"ingest-{i}"
        start = time.perf_counter()
        handle, client = _set_up(stream, data_dir, workers)
        setup_s.append(time.perf_counter() - start)
        if i < SETUPS - 1:
            _stop(handle, client)
            shutil.rmtree(data_dir)
        speed.calibrate()

    # The client pauses for calibrations between blocks of batches;
    # the loop's time counts only the batches and reads.  A block is
    # the unit of work: its mean batch latency is one sample of the
    # gated latency.  Batch latencies cluster around two values as the
    # host's speed flickers, so the median of single batches jumps
    # between the clusters from run to run; block means do not.
    feed = Feed(client, stream, outcome)
    loop_s = 0.0
    block_means: list[float] = []
    try:
        while feed.acked < MAX_BATCHES and loop_s < ctx.seconds:
            start = time.perf_counter()
            first = len(feed.batch_s)
            for _ in range(CALIBRATE_EVERY):
                feed.step()
            loop_s += time.perf_counter() - start
            if len(feed.batch_s) > first:
                block_means.append(mean(feed.batch_s[first:]))
            speed.calibrate(2)
        peak_mb = peak_rss_mb()
        _check_totals(outcome, feed, feed.read_total())
    finally:
        _stop(handle, client)

    start = time.perf_counter()
    handle, client = _start(data_dir, workers)
    try:
        status, reply = client.request("GET", f"/tenants/{TENANT}/violations")
        restart_s = time.perf_counter() - start
        replayed = handle.app.recovery_report.batches_replayed
    finally:
        _stop(handle, client)
    outcome.attempted += 1
    if status != 200 or reply["total_violations"] != feed.last_total:
        outcome.failed += 1
        outcome.fail(f"restart answered {status} with {reply}; "
                     f"last acknowledged total {feed.last_total}")

    batches = len(feed.batch_s)
    report_timed(outcome, speed, setup_s, block_means, BATCH * batches,
                 loop_s, peak_mb)
    outcome.extra("ingest_batches_per_s", batches / loop_s, "1/s", batches)
    outcome.extra("ingest_p50_ms", median(feed.batch_s) * 1e3, "ms", batches)
    high = tail(feed.batch_s)
    if high is not None:
        outcome.extra(f"ingest_tail_ms.p{high[1]:.1f}", high[0] * 1e3, "ms",
                      batches)
    outcome.extra("read_p50_ms", median(feed.read_s) * 1e3, "ms",
                  len(feed.read_s))
    outcome.extra(f"recovery_s.replayed_{replayed}", restart_s, "s")
    return outcome


# -- traced run ---------------------------------------------------------------


def _apply_direct(app, tenant, payload: dict, tracer: Tracer):
    """The layer calls of ``ReproApp.apply_batch``, without HTTP."""
    from repro.incremental.delta import Delta

    breaker = app.guards.breaker
    with tracer.span("server.apply_batch"):
        detector = tenant.require_detector()
        with tracer.span("incremental.delta.from_json"):
            delta = Delta.from_json(payload, tenant.schema)
        with tenant.lock:
            with tracer.span("incremental.delta.validate"):
                delta.validate(detector.relation)
            breaker.before_batch(tenant.tenant_id, detector)
            with tracer.span("server.durability.log_batch"):
                app.durability.log_batch(tenant, delta)
            mark = len(detector.quarantine)
            with tracer.span("incremental.detector.apply"):
                change = detector.apply(delta)
            tenant.relation = detector.relation
            tenant.batches_ingested += 1
            tenant.rows_ingested += len(delta.inserts)
            faulted = {label for _, label, _ in detector.quarantine[mark:]}
            breaker.after_batch(tenant.tenant_id, detector, faulted)
            with tracer.span("server.durability.snapshot"):
                app.durability.note_batch_applied(tenant)
    return delta, change


def trace(ctx: Context) -> Outcome:
    from repro.incremental import IncrementalDetector
    from repro.incremental.delta import Delta
    from repro.server.durability import DurabilityManager
    from repro.server.durability.snapshot import load_snapshot
    from repro.server.state import TenantRegistry

    outcome = Outcome()
    stream = Stream(ctx.seed)
    data_dir = ctx.tmp / "ingest-trace"
    handle, client = _set_up(stream, data_dir, min(4, ctx.nproc))
    app = handle.app
    tenant = app.tenants.get(TENANT)
    durability = app.durability
    feed = Feed(client, stream, outcome)
    tracer = Tracer(f"ingest_window-{ctx.seed}")
    try:
        rules = tenant.detector.rules
        checkers = {rid: IncrementalDetector([rule], tenant.detector.relation)
                    for rid, rule in zip(RULE_IDS, rules)}
        off = Tracer("", enabled=False)
        plain: list[float] = []
        traced: list[float] = []
        wal_bytes, snapshots = durability.wal_bytes, durability.snapshots_taken
        for i in range(TRACE_BATCHES):
            # Rotate traced direct, HTTP and untraced direct batches of
            # one stream, so each mode sees the same tenant state.
            mode = i % 3
            if mode == 1:
                feed.step()
                delta = Delta.from_json(feed.last_payload, tenant.schema)
            else:
                spans = tracer if mode == 0 else off
                start = time.perf_counter()
                delta, change = _apply_direct(app, tenant, stream.batch(),
                                              spans)
                (traced if mode == 0 else plain).append(
                    time.perf_counter() - start)
                feed.last_total = change.total
                feed.acked += 1
                if feed.acked % READ_EVERY == 0:
                    with spans.span("incremental.detector.report"):
                        tenant.detector.report()
            if i < TRACE_PER_RULE:
                for rid, single in checkers.items():
                    with tracer.span(f"incremental.checker.{rid}.apply"):
                        single.apply(delta)
            if i == TRACE_PER_RULE - 1:
                checkers_window = list(stream.window)
        wal_bytes = durability.wal_bytes - wal_bytes
        snapshots = durability.snapshots_taken - snapshots
        _check_totals(outcome, feed, len(tenant.detector.violations()))
        singles = sum(len(d.violations()) for d in checkers.values())
        if singles != _cold_total(checkers_window):
            outcome.fail(f"single-rule detectors found {singles} violations; "
                         f"cold {_cold_total(checkers_window)}")
    finally:
        _stop(handle, client)

    registry = TenantRegistry()
    manager = DurabilityManager(data_dir)
    try:
        with tracer.span("server.durability.recover"):
            report = manager.recover(registry)
    finally:
        manager.close()
    recovered = report.tenants[0] if report.tenants else None
    outcome.attempted += 1
    if recovered is None or recovered.violations != feed.last_total:
        outcome.failed += 1
        outcome.fail(f"recovery found {recovered and recovered.violations} "
                     f"violations; last acknowledged {feed.last_total}")
    snapshot = load_snapshot(data_dir / "tenants" / TENANT)
    ctx.spans.extend(tracer.spans)

    self_times = tracer.self_times()
    names = ["incremental.delta.from_json", "incremental.delta.validate",
             "server.durability.log_batch", "incremental.detector.apply",
             "server.durability.snapshot", "incremental.detector.report",
             "server.durability.recover"]
    names += [f"incremental.checker.{rid}.apply" for rid in RULE_IDS]
    for name in names:
        seconds, calls = self_times.get(name, (0.0, 0))
        outcome.metric(f"{name}_s", seconds, "s", calls)
    layer_s = tracer.durations("server.apply_batch")
    outcome.metric("server.durability.wal_bytes_per_batch",
                   wal_bytes / TRACE_BATCHES, "bytes", TRACE_BATCHES)
    outcome.metric("server.durability.snapshots", snapshots, "count")
    outcome.metric("server.http_overhead_ms",
                   (median(feed.batch_s) - median(layer_s)) * 1e3, "ms",
                   len(feed.batch_s))
    outcome.metric("recovery.batches_replayed",
                   recovered.batches_replayed if recovered else 0, "count")
    outcome.metric("recovery.snapshot_rows",
                   snapshot["relation"]["n"] if snapshot else 0, "count")
    outcome.metric("trace.ingest_window.overhead_s",
                   (median(traced) - median(plain)) * len(traced), "s",
                   len(traced))
    return outcome
