"""Workload ``serve_mixed``: the ASGI placement service under mixed traffic.

The in-process :class:`repro.serve.app.PlacementApp` serves a 5,000-PM
EC2 M3 fleet on the struct-of-arrays substrate.  Traffic is a seeded mix
of ~80% ``POST /place`` over the four M3 VM types and ~20% ``POST
/migrate`` of a VM placed at least ``MIGRATE_LAG`` requests earlier; the
generator assigns every ``vm_id``, so the seed alone fixes the request
list.  One asyncio loop first sends a warm-up one request at a time
(decisions count, latencies do not), then repeats a cycle ``passes``
times:

1. an open-loop slice at a fixed offered rate, each request timed from
   the moment it was *due*, so a stall charges every request queued
   behind it, and the generator's own lateness is reported;
2. a closed-loop pass of a fixed size with 32 requests in flight; the
   pass's wall time is the work unit.

Alternating the two spreads both over the whole run, so a slow spell
of the host touches a few slices and passes rather than a whole phase.
Each metric is a per-slice (or per-pass) figure, median over the
cycles, so one collector pause moves it little; the whole-phase
percentiles, p99 included, are reported alongside.

Checks: every request resolves to exactly one outcome; the live decision
digest equals a sequential replay of the admitted requests on a freshly
built service; the live fleet passes the C1-C11 audit.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import checks
from common import WorkloadRun, median, median_of, peak_rss_mb, percentile

#: The four M3 VM types the traffic draws from.
M3_TYPES = ("m3.medium", "m3.large", "m3.xlarge", "m3.2xlarge")
MIGRATE_SHARE = 0.2
#: A migrate names a VM placed at least this many requests earlier.
MIGRATE_LAG = 64
CLOSED_CONCURRENCY = 32


@dataclass(frozen=True)
class Scale:
    """Sizes of one serve_mixed run."""

    pms: int
    rate_rps: float          # offered open-loop rate
    open_share: float        # share of --seconds spent in open-loop slices
    warmup: int              # requests sent one at a time first
    pass_requests: int       # requests per closed-loop pass
    passes: int              # cycles: one open-loop slice + one pass each
    setups: int              # set-ups before the session


# The 64-deep admission queue overflows, and requests are shed, when a
# gen2 pause outlasts 64 arrivals.  Pauses take 100-160 ms, longer in a
# slow spell of the host: at 400 requests/s two runs in ten shed, at
# 300 the queue holds 213 ms of arrivals.
FULL = Scale(pms=5_000, rate_rps=300.0, open_share=0.6, warmup=1_000,
             pass_requests=1_000, passes=8, setups=3)
TOY = Scale(pms=64, rate_rps=150.0, open_share=0.1, warmup=16,
            pass_requests=64, passes=2, setups=1)


def make_requests(seed: int, n: int) -> List[Tuple[str, Dict[str, Any]]]:
    """The seeded request list: (path, JSON body) per request."""
    rng = np.random.default_rng([seed, 0x5E7E])
    migrate = rng.random(n) < MIGRATE_SHARE
    migrate[:MIGRATE_LAG] = False
    kinds = rng.integers(len(M3_TYPES), size=n)
    utilization = rng.uniform(0.05, 0.95, size=n)
    pick = rng.random(n)
    placed_before = np.concatenate(([0], np.cumsum(~migrate)))
    requests = []
    for i in range(n):
        if migrate[i]:
            pool = int(placed_before[i - MIGRATE_LAG])
            requests.append(("/migrate", {"vm_id": int(pick[i] * pool)}))
        else:
            requests.append(("/place", {
                "vm_type": M3_TYPES[int(kinds[i])],
                "vm_id": int(placed_before[i]),
                "utilization": round(float(utilization[i]), 6),
            }))
    return requests


@dataclass
class _Sample:
    index: int
    cycle: int               # -1 for the warm-up
    closed: bool
    path: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    body: Optional[Dict[str, Any]] = None


async def _send(client, request, sample: _Sample) -> None:
    sample.sent = time.perf_counter()
    response = await client.request("POST", request[0], request[1])
    sample.done = time.perf_counter()
    body = response.json() if response.body else {}
    body["status"] = response.status
    sample.body = body


async def _session(app, requests, scale: Scale, per_slice: int):
    """Warm-up, then ``scale.passes`` cycles; returns (samples, pass walls)."""
    from repro.serve.testclient import ASGITestClient

    client = ASGITestClient(app)
    loop = asyncio.get_running_loop()
    samples: List[_Sample] = []
    for index, request in enumerate(requests[:scale.warmup]):
        sample = _Sample(index, -1, False, request[0], time.perf_counter())
        samples.append(sample)
        await _send(client, request, sample)
    position = scale.warmup
    interval = 1.0 / scale.rate_rps
    walls = []
    for cycle in range(scale.passes):
        tasks = []
        start = time.perf_counter() + 0.005
        sent = 0
        while sent < per_slice:
            now = time.perf_counter()
            while sent < per_slice and start + sent * interval <= now:
                sample = _Sample(position, cycle, False,
                                 requests[position][0],
                                 start + sent * interval)
                samples.append(sample)
                tasks.append(loop.create_task(
                    _send(client, requests[position], sample)
                ))
                position += 1
                sent += 1
            if sent < per_slice:
                await asyncio.sleep(
                    max(0.0, start + sent * interval - time.perf_counter())
                )
        await asyncio.gather(*tasks)

        chunk = iter(range(position, position + scale.pass_requests))
        position += scale.pass_requests

        async def worker() -> None:
            for index in chunk:
                sample = _Sample(index, cycle, True, requests[index][0],
                                 time.perf_counter())
                samples.append(sample)
                await _send(client, requests[index], sample)

        began = time.perf_counter()
        await asyncio.gather(*(worker() for _ in range(CLOSED_CONCURRENCY)))
        walls.append(time.perf_counter() - began)
    return samples, walls


def _build(seed: int, pms: int):
    from repro.serve.app import PlacementApp
    from repro.serve.fleet import build_ec2_service

    began = time.perf_counter()
    service = build_ec2_service({"M3": pms}, seed=seed)
    app = PlacementApp(service)
    return service, app, time.perf_counter() - began


def replay_digest(seed: int, pms: int, admitted) -> str:
    """Serve the admitted requests one by one on a fresh service.

    ``admitted`` holds (request_id, path, body) in ticket order.  Returns
    the replay's decision digest.
    """
    from repro.serve.service import ServeRequest

    service, _, _ = _build(seed, pms)
    for request_id, path, body in admitted:
        service.serve_one(ServeRequest(
            op=path.lstrip("/"),
            request_id=request_id,
            vm_type=body.get("vm_type"),
            vm_id=body.get("vm_id"),
            utilization=body.get("utilization", 1.0),
        ))
    return service.decision_digest


def run(seed: int, seconds: float, scale: Scale = FULL,
        tracer=None) -> WorkloadRun:
    """One serve_mixed run (see the module docstring)."""
    per_slice = max(1, round(
        scale.rate_rps * seconds * scale.open_share / scale.passes
    ))
    total = scale.warmup + scale.passes * (per_slice + scale.pass_requests)
    requests = make_requests(seed, total)

    setups = []
    for _ in range(scale.setups - 1):
        setups.append(_build(seed, scale.pms)[2])  # the service is dropped
        gc.collect()
    service, app, setup_s = _build(seed, scale.pms)
    setups.append(setup_s)
    # Timing starts from a settled heap: what the harness allocated and
    # dropped must not decide when the first full collection lands.
    gc.collect()

    session_began = time.perf_counter()
    samples, walls = asyncio.run(_session(app, requests, scale, per_slice))
    session_ended = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    rss = peak_rss_mb()

    bodies = [s.body for s in samples]
    errors = checks.check_outcomes(bodies)
    admitted = sorted(
        (s.body["request_id"], s.path, requests[s.index][1])
        for s in samples
        if s.body is not None and s.body.get("outcome") != "shed"
    )
    digest = service.decision_digest
    errors += checks.check_audit(service.audit(), "serve fleet")
    cache_info = service.policy.cache_info()
    used_classes = len(service.datacenter.indexed_machines().used_classes())
    del service, app
    if len(samples) != total:
        errors.append(f"{len(samples)} requests sent, {total} generated")

    outcomes: Dict[str, int] = {}
    failed = 0
    for body in bodies:
        outcome = (body or {}).get("outcome", "missing")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome not in ("placed", "degraded") or body["status"] >= 500:
            failed += 1

    # Open-loop latency runs from each request's due time; the from-send
    # figures are what a generator timing the actual send would report.
    open_loop = [s for s in samples if s.cycle >= 0 and not s.closed]
    place = [(s.done - s.due) * 1e3 for s in open_loop if s.path == "/place"]
    migrate = [(s.done - s.due) * 1e3 for s in open_loop if s.path == "/migrate"]
    from_send = [(s.done - s.sent) * 1e3 for s in open_loop if s.path == "/place"]
    late = [(s.sent - s.due) * 1e3 for s in open_loop]
    slices: List[List[float]] = [[] for _ in range(scale.passes)]
    for s in open_loop:
        if s.path == "/place":
            slices[s.cycle].append((s.done - s.due) * 1e3)
    open_wall = sum(
        max(s.done for s in open_loop if s.cycle == cycle)
        - min(s.due for s in open_loop if s.cycle == cycle)
        for cycle in range(scale.passes)
    )
    work_s = median(walls)
    detail = {
        "serve_place_p50_ms": percentile(place, 50),
        "serve_place_p90_ms": percentile(place, 90),
        "serve_place_p95_ms": percentile(place, 95),
        "serve_place_p99_ms": percentile(place, 99),
        "serve_place_samples": len(place),
        "serve_migrate_p50_ms": percentile(migrate, 50),
        "serve_migrate_p99_ms": percentile(migrate, 99),
        "serve_migrate_samples": len(migrate),
        "serve_sat_rps": scale.pass_requests / work_s,
        "serve_sat_pass_walls_s": walls,
        "slice_place_p50_ms": [percentile(x, 50) for x in slices],
        "slice_place_p75_ms": [percentile(x, 75) for x in slices],
        "slice_place_p90_ms": [percentile(x, 90) for x in slices],
        "serve.gen.late_ms_p99": percentile(late, 99),
        "offered_rps": scale.rate_rps,
        "open_loop_achieved_rps": len(open_loop) / open_wall,
        "from_send_place_p50_ms": percentile(from_send, 50),
        "from_send_place_p99_ms": percentile(from_send, 99),
        "failed_ratio": failed / len(samples),
        "outcomes": outcomes,
        "decision_digest": digest,
        "setups_s": setups,
        "fleet_pms": scale.pms,
    }
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "work_s": work_s,
        "p50_ms": median_of(slices, 50),
        "p75_ms": median_of(slices, 75),
    }
    context = {
        "setups": scale.setups,
        "cache_info": cache_info,
        "used_classes": used_classes,
        "late_ms_p99": detail["serve.gen.late_ms_p99"],
        "open_loop_rids": {
            s.body["request_id"] for s in open_loop if s.body is not None
        },
        "windows": [(session_began, session_ended)],
    }

    def replay_check() -> List[str]:
        detail["replay_digest"] = replay_digest(seed, scale.pms, admitted)
        return checks.check_digest(digest, detail["replay_digest"])

    return WorkloadRun(
        metrics=metrics, attempted=len(samples), failed=failed,
        detail=detail, errors=errors, layer_context=context,
        late_checks=replay_check,
    )
