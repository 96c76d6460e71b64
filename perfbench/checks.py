"""Output checks: every workload's results are verified, not just timed.

Each check returns a list of human-readable errors (empty when the
output is right), so a run reports every broken check at once and the
self-tests can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from common import BENCH_DIR

PINNED_PATH = BENCH_DIR / "pinned.json"

#: The four terminal outcomes of a serve request.
OUTCOMES = ("placed", "degraded", "shed", "rejected")

#: Decision counters of one simulation run; exact unless listed in FLOAT_FIELDS.
SIM_FIELDS = (
    "unplaced_vms", "pms_used_initial", "pms_used_peak", "pms_used_final",
    "migrations", "failed_migrations", "overload_events", "energy_kwh",
    "slo_violation_rate",
)
FLOAT_FIELDS = ("energy_kwh", "slo_violation_rate")

#: Relative tolerance on energy and SLO, as in the scale sweep's identity gate.
FLOAT_RTOL = 1e-9


def sim_counters(result: Any) -> Dict[str, Any]:
    """The checked decision counters of one ``SimulationResult``."""
    return {name: getattr(result, name) for name in SIM_FIELDS}


def load_pinned(workload: str) -> Dict[str, Any]:
    """Pinned counters of one workload, keyed by seed (as a string)."""
    if not PINNED_PATH.is_file():
        return {}
    with PINNED_PATH.open() as handle:
        return json.load(handle).get(workload, {})


def _same(name: str, expected: Any, observed: Any) -> bool:
    if name in FLOAT_FIELDS:
        return math.isclose(
            float(expected), float(observed), rel_tol=FLOAT_RTOL, abs_tol=1e-12
        )
    return expected == observed


def check_counters(
    observed: Mapping[str, Any], expected: Mapping[str, Any], label: str
) -> List[str]:
    """Compare one counter set against its expected values."""
    errors = []
    for name in SIM_FIELDS:
        if name not in observed:
            errors.append(f"{label}: counter {name} missing")
        elif name in expected and not _same(name, expected[name], observed[name]):
            errors.append(
                f"{label}: {name} = {observed[name]!r}, "
                f"pinned {expected[name]!r}"
            )
    return errors


def check_pinned(
    observed: Mapping[str, Mapping[str, Any]],
    pinned: Optional[Mapping[str, Mapping[str, Any]]],
) -> List[str]:
    """Counters per run label against the values pinned for the seed.

    ``observed`` and ``pinned`` map a run label (the policy name) to its
    counters.  A seed with no pinned entry passes here; its runs are
    still held to the repeat and audit checks.
    """
    if pinned is None:
        return []
    errors = []
    if set(observed) != set(pinned):
        errors.append(
            f"runs {sorted(observed)} differ from pinned {sorted(pinned)}"
        )
    for label in sorted(set(observed) & set(pinned)):
        errors.extend(check_counters(observed[label], pinned[label], label))
    return errors


def check_repeats(units: Sequence[Mapping[str, Mapping[str, Any]]]) -> List[str]:
    """Every repeated unit of one seed must decide exactly the same."""
    errors = []
    for number, unit in enumerate(units[1:], start=2):
        for label, counters in unit.items():
            first = units[0].get(label)
            if first is None:
                errors.append(f"repeat {number}: run {label} not in repeat 1")
                continue
            for error in check_counters(counters, first, label):
                errors.append(f"repeat {number} differs from repeat 1: {error}")
    return errors


def check_audit(report: Any, label: str) -> List[str]:
    """A constraint audit (C1-C11 and the index checks) must be clean."""
    if report.ok:
        return []
    shown = "; ".join(str(v) for v in report.violations[:3])
    return [
        f"{label}: audit found {len(report.violations)} violations "
        f"{report.constraint_ids()}: {shown}"
    ]


def check_outcomes(
    responses: Sequence[Optional[Mapping[str, Any]]],
) -> List[str]:
    """Each request resolves to exactly one terminal outcome, no 5xx.

    ``responses`` holds, per request sent, the parsed response body with
    its HTTP ``status`` merged in, or None when no response came back.
    """
    errors = []
    seen_ids: Dict[int, int] = {}
    for index, body in enumerate(responses):
        if body is None:
            errors.append(f"request {index}: no response")
            continue
        outcome = body.get("outcome")
        if outcome not in OUTCOMES:
            errors.append(f"request {index}: outcome {outcome!r}")
        if body.get("status", 500) >= 500 and outcome != "shed":
            errors.append(f"request {index}: status {body.get('status')}")
        request_id = body.get("request_id")
        if request_id in seen_ids:
            errors.append(
                f"request {index}: request_id {request_id} already answered "
                f"request {seen_ids[request_id]}"
            )
        seen_ids[request_id] = index
    return errors[:20]


def check_digest(live: str, replay: str) -> List[str]:
    """The served decision stream equals its sequential replay."""
    if live == replay:
        return []
    return [f"decision digest {live} != sequential replay {replay}"]


def first_errors(groups: Iterable[List[str]], limit: int = 20) -> List[str]:
    """Flatten error lists, keeping the first ``limit``."""
    flat = [error for group in groups for error in group]
    return flat[:limit]
