"""Self-tests of the benchmark at toy scale.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit, that each output check fails on a deliberately wrong output,
that traced and untraced runs decide identically, that the benchmark
imports none of the process-pool or shared-memory modules, and that the
command fails cleanly without the program.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import common  # noqa: E402
import layers  # noqa: E402
import paper_grid  # noqa: E402
import run  # noqa: E402
import serve_mixed  # noqa: E402
import sim_day  # noqa: E402

common.use_checkout_sources()

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _toy(workload: str, trace: bool):
    return run.run_workload(workload, seed=3, seconds=0.0, trace=trace,
                            scale="toy")


@pytest.fixture(scope="module")
def traced_runs():
    return {w: _toy(w, trace=True) for w in WORKLOADS}


def test_spec_matches_code():
    assert WORKLOADS == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("workload", ["serve_mixed", "sim_day_20k",
                                      "paper_grid_1k"])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = _toy(workload, trace=False)
    result = out["result"]
    assert result["correct"], out["detail"]["errors"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced_runs):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, out in traced_runs.items():
        emitted = {n: m["unit"] for n, m in out["result"]["metrics"].items()}
        assert emitted == expected, workload
        assert out["result"]["metrics"]["trace.spans"]["value"] > 0


def test_traced_and_untraced_runs_decide_identically(traced_runs):
    for workload, out in traced_runs.items():
        detail = out["detail"]
        assert out["result"]["correct"], detail["errors"]
        if workload == "serve_mixed":
            assert detail["untraced"]["outcomes"] == detail["traced"]["outcomes"]
            assert (detail["untraced"]["decision_digest"]
                    == detail["traced"]["decision_digest"])
        else:
            assert detail["untraced"]["counters"] == detail["traced"]["counters"]


def test_traced_serve_run_links_spans_to_requests(traced_runs):
    detail = traced_runs["serve_mixed"]["detail"]
    spans = [json.loads(line) for line in
             (common.ROOT / detail["spans_file"]).read_text().splitlines()]
    one = [s for s in spans if s["name"] == "serve.service.serve_one"]
    assert one and all(s["rid"] is not None for s in one)
    decide = [s for s in spans if s["name"] == "core.policy.decide"]
    assert decide and all(s["rid"] is not None for s in decide)
    metrics = traced_runs["serve_mixed"]["result"]["metrics"]
    assert metrics["core.policy.place_decisions"]["value"] > 0
    assert metrics["serve.app.us_per_req"]["value"] > 0


# ----------------------------------------------------------------------
# Each check fails on a wrong output
# ----------------------------------------------------------------------
def test_digest_check_fails_on_tampered_digest():
    assert checks.check_digest("a" * 64, "a" * 64) == []
    assert checks.check_digest("a" * 64, "b" * 64)


def test_outcome_check_fails_on_missing_unknown_or_duplicate():
    good = [{"outcome": "placed", "status": 200, "request_id": 0},
            {"outcome": "shed", "status": 429, "request_id": 1}]
    assert checks.check_outcomes(good) == []
    assert checks.check_outcomes(good + [None])
    assert checks.check_outcomes(
        good + [{"outcome": "lost", "status": 200, "request_id": 2}])
    assert checks.check_outcomes(
        good + [{"outcome": "placed", "status": 200, "request_id": 1}])
    assert checks.check_outcomes(
        good + [{"outcome": "rejected", "status": 500, "request_id": 3}])


def test_counter_checks_fail_on_tampered_counters():
    counters = {name: 7 for name in checks.SIM_FIELDS}
    counters["energy_kwh"] = 1234.5
    pinned = {"PageRankVM": dict(counters)}
    assert checks.check_pinned({"PageRankVM": counters}, pinned) == []
    for name, wrong in (("migrations", 8), ("energy_kwh", 1234.5 * (1 + 1e-6)),
                        ("pms_used_peak", 6)):
        tampered = dict(counters, **{name: wrong})
        assert checks.check_pinned({"PageRankVM": tampered}, pinned)
        assert checks.check_repeats([{"PageRankVM": counters},
                                     {"PageRankVM": tampered}])
    assert checks.check_pinned({"FF": counters}, pinned)


def test_audit_check_fails_on_a_violation():
    from repro.analysis.invariants import AuditReport, Violation

    assert checks.check_audit(AuditReport(), "fleet") == []
    broken = AuditReport(violations=[Violation(constraint="C5", message="x")])
    assert checks.check_audit(broken, "fleet")


def test_serve_run_fails_when_replay_disagrees(monkeypatch):
    monkeypatch.setattr(serve_mixed, "replay_digest",
                        lambda seed, pms, admitted: "0" * 64)
    out = run.run_workload("serve_mixed", 3, 0.0, False, scale="toy")
    assert not out["result"]["correct"]
    assert any("digest" in e for e in out["detail"]["errors"])


@pytest.mark.parametrize("module,workload", [(sim_day, "sim_day_20k"),
                                             (paper_grid, "paper_grid_1k")])
def test_simulation_run_fails_on_wrong_pinned_counters(monkeypatch, module,
                                                       workload):
    good = _toy(workload, trace=False)["detail"]["untraced"]["counters"]
    if workload == "sim_day_20k":
        good = {"3": {"PageRankVM": good}}
    wrong = {
        seed: {label: dict(c, migrations=c["migrations"] + 1)
               for label, c in runs.items()}
        for seed, runs in good.items()
    }
    monkeypatch.setattr(module, "TOY",
                        dataclasses.replace(module.TOY, pinned=True))
    monkeypatch.setattr(checks, "load_pinned", lambda name: wrong)
    out = run.run_workload(workload, 3, 0.0, False, scale="toy")
    assert not out["result"]["correct"]
    assert any("migrations" in e for e in out["detail"]["errors"])
    monkeypatch.setattr(checks, "load_pinned", lambda name: good)
    assert run.run_workload(workload, 3, 0.0, False, scale="toy")["result"]["correct"]


@pytest.mark.parametrize("faults", [1, 3])
def test_grid_audits_each_policy_on_its_own_fleet(monkeypatch, faults):
    """A retried cell is audited on its last fleet; a failed one is reported.

    CompVM's first ``faults`` attempts fail after the runner has built
    their fleet: one fault is retried away, three exhaust the attempts.
    """
    from repro.experiments import runner

    make = runner.make_policy_and_selector
    left = [faults]

    def flaky(policy_name, *args, **kwargs):
        if policy_name == "CompVM" and left[0]:
            left[0] -= 1
            raise RuntimeError("injected fault")
        return make(policy_name, *args, **kwargs)

    monkeypatch.setattr(runner, "make_policy_and_selector", flaky)
    out = run.run_workload("paper_grid_1k", 3, 0.0, False, scale="toy")
    errors = out["detail"]["errors"]
    if faults == 1:
        assert out["result"]["correct"], errors
        assert out["result"]["failed"] == 0
    else:
        assert not out["result"]["correct"]
        assert out["result"]["failed"] == 1
        assert any("CompVM/0 failed" in e for e in errors), errors


# ----------------------------------------------------------------------
# Boundaries
# ----------------------------------------------------------------------
FORBIDDEN = ("repro.core.shm", "repro.core.soa.parallel", "repro.serve.workers")


def _imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_benchmark_imports_no_pool_or_shared_memory_module():
    for path in BENCH.glob("*.py"):
        for name in _imports(path):
            assert not any(name == f or name.startswith(f + ".")
                           for f in FORBIDDEN), (path.name, name)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mixed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
