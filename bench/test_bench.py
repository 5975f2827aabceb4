"""Tests of the benchmark itself: tiny workloads, injected faults, seeding.

    python -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from checks import CheckLog, check_instance  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import WORKLOADS, Bracket, instance_seed, replay_instance, run_instance  # noqa: E402


def tiny(name):
    workload = WORKLOADS[name]
    cfg = workload.config.with_updates(d=8, L=16, L_obs=8, L_future=8)
    bracket = Bracket(rows=8, d=6, support=3) if workload.bracket else None
    return dataclasses.replace(workload, config=cfg, bracket=bracket)


def checked(workload, seeds, mutate=lambda outputs: outputs):
    outputs = mutate([run_instance(workload, s) for s in seeds])
    log = CheckLog()
    for out in outputs:
        check_instance(log, out, replay_instance(workload, out.seed), compare_approx=True)
    return log


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_tiny(name):
    workload = tiny(name)
    metrics, log, info, _ = harness.run_end_to_end(workload, seed=3, seconds=0.0, min_instances=3)
    assert log.attempted > 0 and log.failures == []
    assert info["samples"] == 3
    assert all(value > 0 for value in metrics.values())

    metrics, log, info, spans = harness.run_traced(workload, seed=3, seconds=2 / workload.trace_rate)
    assert log.attempted > 0 and log.failures == []
    oracle_calls = metrics["prune.oracle_select.calls"]
    eig_calls = metrics["graph.restricted_eigenvalues.calls"]
    if workload.config.oracle:
        assert oracle_calls > 0 and eig_calls > 0 and metrics["prune.oracle_select.subsets"] > 0
    else:
        assert oracle_calls == 0 and eig_calls == 0
    assert all(f"{span}.calls" in metrics for span in harness.SPANS)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = tiny("exact-d20")
    e2e, _, _, _ = harness.run_end_to_end(workload, seed=0, seconds=0.0, min_instances=1)
    layer, _, _, _ = harness.run_traced(workload, seed=0, seconds=0.0)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", *e2e}
    assert {m["name"] for m in spec["per_layer"]} == set(layer)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[name] == harness._unit(name) for name in units)


def _replace_row(outputs, field, change):
    first = outputs[0]
    rows = list(first.report.rows)
    rows[0] = dataclasses.replace(rows[0], **{field: change(getattr(rows[0], field))})
    report = dataclasses.replace(first.report, rows=tuple(rows))
    return [dataclasses.replace(first, report=report)] + outputs[1:]


def _swap_mu_min(outputs):
    a, b = outputs[0], outputs[1]
    cert_a = dataclasses.replace(a.bracket.cert, mu_min=b.bracket.cert.mu_min)
    cert_b = dataclasses.replace(b.bracket.cert, mu_min=a.bracket.cert.mu_min)
    return [
        dataclasses.replace(a, bracket=dataclasses.replace(a.bracket, cert=cert_a)),
        dataclasses.replace(b, bracket=dataclasses.replace(b.bracket, cert=cert_b)),
    ] + outputs[2:]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda outputs: _replace_row(outputs, "n_prune", lambda n: n + 1),
        lambda outputs: _replace_row(outputs, "error_sq", lambda e: e * (1 + 1e-6)),
        _swap_mu_min,
    ],
    ids=["n_prune_off_by_one", "error_sq_perturbed", "mu_min_swapped"],
)
def test_injected_fault_is_counted(mutate):
    workload = tiny("exact-d20")
    assert checked(workload, [1, 2]).failures == []
    log = checked(workload, [1, 2], mutate)
    assert 0 < len(log.failures) < log.attempted


def test_workload_seed_changes_inputs():
    workload = WORKLOADS["sweep-d64"]
    same = [replay_instance(workload, instance_seed(4, 0)) for _ in range(2)]
    other = replay_instance(workload, instance_seed(5, 0))
    assert (same[0].instance[0].data == same[1].instance[0].data).all()
    assert not (same[0].instance[0].data == other.instance[0].data).all()
    assert same[0].rows == same[1].rows != other.rows


def test_self_time_subtracts_direct_children():
    spans = [Span("root", None, 0, 0.0, 10.0), Span("child", 0, 0, 1.0, 4.0), Span("leaf", 1, 0, 2.0, 3.0)]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-d64", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
