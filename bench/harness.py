"""Benchmark harness: set-up timing, the closed-loop timed run, the traced
replay run, output checks and the result line.

One process runs one workload, single-threaded: BLAS is pinned to one
thread, one caller runs instances back to back, and the next instance
starts only when the previous one has returned.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import channelprune
from channelprune import Selector

from checks import CheckLog, check_instance
from tracing import Tracer, summarize
from workloads import WORKLOADS, Workload, instance_seed, replay_instance, run_instance, set_up, work_counts

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
OUT_DIR = ROOT / ".bench_out"

MIN_INSTANCES = 100  # so instance_ms_p90 has at least 10 samples above it
CHECKED_INSTANCES = 100  # the first instances of a timed run: output checks and quality metrics
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

SPANS = (
    "sim.generate_instance",
    "prune.protect_channels",
    "prune.mies_select",
    "prune.think_select",
    "prune.random_select",
    "prune.oracle_select",
    "core.reconstruction_error_sq",
    "graph.build_interaction_graph",
    "graph.restricted_eigenvalues",
    "cli.experiment.render_report",
)
COUNTERS = (
    "prune.oracle_select.subsets",
    "prune.oracle_select.skipped",
    "graph.restricted_eigenvalues.supports",
    "prune.budget_clamped",
    "prune.protect_channels.protected",
)
INSTANCE_SPAN = "bench.instance"

UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "rel_error_mies_mean": "ratio",
    "rel_error_future_mies_mean": "ratio",
    "mies_win_frac": "fraction",
    "approx_ratio_mies_mean": "ratio",
    "calls": "count",
    "self_ms": "ms",
    "us_p50": "us",
    "subsets": "count",
    "subsets_per_s": "1/s",
    "skipped": "count",
    "supports": "count",
    "us_per_support": "us",
    "budget_clamped": "count",
    "protected": "count",
    "overhead_frac": "fraction",
    "traced_ms": "ms",
    "w_build_flops_per_instance": "flop",
    "evaluator_flops_per_instance": "flop",
    "bytes_generated_per_instance": "B",
}


def _blas_library() -> ctypes.CDLL | None:
    paths = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    return ctypes.CDLL(str(paths[0])) if paths else None  # the copy numpy loaded, so its thread setting


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU facts recorded with every run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib = _blas_library()
    threads = config = None
    if lib is not None:
        suffixes = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")
        threads = _blas_call(lib, [s.format("get_num_threads") for s in suffixes], ctypes.c_int)
        config = _blas_call(lib, [s.format("get_config") for s in suffixes], ctypes.c_char_p)
    if threads is None:
        threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config.decode() if config else None,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def setup_seconds(workload: Workload, seed: int) -> float:
    """Set-up time of a fresh process: imports, config validation, one warm-up instance."""
    cmd = [sys.executable, str(RUN_PY), "--setup-probe", "--workload", workload.name, "--seed", str(seed)]
    done = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
    return float(done.stdout.split()[-1])


def measure(workload: Workload, seed: int, seconds: float, min_instances: int, keep: int, pauses=()):
    """Closed loop: run instances until `seconds` have passed and `min_instances` ran.

    Each callable in `pauses` runs once, at evenly spaced points of the
    timed span, with the clock stopped. Returns per-instance seconds, the
    timed wall time, the outputs of the first `keep` instances (checked
    later, outside the timed loop) and the results of `pauses`.
    """
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise RuntimeError("refusing to time with a Python tracer or profiler attached")
    times: list[float] = []
    kept = []
    paused_results = []
    paused = 0.0
    start = time.perf_counter()
    index = 0
    while index < min_instances or time.perf_counter() - start - paused < seconds:
        if len(paused_results) < len(pauses):
            if time.perf_counter() - start - paused >= len(paused_results) * seconds / len(pauses):
                t0 = time.perf_counter()
                paused_results.append(pauses[len(paused_results)]())
                paused += time.perf_counter() - t0
        t0 = time.perf_counter()
        out = run_instance(workload, instance_seed(seed, index))
        times.append(time.perf_counter() - t0)
        if index < keep:
            kept.append(out)
        index += 1
    paused_results.extend(pause() for pause in pauses[len(paused_results):])
    return times, time.perf_counter() - start - paused, kept, paused_results


def quality(outputs) -> dict[str, float]:
    """Error metrics of the mies rows; deterministic for a workload seed."""
    cells: dict[tuple[int, float], dict[Selector, object]] = {}
    for out in outputs:
        for row in out.report.rows:
            cells.setdefault((row.seed, row.lam), {})[row.selector] = row
    mies = [cell[Selector.MIES] for cell in cells.values()]
    wins = [cell[Selector.MIES].error_sq <= cell[Selector.THINK].error_sq for cell in cells.values()]
    # Against the exact optimum where the oracle ran; otherwise against the
    # best error any selector reached in the cell (a lower bound on the ratio).
    ratios = [
        cell[Selector.MIES].approx_ratio
        if isinstance(cell[Selector.MIES].approx_ratio, float)
        else cell[Selector.MIES].error_sq / min(r.error_sq for r in cell.values())
        for cell in cells.values()
    ]
    return {
        "rel_error_mies_mean": float(np.mean([r.relative_error for r in mies])),
        "rel_error_future_mies_mean": float(np.mean([r.error_future for r in mies])),
        "mies_win_frac": float(np.mean(wins)),
        "approx_ratio_mies_mean": float(np.mean(ratios)),
    }


def report_digest(outputs) -> str:
    return hashlib.sha256("".join(out.text for out in outputs).encode()).hexdigest()


def run_end_to_end(workload: Workload, seed: int, seconds: float, min_instances: int = MIN_INSTANCES, pauses=()):
    """Untraced timed run; returns (metrics, check log, info, results of `pauses`).

    The median is recorded in `info` but is not a gated metric: on a host
    whose speed switches between two levels, it jumps between them from
    run to run, while p90 stays on the slower level and stays steady.
    """
    times, wall, kept, paused_results = measure(workload, seed, seconds, min_instances, CHECKED_INSTANCES, pauses)
    log = CheckLog()
    for out in kept:
        check_instance(log, out, replay_instance(workload, out.seed, oracle=False), compare_approx=False)
    ms = np.asarray(times) * 1e3
    metrics = {
        "instances_per_s": len(times) / wall,
        "instance_ms_p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality(kept),
    }
    info = {
        "samples": len(times),
        "timed_s": wall,
        "instance_ms_p50": float(np.percentile(ms, 50)),
        "instance_ms": ms.tolist(),
        "checked_instances": len(kept),
        "report_sha256": report_digest(kept),
    }
    return metrics, log, info, paused_results


def traced_instances(workload: Workload, seconds: float) -> int:
    """Fixed by --seconds and the seed-commit rate, so counts repeat exactly."""
    return max(1, round(workload.trace_rate * seconds / 2))


def run_traced(workload: Workload, seed: int, seconds: float):
    """Untraced pass, then a traced replay of the same instances.

    Returns (per-layer metrics, check log, info, spans). The replay's rows
    must equal the untraced rows, so the replay cannot drift from the program.
    """
    n = traced_instances(workload, seconds)
    _, wall_untraced, outputs, _ = measure(workload, seed, 0.0, n, keep=n)
    tracer = Tracer()
    start = time.perf_counter()
    replays = []
    for index in range(n):
        tracer.instance = index
        replays.append(tracer.call(INSTANCE_SPAN, replay_instance, workload, instance_seed(seed, index), tracer))
    wall_traced = time.perf_counter() - start

    log = CheckLog()
    for out, rep in zip(outputs, replays):
        check_instance(log, out, rep, compare_approx=True)

    summary = summarize(tracer.spans)
    idle = {"calls": 0, "self_ms": 0.0, "us_p50": 0.0}
    metrics: dict[str, float] = {}
    for name in SPANS:
        for key, value in summary.get(name, idle).items():
            metrics[f"{name}.{key}"] = value
    for name in COUNTERS:
        metrics[name] = tracer.counters[name]
    oracle_s = metrics["prune.oracle_select.self_ms"] / 1e3
    metrics["prune.oracle_select.subsets_per_s"] = metrics["prune.oracle_select.subsets"] / oracle_s if oracle_s else 0.0
    supports = metrics["graph.restricted_eigenvalues.supports"]
    eig_us = metrics["graph.restricted_eigenvalues.self_ms"] * 1e3
    metrics["graph.restricted_eigenvalues.us_per_support"] = eig_us / supports if supports else 0.0
    metrics["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    metrics["trace.traced_ms"] = sum(s.end - s.start for s in tracer.spans if s.name == INSTANCE_SPAN) * 1e3
    metrics.update(work_counts(workload, [row for out in outputs for row in out.report.rows]))
    info = {"instances": n, "untraced_s": wall_untraced, "traced_s": wall_traced, "report_sha256": report_digest(outputs)}
    return metrics, log, info, tracer.spans


def _unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv, started: float) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    src = ROOT / "src"
    if src not in Path(channelprune.__file__).resolve().parents:
        print(f"error: channelprune was imported from {channelprune.__file__}, not from {src}", file=sys.stderr)
        return 2
    set_up(workload)
    own_setup = time.perf_counter() - started
    if args.setup_probe:
        print(own_setup)
        return 0
    env = environment()
    if env["blas_threads"] != 1:
        print(f"error: BLAS runs {env['blas_threads']} threads; the benchmark times only with 1", file=sys.stderr)
        return 2

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env}
    if args.trace:
        metrics, log, info, spans = run_traced(workload, args.seed, args.seconds)
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.instance] for s in spans]
    else:
        # Probes are spread over the timed run so that they see the host as the run does.
        probes = [lambda: setup_seconds(workload, args.seed)] * (SETUP_SAMPLES - 1)
        metrics, log, info, probed = run_end_to_end(workload, args.seed, args.seconds, pauses=probes)
        setup = [own_setup, *probed]
        metrics = {"setup_s": float(np.median(setup)), **metrics}
        info["setup_samples_s"] = setup
    record.update(info=info, failures=log.failures[:50], metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record), encoding="utf-8")

    brief = {key: value for key, value in info.items() if key != "instance_ms"}
    print(json.dumps({"env": env, "info": brief, "failures": log.failures[:5], "record": str(out_path.relative_to(ROOT))}))
    result = {
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
