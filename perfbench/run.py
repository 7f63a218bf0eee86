#!/usr/bin/env python3
"""lhdopt benchmark: four closed-loop workloads, checked outputs, two metric sets.

Run from the root of a checkout that holds ``src/lhdopt`` and
``BENCHMARK.json``:

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload anneal --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` runs untraced passes for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, including the tracing overhead.  Metric names
and units come from ``BENCHMARK.json``.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results with provenance (and, when traced, the
raw spans) are also written under ``perfbench/out/``.  ``--smoke`` runs every
workload at tiny budgets, traced and untraced, and fails if a declared metric
is missing or has no unit.  ``perfbench/README.md`` explains the workloads,
metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# workloads, speed and lhdopt import numpy: they are imported inside
# functions so that --probe-setup times the first import of the stack
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7       # fresh interpreters timed for setup_s; the median is reported
IMPORT_PROBES = 3      # fresh interpreters timed for cli.import_s
SMOKE_SCALE = 0.03     # budget multiplier of --smoke
CHILD_TIMEOUT_S = 120

IMPORT_PROBE = ("import time; t = time.perf_counter(); import lhdopt.cli; "
                "print(repr(time.perf_counter() - t))")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_child(args: list[str]) -> float:
    """Run a Python child that prints one duration in seconds; return it."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[:2]} failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def probe_setup(workload: str, seed: int, scale: float) -> None:
    """Child side of ``setup_s``: import lhdopt, warm the kernels up and
    generate the workload's inputs, timed from before the first import."""
    t0 = time.perf_counter()
    import workloads
    from lhdopt import _kernels

    _kernels.warm_up()
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        workloads.make(workload, seed, scale, workdir, ROOT, child_env())
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def provenance(workload: str, seed: int) -> dict:
    import numpy

    import lhdopt
    from lhdopt import _kernels

    return {"workload": workload, "seed": seed, "kernels": _kernels.ACTIVE,
            "lhdopt": lhdopt.__version__, "numpy": numpy.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": git_commit()}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run_passes(wl, seconds: float, trace: bool, workdir: Path):
    """Untraced passes (alternating with traced ones when ``trace``) until
    the next pass would end after ``seconds``; every pass is checked."""
    import speed
    from workloads import run_pass

    tracer = None
    if trace and not wl.uses_cli:
        from tracer import Tracer
        tracer = Tracer()
    passes, span_dirs = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        if not traced:
            results, ref_s = run_pass(wl)
        elif wl.uses_cli:
            span_dir = workdir / f"spans{len(passes)}"
            span_dir.mkdir(parents=True)
            span_dirs.append(span_dir)
            results, ref_s = run_pass(wl, span_dir)
        else:
            tracer.install()
            try:
                results, ref_s = run_pass(wl, tracer)
            finally:
                tracer.uninstall()
        for op, payload in results:
            try:
                wl.check(op, payload)
            except Exception as e:  # an unreadable output is a failed check
                op.problems.append(f"check: {type(e).__name__}: {e}")
        ops = [op for op, _ in results]
        wall = sum(op.wall_s for op in ops)
        passes.append({"traced": traced, "ops": ops, "wall_s": wall, "ref_s": ref_s,
                       "calibrated_s": speed.calibrate(wall, ref_s),
                       "evaluations": sum(op.evaluations for op in ops)})
        now = time.perf_counter()
        kinds = {p["traced"] for p in passes}
        if len(kinds) == (2 if trace else 1) and now - start + (now - began) > seconds:
            break
    if not trace:
        return passes, None
    from tracer import merge
    if tracer is not None:
        return passes, merge([tracer.summary()])
    return passes, merge([json.loads(f.read_text())
                          for d in span_dirs for f in sorted(d.glob("run*.json"))])


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics of the untraced passes, with every time calibrated
    by its pass's speed-reference samples (see speed.py)."""
    import speed

    med = statistics.median
    untraced = [p for p in passes if not p["traced"]]
    calls = [speed.calibrate(op.wall_s, p["ref_s"]) for p in untraced for op in p["ops"]]
    by_kind: dict[str, list[float]] = {}
    for p in untraced:
        for op in p["ops"]:
            by_kind.setdefault(op.kind, []).append(speed.calibrate(op.wall_s, p["ref_s"]))
    qualities = [op.quality for p in untraced for op in p["ops"] if op.quality is not None]
    ok = [op.ok for p in untraced for op in p["ops"]]
    return {
        "evals_per_s": med(p["evaluations"] / p["calibrated_s"] for p in untraced),
        "wall_s": med(p["calibrated_s"] for p in untraced),
        "call_s_p50": med(calls),
        "heavy_call_s": max(med(v) for v in by_kind.values()),
        "quality_ratio": statistics.fmean(qualities) if qualities else math.nan,
        "ok_frac": sum(ok) / len(ok),
        "setup_s": med(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(passes: list[dict], s: dict, import_s: list[float]) -> tuple[dict, dict]:
    """(layer metrics, per-name detail) from the traced passes' span summary."""
    from tracer import LAYERS, layer_of
    from workloads import GRID_WORKERS

    med = statistics.median
    traced_wall = sum(p["wall_s"] for p in passes if p["traced"])
    calls, self_s = s["calls"], s["self_s"]
    m: dict[str, float] = {}
    detail: dict[str, float] = {}
    for name in calls:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.share"] = self_s[name] / traced_wall
        if calls[name]:
            detail[f"{name}.self_us"] = self_s[name] / calls[name] * 1e6
    for name, n_evals in s["evals"].items():
        if n_evals:
            detail[f"{name}.self_us_per_eval"] = self_s[name] / n_evals * 1e6
    for layer in LAYERS:
        names = [n for n in calls if layer_of(n) == layer]
        n_calls = sum(calls[n] for n in names)
        busy = sum(self_s[n] for n in names)
        m[f"layer.{layer}.calls"] = n_calls
        m[f"layer.{layer}.share"] = busy / traced_wall
        if n_calls:
            m[f"layer.{layer}.self_us"] = busy / n_calls * 1e6
    algorithm_self = sum(self_s[n] for n in calls if layer_of(n) == "algorithm")
    if s["top_evals"]:
        m["layer.algorithm.self_us_per_eval"] = algorithm_self / s["top_evals"] * 1e6
    proposals = calls["criteria.Evaluator.propose"]
    m["criteria.accept_ratio"] = calls["criteria.Evaluator.commit"] / proposals if proposals else 0.0
    grid_wall = s["total_s"]["benchmark.run_benchmark"]
    busy = sum(cpu for _, cpu in s["cells"])
    m["benchmark.parallel_efficiency"] = busy / (grid_wall * GRID_WORKERS) if grid_wall else 0.0
    if s["cells"]:
        detail["benchmark.cell_busy_s"] = busy
        detail["benchmark.cell_wait_s"] = sum(wall - cpu for wall, cpu in s["cells"])
    m["cli.import_s"] = med(import_s)
    m["trace.overhead_ratio"] = (med(p["calibrated_s"] for p in passes if p["traced"])
                                 / med(p["calibrated_s"] for p in passes if not p["traced"])
                                 - 1.0)
    m["trace.unattributed_share"] = 1.0 - s["main_self_s"] / traced_wall
    return m, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float,
                 probes: int) -> dict:
    import workloads
    from lhdopt import _kernels

    setups = [timed_child([str(HERE / "run.py"), "--probe-setup", "--workload", name,
                           "--seed", str(seed), "--scale", repr(scale)])
              for _ in range(0 if trace else probes)]
    import_s = [timed_child(["-c", IMPORT_PROBE]) for _ in range(IMPORT_PROBES if trace else 0)]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        _kernels.warm_up()
        wl = workloads.make(name, seed, scale, workdir, ROOT, child_env())
        passes, summary = run_passes(wl, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op.ok]
    result = {
        "provenance": provenance(name, seed),
        "passes": [{k: p[k] for k in ("traced", "wall_s", "ref_s", "calibrated_s", "evaluations")}
                   for p in passes],
        "correct": not any(op.problems for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "ops": [op.row() for op in passes[0]["ops"]],
        "failures": sorted({f"{op.label}: {pr}" for op in failed for pr in op.problems}),
        "known_defects": sorted({f"{op.label}: {d}" for op in failed for d in op.defects}),
    }
    if trace:
        result["metrics"], result["detail"] = per_layer(passes, summary, import_s)
        result["spans"] = summary["spans"]
    else:
        result["metrics"] = end_to_end(passes, setups)
        result["detail"] = {   # every pass is untraced here
            "calls_per_run": len(ops),
            "uncalibrated.wall_s": statistics.median(p["wall_s"] for p in passes),
            "uncalibrated.call_s_p50": statistics.median(op.wall_s for op in ops),
            "speed_reference_ms": statistics.median(p["ref_s"] for p in passes) * 1e3,
        }
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def select(result: dict, declared: list[dict]) -> tuple[dict, list[str]]:
    """Declared metrics with their units, and the names that are missing."""
    out, missing = {}, []
    for d in declared:
        v = result["metrics"].get(d["name"])
        if v is None or not d.get("unit"):
            missing.append(d["name"])
        else:
            out[d["name"]] = {"value": v, "unit": d["unit"]}
    return out, missing


def report(result: dict, metrics: dict, declared: list[dict], trace: bool) -> None:
    prov = result["provenance"]
    n_untraced = sum(not p["traced"] for p in result["passes"])
    print(f"lhdopt benchmark: workload {prov['workload']}, seed {prov['seed']}, "
          f"{n_untraced} untraced + {len(result['passes']) - n_untraced} traced passes, "
          f"{result['attempted']} operations, {result['failed']} failed")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("runs: " + ", ".join(f"{op['label']} ({op['n']}x{op['k']})" for op in result["ops"]))
    for line in result["failures"]:
        print(f"failed check: {line}")
    for line in result["known_defects"]:
        print(f"failed check, known defect: {line}")
    better = {d["name"]: d.get("better", "") for d in declared}
    for name, m in metrics.items():
        direction = f"  ({better[name]} is better)" if better[name] else ""
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}{direction}")
    if not trace and prov["workload"] == "cli-grid":
        # the same numbers under the names the design notes use for this workload
        print(f"  cli_call_s_p50 = call_s_p50 over {result['detail']['calls_per_run']} cold "
              f"lhdopt calls; grid_s = heavy_call_s (the lhdopt benchmark call)")
    for name, v in sorted(result["detail"].items()):
        print(f"  {name:<42} {v:>16.6g}")


def write_results(result: dict, name: str, seed: int, trace: bool) -> None:
    from tracer import write_spans

    OUT.mkdir(exist_ok=True)
    spans = result.pop("spans", None)
    if spans is not None:
        write_spans(OUT / f"spans-{name}-seed{seed}.csv.gz", spans)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def smoke() -> int:
    import workloads

    bad = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, 1, 0.0, trace, SMOKE_SCALE, probes=1)
            declared = declared_metrics(trace)
            metrics, missing = select(result, declared)
            status = "ok" if result["correct"] and not missing else "FAILED"
            print(f"smoke {name} trace={int(trace)}: {status}; {len(metrics)} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed"
                  + (f"; missing or unitless: {', '.join(missing)}" if missing else ""))
            if status != "ok":
                bad.append(f"{name}/trace{int(trace)}")
    print(json.dumps({"smoke": "failed" if bad else "ok", "failed": bad}))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("anneal", "anneal-hot", "population", "cli-grid"))
    parser.add_argument("--seed", type=int, default=1, help="workload seed, 0 <= seed < 2^64")
    parser.add_argument("--seconds", type=float, default=28.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lhdopt" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not an lhdopt checkout (needs src/lhdopt and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.scale)
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace, args.scale,
                          probes=SETUP_PROBES)
    declared = declared_metrics(trace)
    metrics, missing = select(result, declared)
    write_results(result, args.workload, args.seed, trace)
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    report(result, metrics, declared, trace)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
