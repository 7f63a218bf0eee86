"""Benchmark harness: algorithm comparison over a grid of design sizes.

A run is described by a JSON BenchmarkSpec; every (algorithm, n, k,
replication) cell draws its own random stream with
``stream = low64(sha256("alg|n|k|rep"))`` so cells are independent and any
single cell can be reproduced in isolation.  Replications may run in
worker processes; outputs are canonically ordered and identical to a
sequential run (timings aside).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from itertools import groupby, repeat

import numpy as np

from . import search as S
from .criteria import CriterionSpec
from .errors import InvalidConfigError, as_int
from .io import read_json
from .rng import RngStream

RESULT_COLUMNS = ("algorithm", "n", "k", "criterion", "rep", "seed", "stream",
                  "value", "evaluations", "elapsed_ms")
SUMMARY_COLUMNS = ("algorithm", "n", "k", "mean", "sd", "best")


@dataclass(frozen=True)
class BenchmarkSpec:
    """Grid of (n, k) cells x algorithms x replications under one criterion."""

    grid: tuple[tuple[int, int], ...]
    algorithms: tuple[str, ...]
    criterion: CriterionSpec
    replications: int
    budget: int
    base_seed: int
    weight: float | None = None       # sa-multiobj
    slices_t: int | None = None       # sa-sliced
    oa_name: str | None = None        # oasa: catalog name or OA CSV path, as --oa

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkSpec":
        try:
            spec = cls(
                grid=tuple((as_int(n, "grid"), as_int(k, "grid")) for n, k in d["grid"]),
                algorithms=_strings(d["algorithms"], "algorithms"),
                criterion=CriterionSpec.from_dict(d.get("criterion", {"kind": "phi_p"})),
                replications=as_int(d["replications"], "replications"),
                budget=as_int(d["budget"], "budget"),
                base_seed=as_int(d["base_seed"], "base_seed"),
                weight=d.get("weight"),
                slices_t=d.get("slices_t"),
                oa_name=d.get("oa"),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidConfigError(f"malformed benchmark spec: {e}") from e
        if spec.slices_t is not None:
            as_int(spec.slices_t, "slices_t")
        if not isinstance(spec.oa_name, (str, type(None))):
            raise InvalidConfigError(f"oa must be a catalog name or CSV path, got {spec.oa_name!r}")
        if not spec.grid or not spec.algorithms:
            raise InvalidConfigError("benchmark spec needs a non-empty grid and algorithms")
        for name, items in (("algorithm", spec.algorithms), ("grid cell", spec.grid)):
            repeated = [v for i, v in enumerate(items) if v in items[:i]]
            if repeated:
                raise InvalidConfigError(f"benchmark spec repeats the {name} {repeated[0]!r}")
        if spec.replications < 1:
            raise InvalidConfigError(f"replications must be positive, got {spec.replications}")
        # each cell passes the config and input checks of run() here, before any cell runs
        for a in spec.algorithms:
            config = _config(spec, a)
            missing = S.missing_inputs(a, weight=spec.weight, slices=spec.slices_t, oa=spec.oa_name)
            if missing:
                fields = " and ".join(repr(_FIELDS.get(m, m)) for m in missing)
                raise InvalidConfigError(f"{a} needs the spec field {fields}")
            for n, k in spec.grid:
                S._checked_search(config, spec.criterion, n, k, spec.slices_t, spec.oa_name)
        return spec

    @classmethod
    def from_json(cls, path) -> "BenchmarkSpec":
        return cls.from_dict(read_json(path))


_FIELDS = {"slices": "slices_t"}  # run() input -> spec field, where the names differ


def _strings(v, name: str) -> tuple[str, ...]:
    """A JSON array of strings (a bare string is not iterated as characters)."""
    if not isinstance(v, list) or not all(isinstance(a, str) for a in v):
        raise InvalidConfigError(f"{name} must be a list of strings, got {v!r}")
    return tuple(v)


def cell_stream(algorithm: str, n: int, k: int, rep: int) -> int:
    """Stream id for one replication: low 64 bits of sha256("alg|n|k|rep")."""
    digest = hashlib.sha256(f"{algorithm}|{n}|{k}|{rep}".encode()).digest()
    return int.from_bytes(digest[-8:], "big")


def _config(spec: BenchmarkSpec, algorithm: str, stream: int = 0) -> S.OptimizerConfig:
    """The config of the cells of ``algorithm``, on a cell's ``stream``."""
    return S.OptimizerConfig(algorithm=algorithm, max_evaluations=spec.budget,
                             seed=RngStream(spec.base_seed, stream), weight=spec.weight)


def _run_cell(spec: BenchmarkSpec, algorithm: str, n: int, k: int, rep: int) -> dict:
    stream = cell_stream(algorithm, n, k, rep)
    res = S.run(_config(spec, algorithm, stream), spec.criterion, n, k,
                slices=spec.slices_t, oa=spec.oa_name)
    return {
        "algorithm": algorithm,
        "n": n,
        "k": k,
        "criterion": res.config_echo["criterion"]["kind"],
        "rep": rep,
        "seed": spec.base_seed,
        "stream": stream,
        "value": res.value,
        "evaluations": res.evaluations_used,
        "elapsed_ms": res.elapsed * 1000.0,
    }


def run_benchmark(spec: BenchmarkSpec, workers: int = 1) -> tuple[list[dict], list[dict]]:
    """All cells x replications; returns (long-form rows, per-cell summary).

    With ``workers`` > 1 the cells run in a pool of worker processes (the
    searches hold the GIL, so threads would not overlap them), at most one
    per cell and per core.  Rows come back sorted by (algorithm, n, k, rep)
    no matter how many workers ran them, and every column but
    ``elapsed_ms`` depends only on the spec.
    """
    workers = as_int(workers, "workers")
    if workers < 1:
        raise InvalidConfigError(f"workers must be at least 1, got {workers}")
    cells = [
        (alg, n, k, rep)
        for alg in spec.algorithms
        for (n, k) in spec.grid
        for rep in range(1, spec.replications + 1)
    ]
    processes = min(workers, len(cells), os.cpu_count() or 1)
    if processes <= 1:
        rows = [_run_cell(spec, *cell) for cell in cells]
    else:
        # imported here: multiprocessing costs every cold lhdopt call ~20 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            rows = list(pool.map(_run_cell, repeat(spec), *zip(*cells)))
    rows.sort(key=lambda r: (r["algorithm"], r["n"], r["k"], r["rep"]))

    summary = []
    for (alg, n, k), group in groupby(rows, key=lambda r: (r["algorithm"], r["n"], r["k"])):
        arr = np.array([r["value"] for r in group], dtype=np.float64)
        sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        summary.append({
            "algorithm": alg, "n": n, "k": k,
            "mean": float(arr.mean()), "sd": sd, "best": float(arr.min()),
        })
    return rows, summary


def format_summary_table(summary: list[dict]) -> str:
    header = f"{'algorithm':<12} {'n':>4} {'k':>3} {'mean':>14} {'sd':>12} {'best':>14}"
    lines = [header, "-" * len(header)]
    for s in summary:
        lines.append(
            f"{s['algorithm']:<12} {s['n']:>4} {s['k']:>3} "
            f"{s['mean']:>14.8g} {s['sd']:>12.4g} {s['best']:>14.8g}"
        )
    return "\n".join(lines)
