"""Benchmark harness: algorithm comparison over a grid of design sizes.

A run is described by a JSON BenchmarkSpec; every (algorithm, n, k,
replication) cell draws its own random stream with
``stream = low64(sha256("alg|n|k|rep"))`` so cells are independent and any
single cell can be reproduced in isolation.  Replications may execute
concurrently; outputs are canonically ordered and identical to a sequential
run (timings aside).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import search as S
from .constructions import good_oa_catalog
from .criteria import CriterionSpec
from .design import make_slices
from .errors import InvalidConfigError
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
    oa_name: str | None = None        # oasa

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkSpec":
        try:
            spec = cls(
                grid=tuple((_integer(n, "grid"), _integer(k, "grid")) for n, k in d["grid"]),
                algorithms=_strings(d["algorithms"], "algorithms"),
                criterion=CriterionSpec.from_dict(d.get("criterion", {"kind": "phi_p"})),
                replications=_integer(d["replications"], "replications"),
                budget=_integer(d["budget"], "budget"),
                base_seed=_integer(d["base_seed"], "base_seed"),
                weight=d.get("weight"),
                slices_t=d.get("slices_t"),
                oa_name=d.get("oa"),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidConfigError(f"malformed benchmark spec: {e}") from e
        if spec.slices_t is not None:
            _integer(spec.slices_t, "slices_t")
        if not isinstance(spec.oa_name, (str, type(None))):
            raise InvalidConfigError(f"oa must be a catalog name string, got {spec.oa_name!r}")
        if isinstance(spec.weight, bool) or not isinstance(spec.weight, (int, float, type(None))):
            raise InvalidConfigError(f"weight must be a number, got {spec.weight!r}")
        if not spec.grid or not spec.algorithms:
            raise InvalidConfigError("benchmark spec needs a non-empty grid and algorithms")
        if spec.replications < 1 or spec.budget < 1:
            raise InvalidConfigError("replications and budget must be positive")
        for a in spec.algorithms:
            if a not in S.ALGORITHMS:
                raise InvalidConfigError(f"unknown algorithm {a!r}")
            if a == "sa-multiobj" and spec.weight is None:
                raise InvalidConfigError("sa-multiobj needs a 'weight' field")
            if a == "sa-sliced" and spec.slices_t is None:
                raise InvalidConfigError("sa-sliced needs a 'slices_t' field")
            if a == "oasa" and spec.oa_name is None:
                raise InvalidConfigError("oasa needs an 'oa' field naming a catalog array")
        return spec

    @classmethod
    def from_json(cls, path) -> "BenchmarkSpec":
        return cls.from_dict(read_json(path))


def _integer(v, name: str) -> int:
    """A JSON integer field: an int that is not a bool (floats are not truncated)."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidConfigError(f"{name} must be an integer, got {v!r}")
    return v


def _strings(v, name: str) -> tuple[str, ...]:
    """A JSON array of strings (a bare string is not iterated as characters)."""
    if not isinstance(v, list) or not all(isinstance(a, str) for a in v):
        raise InvalidConfigError(f"{name} must be a list of strings, got {v!r}")
    return tuple(v)


def cell_stream(algorithm: str, n: int, k: int, rep: int) -> int:
    """Stream id for one replication: low 64 bits of sha256("alg|n|k|rep")."""
    digest = hashlib.sha256(f"{algorithm}|{n}|{k}|{rep}".encode()).digest()
    return int.from_bytes(digest[-8:], "big")


def _run_cell(spec: BenchmarkSpec, algorithm: str, n: int, k: int, rep: int) -> dict:
    stream = cell_stream(algorithm, n, k, rep)
    seed = RngStream(spec.base_seed, stream)
    config = S.OptimizerConfig(
        algorithm=algorithm, max_evaluations=spec.budget, seed=seed,
        weight=spec.weight,
    )
    if algorithm == "sa":
        res = S.sa_search(n, k, spec.criterion, config)
    elif algorithm == "ga":
        res = S.ga_search(n, k, spec.criterion, config)
    elif algorithm == "lapso":
        res = S.lapso_search(n, k, spec.criterion, config)
    elif algorithm == "sa-multiobj":
        res = S.sa_multiobj_search(n, k, spec.weight, config,
                                   p=spec.criterion.p, q=spec.criterion.q)
    elif algorithm == "sa-sliced":
        res = S.sliced_sa_search(make_slices(n, spec.slices_t), k, spec.criterion, config)
    elif algorithm == "oasa":
        oa = good_oa_catalog(spec.oa_name)
        if (oa.N, oa.K) != (n, k):
            raise InvalidConfigError(
                f"grid cell ({n},{k}) does not match {spec.oa_name} = ({oa.N},{oa.K})"
            )
        res = S.oasa_search(oa, spec.criterion, config)
    else:  # unreachable: from_dict validates
        raise InvalidConfigError(f"unknown algorithm {algorithm!r}")
    return {
        "algorithm": algorithm,
        "n": n,
        "k": k,
        "criterion": spec.criterion.kind,
        "rep": rep,
        "seed": spec.base_seed,
        "stream": stream,
        "value": res.value,
        "evaluations": res.evaluations_used,
        "elapsed_ms": res.elapsed * 1000.0,
    }


def run_benchmark(spec: BenchmarkSpec, workers: int = 1) -> tuple[list[dict], list[dict]]:
    """All cells x replications; returns (long-form rows, per-cell summary).

    Rows come back sorted by (algorithm, n, k, rep) no matter how many
    workers ran them, and the value column depends only on the spec.
    """
    cells = [
        (alg, n, k, rep)
        for alg in spec.algorithms
        for (n, k) in spec.grid
        for rep in range(1, spec.replications + 1)
    ]
    if workers <= 1:
        rows = [_run_cell(spec, *cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda c: _run_cell(spec, *c), cells))
    rows.sort(key=lambda r: (r["algorithm"], r["n"], r["k"], r["rep"]))

    summary = []
    for alg in sorted(set(r["algorithm"] for r in rows)):
        for (n, k) in sorted(set((r["n"], r["k"]) for r in rows)):
            vals = [r["value"] for r in rows if (r["algorithm"], r["n"], r["k"]) == (alg, n, k)]
            if not vals:
                continue
            arr = np.array(vals, dtype=np.float64)
            sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
            summary.append({
                "algorithm": alg, "n": n, "k": k,
                "mean": float(arr.mean()), "sd": sd, "best": float(arr.min()),
            })
    return rows, summary


def write_rows_csv(path, rows: list[dict], columns: tuple[str, ...]) -> None:
    lines = [",".join(columns)]
    for r in rows:
        cells = []
        for c in columns:
            v = r[c]
            cells.append(repr(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def format_summary_table(summary: list[dict]) -> str:
    header = f"{'algorithm':<12} {'n':>4} {'k':>3} {'mean':>14} {'sd':>12} {'best':>14}"
    lines = [header, "-" * len(header)]
    for s in summary:
        lines.append(
            f"{s['algorithm']:<12} {s['n']:>4} {s['k']:>3} "
            f"{s['mean']:>14.8g} {s['sd']:>12.4g} {s['best']:>14.8g}"
        )
    return "\n".join(lines)
