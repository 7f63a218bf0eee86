"""Command-line front end: generate, search, evaluate, benchmark.

Exit codes: 0 success, 2 usage or invalid parameters, 3 internal invariant
violation (never expected), 4 invalid design handed to ``evaluate``.  All
outputs are UTF-8 with LF newlines; timings in metadata are informational
and excluded from the determinism guarantees.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, _kernels, benchmark as bench, constructions as cons, criteria as crit
from . import io as lio
from . import search as S
from .criteria import CriterionSpec
from .design import random_lhd, validate
from .errors import InvalidDesignError, InvalidDimensionError, LhdError, TooFewColumnsError
from .rng import RngStream


_SIDECAR_KINDS = ("phi_p", "maxpro", "avgcor", "maxcor")  # also evaluate's default


def _standard_criteria(design: np.ndarray) -> dict:
    """Criterion values recorded in generate/search metadata: informational,
    so None where the design has too few columns or overflows float64."""
    vals = {}
    for kind in _SIDECAR_KINDS:
        try:
            vals[kind] = crit.evaluate(design, CriterionSpec(kind))
        except (TooFewColumnsError, InvalidDimensionError):
            vals[kind] = None
    vals["orthogonal"] = None if vals["maxcor"] is None else vals["maxcor"] == 0.0  # exact
    return vals


def _add_seed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    p.add_argument("--stream", type=int, default=0, help="64-bit stream id (default 0)")


def _add_criterion_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, help=f"phi_p exponent (default {CriterionSpec.p})")
    p.add_argument("--q", type=int, choices=(1, 2), help="distance exponent")
    p.add_argument("--weight", type=float, help="combo (or sa-multiobj) weight in [0,1]")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


# generator -> (the options it needs, the options its sidecar records, the
# builder of its design from the parsed arguments); a builder looks its
# function up when it is called, so a wrapper installed on a module
# attribute such as ``lhdopt.constructions.olhd_ye1998`` sees the call
GENERATORS = {
    "random": (("n", "k"), ("n", "k"),
               lambda a: random_lhd(a.n, a.k, RngStream(a.seed, a.stream))),
    "ye1998": (("m",), ("m",), lambda a: cons.olhd_ye1998(a.m)),
    "cioppa2007": (("m",), ("m",), lambda a: cons.olhd_cioppa2007(a.m)),
    "sun2010": (("c", "r"), ("c", "r", "plus_one"),
                lambda a: cons.olhd_sun2010(a.c, a.r, a.plus_one)),
    "butler2001": (("n", "k"), ("n", "k"), lambda a: cons.olhd_butler2001(a.n, a.k)),
    "lin2009": (("oa", "base_csv"), ("oa", "base_csv"),
                lambda a: cons.olhd_lin2009(lio.read_design(a.base_csv), lio.load_oa(a.oa))),
    "oalhd": (("oa",), ("oa", "fill"),
              lambda a: cons.oa_to_lhd(lio.load_oa(a.oa), None if a.fill == "deterministic"
                                       else RngStream(a.seed, a.stream))),
}


def _cmd_generate(args) -> int:
    if args.random == (args.construction is not None):
        raise LhdError("choose exactly one of --random or --construction")
    generator = args.construction or "random"
    needs, records, build = GENERATORS[generator]
    missing = ["--" + name.replace("_", "-") for name in needs if getattr(args, name) is None]
    if missing:
        raise LhdError(f"{generator} needs {' and '.join(missing)}")
    lio.check_writable(args.output, lio.sidecar_path(args.output))
    X = build(args)
    meta = {
        "generator": generator,
        "parameters": {name: getattr(args, name) for name in records},
        "n": int(X.shape[0]),
        "k": int(X.shape[1]),
        "seed": args.seed,
        "stream": args.stream,
        "criteria": _standard_criteria(X),
    }
    out = lio.write_design(args.output, X)
    lio.write_json(lio.sidecar_path(out), meta)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _given(args, names) -> dict:
    """The options among ``names`` that are given; the library defaults the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _criterion_from_args(args, kind: str) -> CriterionSpec:
    if kind == "combo" and args.weight is None:
        raise LhdError("criterion 'combo' needs --weight")
    names = ("p", "q", "weight") if kind == "combo" else ("p", "q")
    return CriterionSpec(kind, **_given(args, names))


def _config_from_args(args) -> S.OptimizerConfig:
    return S.OptimizerConfig(algorithm=args.alg, max_evaluations=args.budget,
                             seed=RngStream(args.seed, args.stream),
                             **_given(args, S.HYPERPARAMETERS))


def _cmd_search(args) -> int:
    lio.check_writable(args.output, args.trace, lio.sidecar_path(args.output))
    spec = _criterion_from_args(args, args.criterion)
    result = S.run(_config_from_args(args), spec, args.n, args.k, slices=args.slices, oa=args.oa)
    meta = {
        "value": result.value,
        "evaluations_used": result.evaluations_used,
        "elapsed_ms": result.elapsed * 1000.0,
        "config": result.config_echo,
        "criteria": _standard_criteria(result.best),
        "kernels": _kernels.ACTIVE,
    }
    if result.extras:
        meta["extras"] = result.extras
    out = lio.write_design(args.output, result.best)
    lio.write_json(lio.sidecar_path(out), meta)
    if args.trace:
        lio.write_trace(args.trace, result.trace)
    print(out)
    return 0


def search_from_echo(echo: dict) -> S.SearchResult:
    """Replay a search run from the metadata echo alone."""
    return S.run(S.OptimizerConfig.from_echo(echo), CriterionSpec.from_dict(echo["criterion"]),
                 echo["n"], echo["k"], slices=echo.get("slices", {}).get("t"),
                 oa=echo.get("oa_name"))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _cmd_evaluate(args) -> int:
    X = lio.read_design(args.design)
    report = validate(X)
    if not report.ok:
        out = {"valid": False, "n": report.n, "k": report.k,
               "column_ok": report.column_ok, "problems": report.problems}
        print(json.dumps(out, indent=2, sort_keys=True))
        raise InvalidDesignError("; ".join(report.problems))
    wanted = [c.strip() for c in args.criteria.split(",") if c.strip()]
    values = {name: crit.evaluate(X, _criterion_from_args(args, name)) for name in wanted}
    out = {"valid": True, "n": report.n, "k": report.k, "criteria": values}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def _cmd_benchmark(args) -> int:
    lio.check_writable(args.output, args.summary)
    spec = bench.BenchmarkSpec.from_json(args.spec)
    rows, summary = bench.run_benchmark(spec, workers=args.workers)
    lio.write_rows_csv(args.output, rows, bench.RESULT_COLUMNS)
    if args.summary:
        lio.write_rows_csv(args.summary, summary, bench.SUMMARY_COLUMNS)
    print(bench.format_summary_table(summary))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhdopt",
        description="Generate, optimize, and evaluate efficient Latin hypercube designs.",
    )
    parser.add_argument("--version", action="version", version=f"lhdopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random or constructed design")
    g.add_argument("--random", action="store_true", help="random LHD (needs -n, -k, --seed)")
    g.add_argument("--construction", choices=[name for name in GENERATORS if name != "random"])
    g.add_argument("-n", "--n", type=int, dest="n")
    g.add_argument("-k", "--k", type=int, dest="k")
    g.add_argument("--m", type=int, help="ye1998/cioppa2007 parameter")
    g.add_argument("--c", type=int, help="sun2010 parameter c")
    g.add_argument("--r", type=int, help="sun2010 parameter r")
    g.add_argument("--plus-one", action="store_true", help="sun2010: add the center row")
    g.add_argument("--oa", help="catalog OA name, e.g. 'OA(9,4,3,2)', or an OA CSV path")
    g.add_argument("--fill", choices=("random", "deterministic"), default="random",
                   help="oalhd fine-level fill (default random)")
    g.add_argument("--base-csv", help="lin2009: CSV of the base (N)OLHD")
    _add_seed_args(g)
    g.add_argument("-o", "--output", required=True, help="design CSV path")
    g.set_defaults(fn=_cmd_generate)

    s = sub.add_parser("search", help="run a metaheuristic optimizer")
    s.add_argument("-n", "--n", type=int, dest="n")
    s.add_argument("-k", "--k", type=int, dest="k")
    s.add_argument("--alg", required=True, choices=S.ALGORITHMS)
    s.add_argument("--criterion", default="phi_p", choices=crit.KINDS)
    s.add_argument("--budget", type=int, required=True, help="criterion evaluations")
    _add_seed_args(s)
    _add_criterion_args(s)
    s.add_argument("--slices", type=int, help="sa-sliced: slice count t")
    s.add_argument("--oa", help="oasa: catalog OA name or OA CSV path")
    s.add_argument("--t0", type=float, help="SA initial temperature")
    s.add_argument("--alpha", type=float, help="SA cooling rate")
    s.add_argument("--moves-per-temp", type=int, help="SA moves per temperature")
    s.add_argument("--column-mode", choices=("cycle", "random"))
    s.add_argument("--pop", type=int, dest="population", help="GA population size")
    s.add_argument("--pmut", type=float, help="GA/LaPSO mutation probability")
    s.add_argument("--swarm", type=int, help="LaPSO swarm size")
    s.add_argument("--same-num-p", type=int, help="LaPSO swaps toward personal best")
    s.add_argument("--same-num-g", type=int, help="LaPSO swaps toward global best")
    s.add_argument("-o", "--output", required=True, help="best-design CSV path")
    s.add_argument("--trace", help="optional trace CSV path")
    s.set_defaults(fn=_cmd_search)

    e = sub.add_parser("evaluate", help="criterion report for a design file")
    e.add_argument("design", help="design CSV path")
    e.add_argument("--criteria", default=",".join(_SIDECAR_KINDS),
                   help="comma-separated criterion names")
    _add_criterion_args(e)
    e.set_defaults(fn=_cmd_evaluate)

    b = sub.add_parser("benchmark", help="run a benchmark spec")
    b.add_argument("spec", help="BenchmarkSpec JSON path")
    b.add_argument("-o", "--output", required=True, help="long-form results CSV")
    b.add_argument("--summary", help="optional summary CSV path")
    b.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per cell and per core "
                        "(results identical to a sequential run)")
    b.set_defaults(fn=_cmd_benchmark)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidDesignError as e:
        print(f"lhdopt: invalid design: {e}", file=sys.stderr)
        return 4
    except LhdError as e:
        print(f"lhdopt: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal invariant violation
        print(f"lhdopt: internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
