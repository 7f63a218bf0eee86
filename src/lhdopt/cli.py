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
from pathlib import Path

import numpy as np

from . import __version__, _kernels, benchmark as bench, constructions as cons, criteria as crit
from . import io as lio
from . import search as S
from .criteria import CriterionSpec
from .design import make_slices, random_lhd, validate
from .errors import InvalidDesignError, LhdError
from .rng import RngStream

CONSTRUCTIONS = ("ye1998", "cioppa2007", "sun2010", "butler2001", "lin2009", "oalhd")


def _load_oa(name_or_path: str):
    """Resolve --oa: a bundled catalog name, or a path to CSV + JSON sidecar."""
    if Path(name_or_path).exists():
        return lio.read_oa(name_or_path)
    return cons.good_oa_catalog(name_or_path)


ORTHOGONAL_TOL = 1e-12  # a design is reported orthogonal below this


def _standard_criteria(design: np.ndarray, p: int = 15, q: int = 1) -> dict:
    """Criterion values recorded in generate/search metadata."""
    k = design.shape[1]
    vals = {
        "phi_p": crit.phi_p(design, p, q),
        "maxpro": crit.maxpro_psi(design),
    }
    if k >= 2:
        vals["avgcor"] = crit.avg_abs_cor(design)
        vals["maxcor"] = crit.max_abs_cor(design)
        vals["orthogonal"] = bool(vals["maxcor"] <= ORTHOGONAL_TOL)
    else:
        vals["avgcor"] = None
        vals["maxcor"] = None
        vals["orthogonal"] = None
    return vals


def _add_seed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    p.add_argument("--stream", type=int, default=0, help="64-bit stream id (default 0)")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    if args.random == (args.construction is not None):
        raise LhdError("choose exactly one of --random or --construction")
    params: dict = {}
    if args.random:
        if args.n is None or args.k is None:
            raise LhdError("--random needs -n and -k")
        X = random_lhd(args.n, args.k, RngStream(args.seed, args.stream))
        generator = "random"
        params = {"n": args.n, "k": args.k}
    else:
        name = args.construction
        if name == "ye1998" or name == "cioppa2007":
            if args.m is None:
                raise LhdError(f"{name} needs --m")
            fn = cons.olhd_ye1998 if name == "ye1998" else cons.olhd_cioppa2007
            X = fn(args.m)
            params = {"m": args.m}
        elif name == "sun2010":
            if args.c is None or args.r is None:
                raise LhdError("sun2010 needs --c and --r")
            X = cons.olhd_sun2010(args.c, args.r, args.plus_one)
            params = {"c": args.c, "r": args.r, "plus_one": args.plus_one}
        elif name == "butler2001":
            if args.n is None or args.k is None:
                raise LhdError("butler2001 needs --n and --k")
            X = cons.olhd_butler2001(args.n, args.k)
            params = {"n": args.n, "k": args.k}
        elif name == "oalhd":
            if args.oa is None:
                raise LhdError("oalhd needs --oa (a catalog name)")
            oa = _load_oa(args.oa)
            rng = None if args.fill == "deterministic" else RngStream(args.seed, args.stream)
            X = cons.oa_to_lhd(oa, rng)
            params = {"oa": args.oa, "fill": args.fill}
        elif name == "lin2009":
            if args.oa is None or args.base_csv is None:
                raise LhdError("lin2009 needs --oa and --base-csv")
            base = lio.read_design(args.base_csv)
            X = cons.olhd_lin2009(base, _load_oa(args.oa))
            params = {"oa": args.oa, "base_csv": str(args.base_csv)}
        else:  # argparse choices make this unreachable
            raise LhdError(f"unknown construction {name!r}")
        generator = name

    out = lio.write_design(args.output, X)
    meta = {
        "generator": generator,
        "parameters": params,
        "n": int(X.shape[0]),
        "k": int(X.shape[1]),
        "seed": args.seed,
        "stream": args.stream,
        "criteria": _standard_criteria(X),
    }
    lio.write_json(lio.sidecar_path(out), meta)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _criterion_from_args(args) -> CriterionSpec:
    kw = {"kind": args.criterion, "p": args.p, "q": args.q}
    if args.criterion == "combo":
        if args.weight is None:
            raise LhdError("criterion 'combo' needs --weight")
        kw["weight"] = args.weight
    return CriterionSpec(**kw)


def _config_from_args(args) -> S.OptimizerConfig:
    return S.OptimizerConfig(
        algorithm=args.alg,
        max_evaluations=args.budget,
        seed=RngStream(args.seed, args.stream),
        t0=args.t0,
        alpha=args.alpha,
        moves_per_temp=args.moves_per_temp,
        column_mode=args.column_mode,
        population=args.pop,
        pmut=args.pmut,
        swarm=args.swarm,
        same_num_p=args.same_num_p,
        same_num_g=args.same_num_g,
        weight=args.weight,
    )


def run_search_from_args(args) -> S.SearchResult:
    config = _config_from_args(args)
    if args.alg == "sa-multiobj":
        if args.weight is None:
            raise LhdError("sa-multiobj needs --weight")
        _require_nk(args)
        return S.sa_multiobj_search(args.n, args.k, args.weight, config,
                                    p=args.p, q=args.q)
    spec = _criterion_from_args(args)
    if args.alg == "oasa":
        if args.oa is None:
            raise LhdError("oasa needs --oa (a catalog name)")
        result = S.oasa_search(_load_oa(args.oa), spec, config)
        result.config_echo["oa_name"] = args.oa  # replayable from metadata alone
        return result
    if args.alg == "sa-sliced":
        if args.slices is None:
            raise LhdError("sa-sliced needs --slices")
        _require_nk(args)
        return S.sliced_sa_search(make_slices(args.n, args.slices), args.k, spec, config)
    _require_nk(args)
    fn = {"sa": S.sa_search, "ga": S.ga_search, "lapso": S.lapso_search}[args.alg]
    return fn(args.n, args.k, spec, config)


def _require_nk(args) -> None:
    if args.n is None or args.k is None:
        raise LhdError(f"{args.alg} needs -n and -k")


def _cmd_search(args) -> int:
    result = run_search_from_args(args)
    out = lio.write_design(args.output, result.best)
    meta = {
        "value": result.value,
        "evaluations_used": result.evaluations_used,
        "elapsed_ms": result.elapsed * 1000.0,
        "config": result.config_echo,
        "criteria": _standard_criteria(result.best),
        # a seeded run reproduces only within one kernel mode
        "kernels": _kernels.ACTIVE,
    }
    if result.extras:
        meta["extras"] = result.extras
    lio.write_json(lio.sidecar_path(out), meta)
    if args.trace:
        lio.write_trace(args.trace, result.trace)
    print(out)
    return 0


def search_from_echo(echo: dict) -> S.SearchResult:
    """Replay a search run from the metadata echo alone."""
    ns = argparse.Namespace(
        alg=echo["algorithm"], n=echo.get("n"), k=echo.get("k"),
        criterion=echo["criterion"]["kind"], p=echo["criterion"].get("p", 15),
        q=echo["criterion"].get("q", 1), weight=echo.get("weight"),
        budget=echo["max_evaluations"], seed=echo["seed"], stream=echo["stream"],
        t0=echo.get("t0"), alpha=echo.get("alpha", 0.95),
        moves_per_temp=echo.get("moves_per_temp"),
        column_mode=echo.get("column_mode", "cycle"),
        pop=echo.get("population", 10), pmut=echo.get("pmut"),
        swarm=echo.get("swarm", 10), same_num_p=echo.get("same_num_p"),
        same_num_g=echo.get("same_num_g"),
        oa=echo.get("oa_name"), slices=(echo.get("slices") or {}).get("t"),
    )
    return run_search_from_args(ns)


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
    values = {}
    for name in wanted:
        if name == "combo":
            if args.weight is None:
                raise LhdError("criterion 'combo' needs --weight")
            spec = CriterionSpec("combo", p=args.p, q=args.q, weight=args.weight)
        else:
            spec = CriterionSpec(name, p=args.p, q=args.q)
        values[name] = crit.evaluate(X, spec)
    out = {"valid": True, "n": report.n, "k": report.k, "criteria": values}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def _cmd_benchmark(args) -> int:
    spec = bench.BenchmarkSpec.from_json(args.spec)
    rows, summary = bench.run_benchmark(spec, workers=args.workers)
    bench.write_rows_csv(args.output, rows, bench.RESULT_COLUMNS)
    if args.summary:
        bench.write_rows_csv(args.summary, summary, bench.SUMMARY_COLUMNS)
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
    g.add_argument("--construction", choices=CONSTRUCTIONS)
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
    s.add_argument("--p", type=int, default=15, help="phi_p exponent (default 15)")
    s.add_argument("--q", type=int, default=1, choices=(1, 2), help="distance exponent")
    s.add_argument("--weight", type=float, help="combo / sa-multiobj weight in [0,1]")
    s.add_argument("--slices", type=int, help="sa-sliced: slice count t")
    s.add_argument("--oa", help="oasa: catalog OA name or OA CSV path")
    s.add_argument("--t0", type=float, help="SA initial temperature")
    s.add_argument("--alpha", type=float, default=0.95, help="SA cooling rate")
    s.add_argument("--moves-per-temp", type=int, help="SA moves per temperature")
    s.add_argument("--column-mode", choices=("cycle", "random"), default="cycle")
    s.add_argument("--pop", type=int, default=10, help="GA population size")
    s.add_argument("--pmut", type=float, help="GA/LaPSO mutation probability")
    s.add_argument("--swarm", type=int, default=10, help="LaPSO swarm size")
    s.add_argument("--same-num-p", type=int, help="LaPSO swaps toward personal best")
    s.add_argument("--same-num-g", type=int, help="LaPSO swaps toward global best")
    s.add_argument("-o", "--output", required=True, help="best-design CSV path")
    s.add_argument("--trace", help="optional trace CSV path")
    s.set_defaults(fn=_cmd_search)

    e = sub.add_parser("evaluate", help="criterion report for a design file")
    e.add_argument("design", help="design CSV path")
    e.add_argument("--criteria", default="phi_p,maxpro,avgcor,maxcor",
                   help="comma-separated criterion names")
    e.add_argument("--p", type=int, default=15)
    e.add_argument("--q", type=int, default=1, choices=(1, 2))
    e.add_argument("--weight", type=float)
    e.set_defaults(fn=_cmd_evaluate)

    b = sub.add_parser("benchmark", help="run a benchmark spec")
    b.add_argument("spec", help="BenchmarkSpec JSON path")
    b.add_argument("-o", "--output", required=True, help="long-form results CSV")
    b.add_argument("--summary", help="optional summary CSV path")
    b.add_argument("--workers", type=int, default=1,
                   help="concurrent replications (results identical to sequential)")
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
