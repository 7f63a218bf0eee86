"""The benchmark's four workloads: what one pass runs and how it is checked.

Every workload is a closed loop: one client in one process runs its search
runs or CLI calls one after another.  A pass is a fixed list of operations;
its inputs depend only on the workload seed, so every pass of a run repeats
the same work and the same results.  The library receives only the
generated inputs: (seed, stream) pairs, design sizes, criterion specs and,
for ``cli-grid``, command lines and a benchmark spec file.

An operation counts as failed when any output check fails:

- ``lhd``: the returned design is not a valid LHD;
- ``value``: the reported value differs from ``criteria.evaluate(best,
  CriterionSpec.from_dict(config_echo["criterion"]))`` by more than 1e-10
  relative (for ``evaluate`` calls, the printed values against the same);
- ``evaluations``: ``evaluations_used`` differs from the budget;
- ``exit``: a CLI call exited non-zero;
- ``replay``: re-running a spot-checked grid row from its (seed, stream)
  gives a different value.

A ``value`` mismatch that a documented defect explains is recorded as a
defect instead of a problem: it still fails the operation, but does not
make the run incorrect (see :func:`known_defect`).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io as _io
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lhdopt import criteria as C
from lhdopt import search as S
from lhdopt.constructions import good_oa_catalog
from lhdopt.design import distance_matrix, make_slices, validate
from lhdopt.io import read_design, read_json
from lhdopt.rng import RngStream

import speed

REL_TOL = 1e-10
GRID_WORKERS = 2
CLI_TIMEOUT_S = 150

# largest relative value error that the phi_p drift defect has been seen to
# cause (1.3e-8); a bigger error is a new fault, not this defect
DRIFT_TOL = 1e-6

# the command `lhdopt` runs, as its console-script entry point does
LHDOPT_LAUNCH = "import sys; from lhdopt.cli import main; sys.exit(main())"


@dataclass
class Op:
    """One search run or one CLI call of a pass, and what its checks found."""

    label: str
    wall_s: float
    n: int = 0
    k: int = 0
    evaluations: int = 0
    quality: float | None = None     # value / trace[0][1]
    problems: list[str] = field(default_factory=list)
    defects: list[str] = field(default_factory=list)   # failed checks a known defect explains

    @property
    def ok(self) -> bool:
        return not self.problems and not self.defects

    @property
    def kind(self) -> str:
        """The label without its replicate number."""
        return self.label.split("/rep")[0]

    def row(self) -> dict:
        return {"label": self.label, "n": self.n, "k": self.k, "wall_s": self.wall_s,
                "evaluations": self.evaluations, "quality": self.quality,
                "ok": self.ok, "problems": self.problems, "defects": self.defects}


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * abs(expected)


def check_design(X) -> list[str]:
    report = validate(X)
    return [] if report.ok else ["lhd: " + "; ".join(report.problems)]


def known_defect(best, value: float, expected: float, spec: C.CriterionSpec,
                 algorithm: str) -> str | None:
    """The documented defect that explains a value mismatch, if any.

    Both come from the incremental phi_p state (``phi_p`` and ``combo``) of
    the annealers' ``Evaluator``, which keeps the raw pair sum of d^-p
    (ROADMAP item 4); GA and LaPSO evaluate every design in full:

    - underflow: at large p every term d^-p is 0.0 in float64, so the search
      reports 0.0 (the ``anneal`` p=200 run, on every seed);
    - drift: when the sum falls by orders of magnitude between two state
      refreshes, cancellation leaves a relative error above 1e-10 (seen on
      about one seed in 40 for ``sa`` at 16x5 and one in 150 for
      ``sa-multiobj`` at 12x4).
    """
    if spec.kind not in ("phi_p", "combo") or algorithm in ("ga", "lapso"):
        return None
    if spec.kind == "phi_p" and value == 0.0:
        D = distance_matrix(best, spec.q)
        dmin = float(D[np.triu_indices(len(D), k=1)].min())
        if dmin ** -float(spec.p) == 0.0:
            return f"phi_p underflow: dmin^-p = {dmin:g}^-{spec.p} is 0.0 in float64"
    if abs(value - expected) < DRIFT_TOL * abs(expected):
        return "phi_p drift: the incremental pair sum lost relative precision"
    return None


def check_result(best, value: float, echo: dict, evaluations: int,
                 budget: int) -> tuple[list[str], list[str]]:
    """(problems, known defects) of a search output, from the API or the CLI."""
    problems = check_design(best)
    defects = []
    if not problems:
        spec = C.CriterionSpec.from_dict(echo["criterion"])
        expected = C.evaluate(best, spec)
        if not close(value, expected):
            line = f"value: reported {value!r}, evaluate(best) gives {expected!r}"
            defect = known_defect(best, value, expected, spec, echo["algorithm"])
            if defect is None:
                problems.append(line)
            else:
                defects.append(f"{line} [known defect, {defect}]")
    if evaluations != budget:
        problems.append(f"evaluations: used {evaluations}, budget {budget}")
    return problems, defects


def scaled(budget: int, scale: float) -> int:
    return max(40, int(budget * scale))


# ---------------------------------------------------------------------------
# library workloads: anneal, anneal-hot, population
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchRun:
    """One search call: algorithm, size, criterion and hyperparameters."""

    alg: str
    n: int
    k: int
    criterion: dict
    budget: int
    alpha: float = 0.95
    weight: float | None = None   # sa-multiobj
    slices: int | None = None     # sa-sliced: slice count t
    oa: str | None = None         # oasa: catalog name
    rep: int = 1                  # replicate number: same call, its own stream

    @property
    def label(self) -> str:
        c = dict(self.criterion)
        name = c.pop("kind")
        name += "".join(f"-{key}{c[key]}" for key in ("p", "q") if key in c)
        label = f"{self.alg}/{name}/{self.n}x{self.k}"
        if self.alpha != 0.95:
            label += f"/alpha{self.alpha}"
        return label if self.rep == 1 else f"{label}/rep{self.rep}"


def anneal_runs(scale: float) -> list[SearchRun]:
    # long enough for the default schedule to cool: about half the proposals commit
    b = scaled(9000, scale)
    phi = {"kind": "phi_p"}
    return [
        SearchRun("sa", 16, 5, phi, b),
        SearchRun("sa", 50, 8, phi, b),
        SearchRun("sa", 200, 10, phi, b),
        SearchRun("sa", 50, 8, {"kind": "phi_p", "q": 2}, b),
        SearchRun("sa", 50, 8, {"kind": "maxpro"}, b),
        SearchRun("sa", 50, 8, {"kind": "avgcor"}, b),
        SearchRun("sa", 50, 8, {"kind": "maxcor"}, b),
        SearchRun("sa-multiobj", 50, 8, {"kind": "combo", "weight": 0.5}, b, weight=0.5),
        SearchRun("oasa", 25, 6, phi, b, oa="OA(25,6,5,2)"),
        SearchRun("sa-sliced", 48, 8, phi, b, slices=4),
        SearchRun("sa", 60, 10, {"kind": "phi_p", "p": 200}, b),
    ]


# Replicates of each run, each on its own stream: the quality ratio and
# LaPSO's data-dependent work (about 30% between seeds, per run) vary from
# seed to seed, and more runs per pass average that out.

def anneal_hot_runs(scale: float) -> list[SearchRun]:
    b = scaled(4000, scale)
    return [run
            for rep in (1, 2)
            for run in (
                SearchRun("sa", 50, 8, {"kind": "phi_p"}, b, alpha=0.999, rep=rep),
                SearchRun("sa", 50, 8, {"kind": "maxpro"}, b, alpha=0.999, rep=rep),
                SearchRun("sa-multiobj", 50, 8, {"kind": "combo", "weight": 0.5}, b,
                          alpha=0.999, weight=0.5, rep=rep),
            )]


def population_runs(scale: float) -> list[SearchRun]:
    # a LaPSO evaluation costs about four GA ones; equal run times keep the
    # median operation time inside one cluster instead of between two
    budgets = {"ga": scaled(600, scale), "lapso": scaled(150, scale)}
    return [SearchRun(alg, 50, 8, {"kind": kind}, budgets[alg], rep=rep)
            for rep in range(1, 7) for alg in ("ga", "lapso") for kind in ("phi_p", "maxpro")]


class LibraryWorkload:
    """Search runs called through the ``lhdopt.search`` module attributes,
    so that installed span wrappers see every call."""

    uses_cli = False
    calibrated = True

    def __init__(self, name: str, runs: list[SearchRun], seed: int):
        self.name = name
        self.runs = runs
        self.calls = [self._prepare(run, RngStream(seed, stream))
                      for stream, run in enumerate(runs)]

    @staticmethod
    def _prepare(run: SearchRun, rng: RngStream) -> tuple[str, tuple, dict]:
        spec = C.CriterionSpec.from_dict(run.criterion)
        config = S.OptimizerConfig(algorithm=run.alg, max_evaluations=run.budget, seed=rng,
                                   alpha=run.alpha, weight=run.weight)
        if run.alg == "sa-multiobj":
            return "sa_multiobj_search", (run.n, run.k, run.weight, config), \
                {"p": spec.p, "q": spec.q}
        if run.alg == "oasa":
            return "oasa_search", (good_oa_catalog(run.oa), spec, config), {}
        if run.alg == "sa-sliced":
            return "sliced_sa_search", (make_slices(run.n, run.slices), run.k, spec, config), {}
        return f"{run.alg}_search", (run.n, run.k, spec, config), {}

    def steps(self, tracer=None) -> list[tuple[str, object]]:
        """(label, call) per search run; a call returns (run, result or error)."""
        def call(run, fn, args, kwargs):
            if tracer is not None:
                tracer.run_id += 1
            try:
                return run, getattr(S, fn)(*args, **kwargs)
            except Exception as e:  # counted as a failed operation, not fatal
                return run, e

        return [(run.label, functools.partial(call, run, *prepared))
                for run, prepared in zip(self.runs, self.calls)]

    def check(self, op: Op, payload) -> None:
        run, res = payload
        op.n, op.k = run.n, run.k
        if isinstance(res, Exception):
            op.problems = [f"error: {type(res).__name__}: {res}"]
            return
        op.evaluations = res.evaluations_used
        op.problems, op.defects = check_result(res.best, res.value, res.config_echo,
                                               res.evaluations_used, run.budget)
        start = res.trace[0][1]
        if op.ok and start != 0.0:
            op.quality = res.value / start


# ---------------------------------------------------------------------------
# cli-grid
# ---------------------------------------------------------------------------


@dataclass
class CliCall:
    label: str
    kind: str            # generate | search | evaluate | grid
    argv: list[str]
    output: Path | None = None
    budget: int = 0


class CliGridWorkload:
    """About twenty cold ``lhdopt`` processes, then one ``lhdopt benchmark
    --workers 2`` grid; every call is a fresh interpreter."""

    uses_cli = True
    # process start and imports dominate these calls, and the in-process
    # speed reference does not track them: calibrating raised the run-to-run
    # spread of call_s_p50 from 10% to 13% over five seeds
    calibrated = False

    def __init__(self, seed: int, scale: float, workdir: Path, root: Path, env: dict):
        self.name = "cli-grid"
        self.seed = seed
        self.root = root
        self.env = env
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        w = workdir
        s = str(seed)
        gen = [
            ("ye1998", ["--construction", "ye1998", "--m", "3"]),
            ("cioppa2007", ["--construction", "cioppa2007", "--m", "3"]),
            ("sun2010", ["--construction", "sun2010", "--c", "2", "--r", "2"]),
            ("butler2001", ["--construction", "butler2001", "--n", "11", "--k", "3"]),
            ("oalhd", ["--construction", "oalhd", "--oa", "OA(9,4,3,2)", "--seed", s]),
            ("random", ["--random", "-n", "20", "-k", "5", "--seed", s]),
        ]
        calls = [CliCall(f"generate/{name}", "generate",
                         ["generate", *args, "-o", str(w / f"g_{name}.csv")], w / f"g_{name}.csv")
                 for name, args in gen]
        budget = scaled(2000, scale)
        searches = [
            ("sa-phi_p", ["-n", "12", "-k", "4", "--alg", "sa", "--criterion", "phi_p"]),
            ("sa-maxpro", ["-n", "12", "-k", "4", "--alg", "sa", "--criterion", "maxpro"]),
            ("oasa", ["--alg", "oasa", "--oa", "OA(9,4,3,2)"]),
            ("sa-multiobj", ["-n", "12", "-k", "4", "--alg", "sa-multiobj", "--weight", "0.5"]),
            ("sa-sliced", ["-n", "12", "-k", "3", "--alg", "sa-sliced", "--slices", "3"]),
            ("ga", ["-n", "12", "-k", "4", "--alg", "ga"]),
            ("lapso", ["-n", "12", "-k", "4", "--alg", "lapso"]),
        ]
        for stream, (name, args) in enumerate(searches):
            out = w / f"s_{name}.csv"
            calls.append(CliCall(
                f"search/{name}", "search",
                ["search", *args, "--budget", str(budget), "--seed", s, "--stream", str(stream),
                 "-o", str(out), "--trace", str(w / f"t_{name}.csv")], out, budget))
        for name, _ in searches:
            out = w / f"s_{name}.csv"
            calls.append(CliCall(f"evaluate/{name}", "evaluate",
                                 ["evaluate", str(out), "--criteria", "phi_p,maxpro,avgcor,maxcor"],
                                 out))
        self.grid_spec = {
            "grid": [[10, 3], [16, 5]],
            "algorithms": ["sa", "ga", "lapso", "sa-multiobj"],
            "criterion": {"kind": "phi_p", "p": 15, "q": 1},
            "replications": 2,
            "budget": scaled(1000, scale),
            "base_seed": seed,
            "weight": 0.5,
        }
        spec_path = w / "grid_spec.json"
        spec_path.write_text(json.dumps(self.grid_spec, indent=2) + "\n")
        calls.append(CliCall("benchmark/grid", "grid",
                             ["benchmark", str(spec_path), "-o", str(w / "grid.csv"),
                              "--workers", str(GRID_WORKERS)], w / "grid.csv",
                             self.grid_spec["budget"]))
        self.cli_calls = calls
        self.run_ids = 0

    def steps(self, tracer=None) -> list[tuple[str, object]]:
        """(label, call) per CLI call; a call returns (call, finished process).
        ``tracer`` here is a directory: traced calls run through
        ``traced_cli.py`` and leave one span summary file each in it."""
        def call(cli_call, cmd):
            return cli_call, subprocess.run(cmd, cwd=self.root, env=self.env,
                                            capture_output=True, text=True,
                                            timeout=CLI_TIMEOUT_S)

        out = []
        for cli_call in self.cli_calls:
            self.run_ids += 1
            if tracer is None:
                cmd = [sys.executable, "-c", LHDOPT_LAUNCH, *cli_call.argv]
            else:
                summary = Path(tracer) / f"run{self.run_ids}.json"
                cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                       str(summary), str(self.run_ids), *cli_call.argv]
            out.append((cli_call.label, functools.partial(call, cli_call, cmd)))
        return out

    def check(self, op: Op, payload) -> None:
        call, proc = payload
        if proc.returncode != 0:
            op.problems = [f"exit: code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            return
        getattr(self, f"_check_{call.kind}")(op, call, proc)

    def _check_generate(self, op: Op, call: CliCall, proc) -> None:
        X = read_design(call.output)
        op.n, op.k = X.shape
        op.problems = check_design(X)
        meta = read_json(call.output.with_suffix(".json"))
        if (meta["n"], meta["k"]) != X.shape:
            op.problems.append(f"lhd: sidecar says {meta['n']}x{meta['k']}, CSV is {X.shape}")

    def _check_search(self, op: Op, call: CliCall, proc) -> None:
        X = read_design(call.output)
        meta = read_json(call.output.with_suffix(".json"))
        op.n, op.k = X.shape
        op.evaluations = meta["evaluations_used"]
        op.problems, op.defects = check_result(X, meta["value"], meta["config"],
                                               op.evaluations, call.budget)
        trace_path = Path(call.argv[call.argv.index("--trace") + 1])
        with trace_path.open() as f:
            start = float(list(csv.DictReader(f))[0]["best_value"])
        if op.ok and start != 0.0:
            op.quality = meta["value"] / start

    def _check_evaluate(self, op: Op, call: CliCall, proc) -> None:
        X = read_design(call.output)
        op.n, op.k = X.shape
        report = json.loads(proc.stdout)
        if not report.get("valid"):
            op.problems.append("lhd: evaluate reports the design invalid")
        for name, value in report["criteria"].items():
            expected = C.evaluate(X, C.CriterionSpec(name))
            if not close(value, expected):
                op.problems.append(f"value: {name} printed {value!r}, evaluate gives {expected!r}")

    def _check_grid(self, op: Op, call: CliCall, proc) -> None:
        with call.output.open() as f:
            rows = list(csv.DictReader(f))
        spec = self.grid_spec
        want = len(spec["grid"]) * len(spec["algorithms"]) * spec["replications"]
        if len(rows) != want:
            op.problems.append(f"evaluations: {len(rows)} grid rows, expected {want}")
        op.evaluations = sum(int(r["evaluations"]) for r in rows)
        op.n, op.k = max((int(r["n"]), int(r["k"])) for r in rows)
        for r in rows:
            if int(r["evaluations"]) != call.budget:
                op.problems.append(f"evaluations: {r['algorithm']} {r['n']}x{r['k']} rep "
                                   f"{r['rep']} used {r['evaluations']}, budget {call.budget}")
        for r in random.Random(self.seed).sample(rows, min(2, len(rows))):
            value = self._replay(r, call.budget)
            if value != float(r["value"]):
                op.problems.append(f"replay: {r['algorithm']} {r['n']}x{r['k']} stream "
                                   f"{r['stream']} gives {value!r}, grid row {r['value']}")

    def _replay(self, row: dict, budget: int) -> float:
        """Re-run one grid row from its (seed, stream) through ``lhdopt search``."""
        import lhdopt.cli  # only the checks need it; setup_s times `import lhdopt`

        out = self.workdir / "replay.csv"
        argv = ["search", "-n", row["n"], "-k", row["k"], "--alg", row["algorithm"],
                "--criterion", row["criterion"], "--budget", str(budget),
                "--seed", row["seed"], "--stream", row["stream"], "-o", str(out)]
        if row["algorithm"] == "sa-multiobj":
            argv += ["--weight", str(self.grid_spec["weight"])]
        with contextlib.redirect_stdout(_io.StringIO()):
            code = lhdopt.cli.main(argv)
        if code != 0:
            return float("nan")
        return read_json(out.with_suffix(".json"))["value"]


# ---------------------------------------------------------------------------


def run_pass(wl, tracer=None) -> tuple[list[tuple[Op, object]], float]:
    """Time every operation of one pass of ``wl``; also return the mean of
    speed-reference samples taken before the first operation and after
    each one, outside the timed calls (``speed.NOMINAL_S``, i.e. no
    calibration, for a workload that is not calibrated)."""
    sample = speed.sample if wl.calibrated else lambda: speed.NOMINAL_S
    clock = time.perf_counter
    out = []
    samples = [sample()]
    for label, call in wl.steps(tracer):
        t0 = clock()
        payload = call()
        out.append((Op(label, clock() - t0), payload))
        samples.append(sample())
    return out, sum(samples) / len(samples)


WORKLOADS = ("anneal", "anneal-hot", "population", "cli-grid")
_RUNS = {"anneal": anneal_runs, "anneal-hot": anneal_hot_runs, "population": population_runs}


def make(name: str, seed: int, scale: float, workdir: Path, root: Path, env: dict):
    """Generate the workload's inputs from the seed."""
    if name == "cli-grid":
        return CliGridWorkload(seed, scale, workdir, root, env)
    return LibraryWorkload(name, _RUNS[name](scale), seed)
