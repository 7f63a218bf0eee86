"""Benchmark harness: spec parsing, reproducibility, concurrency invariance."""

import concurrent.futures
import json
import multiprocessing
import os

import pytest

from lhdopt import search as S
from lhdopt.benchmark import (
    BenchmarkSpec,
    cell_stream,
    format_summary_table,
    run_benchmark,
)
from lhdopt.cli import main
from lhdopt.constructions import good_oa_catalog
from lhdopt.errors import (
    IndivisibleRunsError,
    InvalidConfigError,
    InvalidDimensionError,
    InvalidParameterError,
    TooFewColumnsError,
)
from lhdopt.io import write_oa


def small_spec(**overrides):
    d = {
        "grid": [[4, 2]],
        "algorithms": ["sa", "ga"],
        "criterion": {"kind": "phi_p", "p": 15, "q": 1},
        "replications": 2,
        "budget": 1500,
        "base_seed": 99,
    }
    d.update(overrides)
    return BenchmarkSpec.from_dict(d)


class TestSpecParsing:
    def test_round_trip(self):
        spec = small_spec()
        assert spec.grid == ((4, 2),) and spec.replications == 2

    def test_malformed(self):
        with pytest.raises(InvalidConfigError):
            BenchmarkSpec.from_dict({"grid": []})
        with pytest.raises(InvalidConfigError):
            small_spec(algorithms=["sa", "walrus"])
        with pytest.raises(InvalidConfigError):
            small_spec(algorithms=["sa-multiobj"])  # missing weight
        with pytest.raises(InvalidConfigError):
            small_spec(replications=0)
        # integer fields take JSON integers only; weight takes a number, not a bool;
        # algorithms is a list of strings, oa a string; exponents are not bools
        for field, value in [("grid", [[5.7, 2]]), ("grid", [[5, True]]),
                             ("budget", 10.9), ("budget", "1500"),
                             ("replications", 1.5), ("replications", True),
                             ("base_seed", 1.5), ("slices_t", 2.0),
                             ("weight", "0.5"), ("weight", True), ("weight", [0.5]),
                             ("algorithms", "sa"), ("algorithms", ["sa", 1]), ("oa", 5),
                             ("criterion", {"kind": "phi_p", "p": True}),
                             ("criterion", {"kind": "phi_p", "q": True})]:
            with pytest.raises(InvalidConfigError):
                small_spec(**{field: value})

    @pytest.mark.parametrize("alg,field", [("sa-multiobj", "'weight'"),
                                           ("sa-sliced", "'slices_t'"), ("oasa", "'oa'")])
    def test_missing_field_is_named(self, alg, field):
        with pytest.raises(InvalidConfigError, match=f"{alg} needs the spec field {field}$"):
            small_spec(algorithms=["sa", alg])

    def test_sa_multiobj_criterion_checked_before_any_cell_runs(self):
        with pytest.raises(InvalidConfigError, match="phi_p or combo, got maxpro$"):
            small_spec(algorithms=["sa", "sa-multiobj"], weight=0.5,
                       criterion={"kind": "maxpro"})
        assert small_spec(algorithms=["sa-multiobj"], weight=0.5,
                          criterion={"kind": "combo", "weight": 0.5}).algorithms == ("sa-multiobj",)
        with pytest.raises(InvalidConfigError, match="weight 0.3 differs from the combo"):
            small_spec(algorithms=["sa-multiobj"], weight=0.3,
                       criterion={"kind": "combo", "weight": 0.7})

    @pytest.mark.parametrize("overrides,error,message", [
        ({"grid": [[8, 2], [9, 2]], "algorithms": ["sa", "sa-sliced"], "slices_t": 2},
         IndivisibleRunsError, "run count 9 not divisible by t=2"),
        ({"grid": [[8, 2]], "algorithms": ["sa-sliced"], "slices_t": 8},
         IndivisibleRunsError, "need at least 2 runs per slice, got m=1"),
        ({"base_seed": -1}, InvalidParameterError, r"seed must be an integer in \[0, 2\^64\)"),
        ({"weight": 1.5}, InvalidConfigError, r"weight must be in \[0,1\], got 1.5"),
        ({"grid": [[4, 2], [1, 2]], "algorithms": ["sa"]},
         InvalidDimensionError, "need n >= 2 and k >= 1, got n=1, k=2"),
        ({"grid": [[4, 2], [4, 0]], "algorithms": ["sa"]},
         InvalidDimensionError, "need n >= 2 and k >= 1, got n=4, k=0"),
        ({"grid": [[4, 2], [4, 1]], "algorithms": ["sa"], "criterion": {"kind": "maxcor"}},
         TooFewColumnsError, "need at least 2 columns, got k=1"),
    ])
    def test_cell_inputs_that_run_refuses_are_refused_at_load(self, overrides, error, message):
        # each loaded at the parent and stopped only when a run reached the cell
        with pytest.raises(error, match=message):
            small_spec(**overrides)

    def test_cell_streams_are_distinct_and_stable(self):
        s1 = cell_stream("sa", 4, 2, 1)
        assert s1 == cell_stream("sa", 4, 2, 1)
        assert s1 != cell_stream("sa", 4, 2, 2)
        assert s1 != cell_stream("ga", 4, 2, 1)


class TestRunBenchmark:
    def test_row_count_and_order(self):
        rows, summary = run_benchmark(small_spec())
        assert len(rows) == 4  # 1 cell x 2 algorithms x 2 reps
        keys = [(r["algorithm"], r["rep"]) for r in rows]
        assert keys == sorted(keys)
        assert {s["algorithm"] for s in summary} == {"sa", "ga"}
        assert format_summary_table(summary)

    def test_single_rep_single_cell(self):
        rows, _ = run_benchmark(small_spec(algorithms=["sa"], replications=1))
        assert len(rows) == 1

    def test_values_reproducible(self):
        a, _ = run_benchmark(small_spec())
        b, _ = run_benchmark(small_spec())
        assert [r["value"] for r in a] == [r["value"] for r in b]

    def test_concurrency_invariance(self):
        seq, _ = run_benchmark(small_spec())
        par, _ = run_benchmark(small_spec(), workers=3)
        assert [r["value"] for r in seq] == [r["value"] for r in par]
        assert [(r["algorithm"], r["rep"]) for r in seq] == \
            [(r["algorithm"], r["rep"]) for r in par]

    @pytest.mark.parametrize("workers", [0, -1, True, 2.0])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(InvalidConfigError, match="workers must be"):
            run_benchmark(small_spec(), workers=workers)

    def test_pool_is_capped_at_cells_and_cores(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Records the pool size it is asked for and runs the cells here."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        seq, _ = run_benchmark(small_spec())  # 4 cells
        for cores in (None, 1, 3, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            rows, _ = run_benchmark(small_spec(), workers=10**6)
            assert [r["value"] for r in rows] == [r["value"] for r in seq]
        assert sizes == [3, 4]  # no pool for one core, else min(cells, cores)

    def test_process_pool_rows_equal_sequential_rows(self, monkeypatch):
        sizes = []

        class RecordedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        seq, seq_summary = run_benchmark(small_spec())
        par, par_summary = run_benchmark(small_spec(), workers=2)
        assert sizes == [2]
        assert multiprocessing.active_children() == []  # the pool joined its workers
        assert [{c: v for c, v in r.items() if c != "elapsed_ms"} for r in par] == \
            [{c: v for c, v in r.items() if c != "elapsed_ms"} for r in seq]
        assert par_summary == seq_summary

    def test_structured_algorithms(self):
        spec = small_spec(
            grid=[[8, 3]], algorithms=["sa-sliced", "sa-multiobj"],
            weight=0.5, slices_t=2, replications=1, budget=800,
        )
        rows, _ = run_benchmark(spec)
        assert len(rows) == 2
        # each row names the criterion its value is: sa-multiobj optimises combo
        assert {r["algorithm"]: r["criterion"] for r in rows} == {
            "sa-sliced": "phi_p", "sa-multiobj": "combo"}

    def test_oasa_grid_must_match(self):
        spec = small_spec(grid=[[9, 4]], algorithms=["oasa"], oa="OA(9,4,3,2)",
                          replications=1, budget=500)
        rows, _ = run_benchmark(spec)
        assert rows[0]["n"] == 9 and rows[0]["k"] == 4
        # refused when the spec loads, before any cell runs
        with pytest.raises(InvalidConfigError, match=r"^\(n, k\) = \(8, 4\) does not match"):
            small_spec(grid=[[9, 4], [8, 4]], algorithms=["oasa"], oa="OA(9,4,3,2)",
                       replications=1, budget=500)

    def test_oa_field_resolves_like_the_cli_option(self, tmp_path):
        path = write_oa(tmp_path / "oa9.csv", good_oa_catalog("OA(9,4,3,2)"))
        rows = {}
        for oa in ("OA(9,4,3,2)", str(path)):
            spec = small_spec(grid=[[9, 4]], algorithms=["oasa"], oa=oa, budget=300)
            rows[oa] = [r["value"] for r in run_benchmark(spec)[0]]
        assert rows["OA(9,4,3,2)"] == rows[str(path)]


class TestBenchmarkCli:
    def test_end_to_end(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "grid": [[4, 2]], "algorithms": ["sa"],
            "criterion": {"kind": "phi_p"},
            "replications": 1, "budget": 600, "base_seed": 1,
        }))
        out = tmp_path / "res.csv"
        summ = tmp_path / "sum.csv"
        assert main(["benchmark", str(spec_file), "-o", str(out),
                     "--summary", str(summ)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("algorithm,n,k,criterion,rep,seed,stream,value")
        assert len(lines) == 2
        assert "algorithm" in capsys.readouterr().out

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "grid": [[4, 2]], "algorithms": ["sa"], "replications": 1,
            "budget": 100, "base_seed": 1,
        }))
        out = tmp_path / "no-such-dir" / "r.csv"
        assert main(["benchmark", str(spec_file), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"lhdopt: cannot write {out}: ")

    def test_malformed_spec_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": [[4, 2]]}))
        assert main(["benchmark", str(bad), "-o", str(tmp_path / "r.csv")]) == 2

    def test_string_weight_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "grid": [[4, 2]], "algorithms": ["sa-multiobj"], "criterion": {"kind": "phi_p"},
            "replications": 1, "budget": 600, "base_seed": 1, "weight": "0.5",
        }))
        assert main(["benchmark", str(bad), "-o", str(tmp_path / "r.csv")]) == 2
        assert "weight must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("upper", [float("nan"), "x"])
    def test_non_numeric_norm_upper_exits_2(self, tmp_path, capsys, upper):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "grid": [[4, 2]], "algorithms": ["sa"],
            "criterion": {"kind": "combo", "weight": 0.5, "norm_upper": upper},
            "replications": 1, "budget": 600, "base_seed": 1,
        }))
        assert main(["benchmark", str(bad), "-o", str(tmp_path / "r.csv")]) == 2
        assert "norm_upper must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "grid": [[4, 2]], "algorithms": ["sa"], "replications": 1,
            "budget": 600, "base_seed": 1,
        }))
        assert main(["benchmark", str(spec_file), "-o", str(tmp_path / "r.csv"),
                     "--workers", workers]) == 2
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err

    def test_cell_error_in_a_worker_exits_like_a_sequential_run(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # use the pool on any runner
        spec_file = tmp_path / "spec.json"
        # the spec loads; each cell's random start overflows the maxpro pair
        # products, which no load-time check can see
        spec_file.write_text(json.dumps({
            "grid": [[300, 150]], "algorithms": ["sa"], "criterion": {"kind": "maxpro"},
            "replications": 2, "budget": 10, "base_seed": 1,
        }))
        BenchmarkSpec.from_json(spec_file)
        errs = []
        for workers in ("1", "2"):
            assert main(["benchmark", str(spec_file), "-o", str(tmp_path / "r.csv"),
                         "--workers", workers]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("lhdopt: maxpro pair products overflow float64 at n=300, k=150;")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("grid,criterion,message", [
        ([[4, 2], [1, 2]], "phi_p", "need n >= 2 and k >= 1, got n=1, k=2"),
        ([[4, 2], [4, 1]], "maxcor", "need at least 2 columns, got k=1"),
    ])
    def test_a_cell_size_the_search_refuses_exits_2_before_any_cell_runs(
            self, tmp_path, capsys, monkeypatch, grid, criterion, message):
        monkeypatch.setattr(S, "sa_search", lambda *a: pytest.fail("a cell ran"))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "grid": grid, "algorithms": ["sa"], "criterion": {"kind": criterion},
            "replications": 1, "budget": 100, "base_seed": 1,
        }))
        out = tmp_path / "r.csv"
        assert main(["benchmark", str(spec_file), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"lhdopt: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"algorithms": ["sa", "sa"]}, "benchmark spec repeats the algorithm 'sa'"),
        ({"grid": [[12, 4], [12, 4]]}, "benchmark spec repeats the grid cell (12, 4)"),
    ])
    def test_a_repeated_algorithm_or_grid_cell_exits_2_with_no_csv(
            self, tmp_path, capsys, monkeypatch, overrides, message):
        # refused at load: a repeat would run its cells twice under the same rep numbers
        monkeypatch.setattr(S, "sa_search", lambda *a: pytest.fail("a cell ran"))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"grid": [[12, 4]], "algorithms": ["sa"],
                                         "replications": 2, "budget": 200, "base_seed": 1,
                                         **overrides}))
        out = tmp_path / "r.csv"
        assert main(["benchmark", str(spec_file), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"lhdopt: {message}\n"
        assert not out.exists()

    def test_value_column_byte_identical_across_workers(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "grid": [[5, 2]], "algorithms": ["sa", "lapso"],
            "criterion": {"kind": "phi_p"},
            "replications": 2, "budget": 800, "base_seed": 7,
        }))
        cols = []
        for tag, workers in (("a", "1"), ("b", "4")):
            out = tmp_path / f"{tag}.csv"
            assert main(["benchmark", str(spec_file), "-o", str(out),
                         "--workers", workers]) == 0
            rows = out.read_text().strip().splitlines()[1:]
            cols.append([",".join(r.split(",")[:8]) for r in rows])  # drop elapsed
        assert cols[0] == cols[1]
