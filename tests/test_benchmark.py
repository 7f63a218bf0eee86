"""Benchmark harness: spec parsing, reproducibility, concurrency invariance."""

import json

import pytest

from lhdopt.benchmark import (
    BenchmarkSpec,
    cell_stream,
    format_summary_table,
    run_benchmark,
)
from lhdopt.cli import main
from lhdopt.errors import InvalidConfigError


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

    def test_structured_algorithms(self):
        spec = small_spec(
            grid=[[8, 3]], algorithms=["sa-sliced", "sa-multiobj"],
            weight=0.5, slices_t=2, replications=1, budget=800,
        )
        rows, _ = run_benchmark(spec)
        assert len(rows) == 2

    def test_oasa_grid_must_match(self):
        spec = small_spec(grid=[[9, 4]], algorithms=["oasa"], oa="OA(9,4,3,2)",
                          replications=1, budget=500)
        rows, _ = run_benchmark(spec)
        assert rows[0]["n"] == 9 and rows[0]["k"] == 4
        bad = small_spec(grid=[[8, 4]], algorithms=["oasa"], oa="OA(9,4,3,2)",
                         replications=1, budget=500)
        with pytest.raises(InvalidConfigError):
            run_benchmark(bad)


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
