"""CLI behavior: file outputs, exit codes, determinism, metadata replay."""

import argparse
import json
import warnings
from dataclasses import MISSING, fields

import numpy as np
import pytest

from lhdopt import (
    CriterionSpec,
    OptimizerConfig,
    RngStream,
    _kernels,
    ga_search,
    good_oa_catalog,
    lapso_search,
    make_slices,
    max_abs_cor,
    maxpro_psi,
    oasa_search,
    phi_p,
    sa_multiobj_search,
    sa_search,
    sliced_sa_search,
    validate,
)
from lhdopt import cli, criteria as crit, search as S
from lhdopt.cli import main, search_from_echo
from lhdopt.errors import InvalidConfigError, InvalidParameterError
from lhdopt.io import read_design


def run(args):
    return main(args)


def _cfg(alg, budget, **kw):
    return OptimizerConfig(algorithm=alg, max_evaluations=budget, seed=RngStream(3, 1), **kw)


COMBO = CriterionSpec("combo", weight=0.5)

# library runs made without the CLI, so without a top-level echo weight
LIBRARY_RUNS = {
    "sa-multiobj": lambda: sa_multiobj_search(6, 3, 0.5, _cfg("sa-multiobj", 600)),
    "sa-multiobj-q2": lambda: sa_multiobj_search(6, 3, 0.8, _cfg("sa-multiobj", 600), p=10, q=2),
    "sa-combo": lambda: sa_search(6, 3, COMBO, _cfg("sa", 600)),
    "sa-sliced-combo": lambda: sliced_sa_search(make_slices(6, 3), 3, COMBO,
                                                _cfg("sa-sliced", 600)),
    "ga-combo": lambda: ga_search(6, 3, COMBO, _cfg("ga", 100, pmut=0.5)),
    "lapso-combo": lambda: lapso_search(6, 3, COMBO, _cfg("lapso", 100, swarm=4)),
    "sa-random-t0": lambda: sa_search(6, 3, CriterionSpec("maxpro"),
                                      _cfg("sa", 600, column_mode="random", t0=0.2)),
}


class TestGenerate:
    def test_construction_ye(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run(["generate", "--construction", "ye1998", "--m", "3",
                    "-o", str(out)]) == 0
        assert capsys.readouterr().out.strip() == str(out)
        X = read_design(out)
        assert X.shape == (9, 4) and validate(X).ok
        meta = json.loads((tmp_path / "d.json").read_text())
        assert meta["criteria"]["maxcor"] <= 1e-12

    def test_random_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["generate", "--random", "-n", "5", "-k", "2",
                        "--seed", "1", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_butler_non_prime_exits_2(self, tmp_path, capsys):
        code = run(["generate", "--construction", "butler2001", "--n", "9",
                    "--k", "2", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "odd prime" in capsys.readouterr().err

    def test_oalhd_and_lin2009(self, tmp_path):
        base = tmp_path / "base.csv"
        assert run(["generate", "--construction", "ye1998", "--m", "2",
                    "-o", str(base)]) == 0
        out = tmp_path / "lin.csv"
        assert run(["generate", "--construction", "lin2009", "--oa", "OA(25,6,5,2)",
                    "--base-csv", str(base), "-o", str(out)]) == 0
        X = read_design(out)
        assert X.shape == (25, 12) and max_abs_cor(X) <= 1e-12
        out2 = tmp_path / "oalhd.csv"
        assert run(["generate", "--construction", "oalhd", "--oa", "OA(9,4,3,2)",
                    "--fill", "deterministic", "-o", str(out2)]) == 0
        assert read_design(out2).shape == (9, 4)

    def test_missing_choice_exits_2(self, tmp_path):
        assert run(["generate", "-o", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.csv"
        assert run(["generate", "--random", "-n", "5", "-k", "2", "--seed", "1",
                    "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"lhdopt: cannot write {out}: ")

    @pytest.mark.parametrize("args,missing", [
        (["--random", "-n", "4"], "random needs --k"),
        (["--construction", "ye1998"], "ye1998 needs --m"),
        (["--construction", "cioppa2007"], "cioppa2007 needs --m"),
        (["--construction", "sun2010", "--c", "2"], "sun2010 needs --r"),
        (["--construction", "sun2010"], "sun2010 needs --c and --r"),
        (["--construction", "butler2001", "--k", "3"], "butler2001 needs --n"),
        (["--construction", "oalhd"], "oalhd needs --oa"),
        (["--construction", "lin2009", "--oa", "OA(25,6,5,2)"], "lin2009 needs --base-csv"),
        (["--construction", "lin2009"], "lin2009 needs --oa and --base-csv"),
    ])
    def test_missing_option_exits_2_and_is_named(self, tmp_path, capsys, args, missing):
        out = tmp_path / "x.csv"
        assert run(["generate", *args, "-o", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"lhdopt: {missing}"
        assert not out.exists()

    @pytest.mark.parametrize("args,shape,orthogonal", [
        (["--construction", "cioppa2007", "--m", "4"], (17, 7), True),
        (["--construction", "sun2010", "--c", "2", "--r", "2"], (16, 4), True),
        (["--construction", "sun2010", "--c", "1", "--r", "1", "--plus-one"], (5, 2), True),
        (["--construction", "butler2001", "--n", "7", "--k", "3"], (7, 3), True),
        (["--construction", "butler2001", "--n", "11", "--k", "10"], (11, 10), False),
    ])
    def test_all_constructions_via_cli(self, tmp_path, args, shape, orthogonal):
        out = tmp_path / "c.csv"
        assert run(["generate"] + args + ["-o", str(out)]) == 0
        X = read_design(out)
        assert X.shape == shape and validate(X).ok
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["criteria"]["orthogonal"] is orthogonal

    def test_an_overflowing_maxpro_is_recorded_as_null(self, tmp_path, capsys):
        # a valid 256 x 128 OLHD whose maxpro pair products overflow float64
        out = tmp_path / "big.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would fail the command
            assert run(["generate", "--construction", "sun2010", "--c", "7", "--r", "1",
                        "-o", str(out)]) == 0
        criteria = json.loads((tmp_path / "big.json").read_text())["criteria"]
        assert criteria["maxpro"] is None and criteria["orthogonal"] is True
        capsys.readouterr()
        # asked for by name, maxpro still fails
        assert run(["evaluate", str(out), "--criteria", "maxpro"]) == 2
        assert "maxpro pair products overflow float64" in capsys.readouterr().err

    def test_a_design_named_like_its_sidecar_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d.json"  # the sidecar of d.json is d.json itself
        assert run(["generate", "--random", "-n", "4", "-k", "2", "-o", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"lhdopt: cannot write {out}: two outputs name this one file\n"
        assert list(tmp_path.iterdir()) == []

    def test_one_column_sidecar(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["generate", "--random", "-n", "5", "-k", "1", "-o", str(out)]) == 0
        criteria = json.loads(out.with_suffix(".json").read_text())["criteria"]
        assert criteria["avgcor"] is criteria["maxcor"] is criteria["orthogonal"] is None
        X = read_design(out)
        assert criteria["phi_p"] == phi_p(X) and criteria["maxpro"] == maxpro_psi(X)

    def test_orthogonal_is_an_exact_zero_maxcor(self, monkeypatch):
        X = np.array([[1, 1], [2, 2], [3, 3]], dtype=np.int64)
        assert cli._standard_criteria(X)["orthogonal"] is False
        monkeypatch.setattr(crit, "max_abs_cor", lambda design: 5e-13)
        vals = cli._standard_criteria(X)
        assert vals["maxcor"] == 5e-13 and vals["orthogonal"] is False
        monkeypatch.setattr(crit, "max_abs_cor", lambda design: 0.0)
        assert cli._standard_criteria(X)["orthogonal"] is True


class TestSearch:
    def test_sa_reaches_optimum_and_writes_everything(self, tmp_path):
        from test_search import brute_force_phi_optimum

        out = tmp_path / "s.csv"
        trace = tmp_path / "t.csv"
        assert run(["search", "-n", "4", "-k", "2", "--alg", "sa",
                    "--criterion", "phi_p", "--budget", "20000", "--seed", "3",
                    "-o", str(out), "--trace", str(trace)]) == 0
        meta = json.loads((tmp_path / "s.json").read_text())
        assert meta["value"] == pytest.approx(brute_force_phi_optimum(4), rel=1e-9)
        assert meta["kernels"] == _kernels.ACTIVE
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "evaluation_index,best_value"
        assert len(lines) >= 2

    def test_an_overflowing_maxpro_does_not_fail_the_search(self, tmp_path):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["search", "-n", "300", "-k", "80", "--alg", "sa", "--criterion", "phi_p",
                        "--budget", "200", "-o", str(out)]) == 0
        meta = json.loads((tmp_path / "s.json").read_text())
        assert meta["criteria"]["maxpro"] is None
        assert meta["criteria"]["phi_p"] == meta["value"] == phi_p(read_design(out))

    def test_an_overflowing_maxpro_search_is_a_typed_error(self, tmp_path, capsys):
        # the pair products of a 300 x 150 LHD overflow float64
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would exit 3
            assert run(["search", "-n", "300", "-k", "150", "--alg", "sa", "--criterion", "maxpro",
                        "--budget", "10", "-o", str(out)]) == 2
        assert "maxpro pair products overflow float64 at n=300, k=150" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_lapso_maxcor_beats_random_baseline(self, tmp_path):
        from lhdopt import RngStream, random_lhd

        wins = 0
        for seed in range(10):
            out = tmp_path / f"m{seed}.csv"
            assert run(["search", "-n", "9", "-k", "4", "--alg", "lapso",
                        "--criterion", "maxcor", "--budget", "3000",
                        "--seed", str(seed), "-o", str(out)]) == 0
            meta = json.loads(out.with_suffix(".json").read_text())
            baseline = max_abs_cor(random_lhd(9, 4, RngStream(seed)))
            if meta["value"] < baseline:
                wins += 1
        assert wins > 5

    def test_unknown_algorithm_exits_2(self, tmp_path):
        # argparse rejects the choice itself and exits with the usage code
        with pytest.raises(SystemExit) as exc:
            run(["search", "-n", "4", "-k", "2", "--alg", "tabu",
                 "--budget", "10", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["search", "generate", "benchmark"])
    def test_unknown_oa_message_unquoted(self, tmp_path, capsys, command):
        out = str(tmp_path / "x.csv")
        if command == "search":
            args = ["search", "--alg", "oasa", "--oa", "nope", "--budget", "10", "-o", out]
        elif command == "generate":
            args = ["generate", "--construction", "oalhd", "--oa", "nope", "-o", out]
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({
                "grid": [[9, 4]], "algorithms": ["oasa"], "oa": "nope",
                "replications": 1, "budget": 10, "base_seed": 1,
            }))
            args = ["benchmark", str(spec), "-o", out]
        assert run(args) == 2
        assert capsys.readouterr().err.startswith("lhdopt: unknown catalog OA 'nope'")

    def test_seeded_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            assert run(["search", "-n", "6", "-k", "3", "--alg", "ga",
                        "--budget", "2000", "--seed", "11", "-o", str(out)]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        ma = json.loads(outs[0].with_suffix(".json").read_text())
        mb = json.loads(outs[1].with_suffix(".json").read_text())
        assert ma["value"] == mb["value"]
        assert ma["criteria"] == mb["criteria"]

    @pytest.mark.parametrize("extra", [
        ["--alg", "sa-sliced", "--slices", "2"],
        ["--alg", "sa-multiobj", "--weight", "0.9"],
    ])
    def test_structured_algorithms(self, tmp_path, extra):
        out = tmp_path / "x.csv"
        assert run(["search", "-n", "8", "-k", "3", "--budget", "2000",
                    "--seed", "1", "-o", str(out)] + extra) == 0
        assert validate(read_design(out)).ok

    def test_oasa_from_catalog(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["search", "--alg", "oasa", "--oa", "OA(9,4,3,2)",
                    "--budget", "1000", "--seed", "2", "-o", str(out)]) == 0
        assert read_design(out).shape == (9, 4)

    @pytest.mark.parametrize("args", [
        ["-n", "6", "-k", "3", "--alg", "lapso", "--budget", "1500", "--seed", "13"],
        ["-n", "6", "-k", "3", "--alg", "sa", "--budget", "1500", "--seed", "13"],
        ["-n", "8", "-k", "3", "--alg", "sa-sliced", "--slices", "2",
         "--budget", "1500", "--seed", "13"],
        ["--alg", "oasa", "--oa", "OA(9,4,3,2)", "--budget", "1500", "--seed", "13"],
        ["-n", "6", "-k", "3", "--alg", "sa-multiobj", "--weight", "0.7",
         "--budget", "1500", "--seed", "13"],
    ])
    def test_replay_from_metadata_echo(self, tmp_path, args):
        out = tmp_path / "s.csv"
        assert run(["search"] + args + ["-o", str(out)]) == 0
        meta = json.loads(out.with_suffix(".json").read_text())
        replayed = search_from_echo(meta["config"])
        assert np.array_equal(replayed.best, read_design(out))
        assert replayed.value == meta["value"]

    @pytest.mark.parametrize("name", sorted(LIBRARY_RUNS))
    def test_replay_of_library_runs(self, name):
        result = LIBRARY_RUNS[name]()
        replayed = search_from_echo(result.config_echo)
        assert np.array_equal(replayed.best, result.best)
        assert replayed.value == result.value
        assert replayed.config_echo == result.config_echo  # a replay echoes its run

    def test_edited_echo_with_an_unknown_criterion_field_is_typed(self):
        echo = LIBRARY_RUNS["sa-random-t0"]().config_echo
        echo = {**echo, "criterion": {**echo["criterion"], "foo": 1}}
        with pytest.raises(InvalidConfigError, match="foo"):
            search_from_echo(echo)

    def test_edited_echo_with_a_bool_seed_is_refused(self):
        echo = {**LIBRARY_RUNS["sa-random-t0"]().config_echo, "seed": True}
        with pytest.raises(InvalidParameterError, match=r"seed must be an integer in \[0, 2\^64\)"):
            search_from_echo(echo)

    def test_library_oasa_echo_has_no_array(self):
        result = oasa_search(good_oa_catalog("OA(9,4,3,2)"), CriterionSpec("phi_p"),
                             _cfg("oasa", 200))
        assert "oa_name" not in result.config_echo
        with pytest.raises(InvalidConfigError, match="oasa needs oa$"):
            search_from_echo(result.config_echo)

    @pytest.mark.parametrize("nk", [["-n", "8", "-k", "4"], ["-n", "9", "-k", "3"]])
    def test_oasa_size_mismatch_exits_2(self, tmp_path, capsys, nk):
        code = run(["search", "--alg", "oasa", "--oa", "OA(9,4,3,2)", *nk, "--budget", "100",
                    "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "does not match OA(9,4,3,2) = (9, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("args,missing", [
        (["--alg", "sa", "-k", "3"], "sa needs n"),
        (["--alg", "sa-multiobj", "-n", "6", "-k", "3"], "sa-multiobj needs weight"),
        (["--alg", "sa-sliced", "-n", "6", "-k", "3"], "sa-sliced needs slices"),
        (["--alg", "oasa"], "oasa needs oa"),
    ])
    def test_missing_input_exits_2(self, tmp_path, capsys, args, missing):
        assert run(["search", *args, "--budget", "100", "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.strip() == f"lhdopt: {missing}"

    def test_sa_multiobj_other_criterion_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["search", "-n", "6", "-k", "3", "--alg", "sa-multiobj", "--criterion",
                    "maxpro", "--weight", "0.5", "--budget", "100", "-o", str(out)]) == 2
        assert "sa-multiobj takes criterion phi_p or combo, got maxpro" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_trace_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "no-such-dir" / "t.csv"
        assert run(["search", "-n", "6", "-k", "3", "--alg", "sa", "--budget", "100",
                    "-o", str(tmp_path / "x.csv"), "--trace", str(trace)]) == 2
        assert capsys.readouterr().err.startswith(f"lhdopt: cannot write {trace}: ")

    def test_unwritable_trace_leaves_no_output(self, tmp_path, capsys):
        # every output path is checked before the search runs, so a failed
        # command writes neither the design nor its sidecar
        out, trace = tmp_path / "x.csv", tmp_path / "no-such-dir" / "t.csv"
        assert run(["search", "-n", "6", "-k", "3", "--alg", "sa", "--budget", "100",
                    "-o", str(out), "--trace", str(trace)]) == 2
        assert capsys.readouterr().err.startswith(f"lhdopt: cannot write {trace}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("trace", ["s.csv", "s.json"])
    def test_a_trace_named_like_another_output_exits_2(self, tmp_path, capsys, trace):
        assert run(["search", "-n", "6", "-k", "2", "--alg", "sa", "--budget", "50",
                    "-o", str(tmp_path / "s.csv"), "--trace", str(tmp_path / trace)]) == 2
        assert capsys.readouterr().err == \
            f"lhdopt: cannot write {tmp_path / trace}: two outputs name this one file\n"
        assert list(tmp_path.iterdir()) == []

    def test_one_column_sidecar(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["search", "-n", "5", "-k", "1", "--alg", "sa", "--budget", "50",
                    "-o", str(out)]) == 0
        meta = json.loads(out.with_suffix(".json").read_text())
        criteria = meta["criteria"]
        assert criteria["avgcor"] is criteria["maxcor"] is criteria["orthogonal"] is None
        assert criteria["phi_p"] == meta["value"] == phi_p(read_design(out))

    @pytest.mark.parametrize("t0", ["nan", "inf"])
    def test_non_finite_t0_exits_2(self, tmp_path, capsys, t0):
        out = tmp_path / "x.csv"
        assert run(["search", "-n", "6", "-k", "3", "--alg", "sa", "--t0", t0,
                    "--budget", "100", "-o", str(out)]) == 2
        assert "t0 must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def test_two_run_phi(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("1,1\n2,2\n")
        assert run(["evaluate", str(f), "--criteria", "phi_p"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["criteria"]["phi_p"] == pytest.approx(0.5)

    def test_avgcor_hand_value(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("1,1\n2,3\n3,2\n")
        assert run(["evaluate", str(f), "--criteria", "avgcor"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["criteria"]["avgcor"] == pytest.approx(0.5)

    def test_duplicate_level_exits_4(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("1,1\n1,2\n")
        assert run(["evaluate", str(f)]) == 4
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert any("repeats level" in p for p in out["problems"])

    def test_unreadable_exits_2(self, tmp_path):
        assert run(["evaluate", str(tmp_path / "missing.csv")]) == 2

    def test_generate_output_always_validates(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["generate", "--random", "-n", "7", "-k", "3", "--seed", "5",
                    "-o", str(out)]) == 0
        assert run(["evaluate", str(out)]) == 0


class TestBenchmark:
    def test_unwritable_summary_leaves_no_output(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"grid": [[4, 2]], "algorithms": ["sa"], "replications": 1,
                                    "budget": 100, "base_seed": 1}))
        out, summary = tmp_path / "r.csv", tmp_path / "no-such-dir" / "s.csv"
        assert run(["benchmark", str(spec), "-o", str(out), "--summary", str(summary)]) == 2
        assert capsys.readouterr().err.startswith(f"lhdopt: cannot write {summary}: ")
        assert list(tmp_path.iterdir()) == [spec]

    def test_summary_named_like_the_results_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"grid": [[4, 2]], "algorithms": ["sa"], "replications": 1,
                                    "budget": 100, "base_seed": 1}))
        out = tmp_path / "r.csv"
        assert run(["benchmark", str(spec), "-o", str(out), "--summary", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"lhdopt: cannot write {out}: two outputs name this one file\n"
        assert list(tmp_path.iterdir()) == [spec]

    def test_a_cell_that_run_refuses_stops_the_spec_before_any_cell_runs(self, tmp_path,
                                                                          capsys, monkeypatch):
        searches = []
        monkeypatch.setattr(S, "sliced_sa_search", lambda *a: searches.append(a))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"grid": [[8, 2], [9, 2]], "algorithms": ["sa-sliced"],
                                    "slices_t": 2, "replications": 1, "budget": 50,
                                    "base_seed": 1}))
        assert run(["benchmark", str(spec), "-o", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr() == ("", "lhdopt: run count 9 not divisible by t=2\n")
        assert searches == [] and list(tmp_path.iterdir()) == [spec]


class TestParser:
    def test_no_option_restates_a_library_default(self):
        # an unset option is None, and the library gives it its default
        defaulted = {f.name for cls in (OptimizerConfig, CriterionSpec) for f in fields(cls)
                     if f.default is not MISSING}
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command, parser in sub.choices.items():
            for action in parser._actions:
                if action.dest in defaulted:
                    assert action.default is None, (command, action.dest)
