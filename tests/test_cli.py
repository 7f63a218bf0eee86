"""CLI behavior: file outputs, exit codes, determinism, metadata replay."""

import json

import numpy as np
import pytest

from lhdopt import _kernels, max_abs_cor, phi_p, validate
from lhdopt.cli import main, search_from_echo
from lhdopt.io import read_design


def run(args):
    return main(args)


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
