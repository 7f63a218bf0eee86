"""File format round trips: design CSV, JSON sidecars, trace and results CSV, OA files."""

import warnings

import numpy as np
import pytest

from lhdopt import RngStream, good_oa_catalog, random_lhd
from lhdopt.cli import main
from lhdopt.constructions import parse_oa
from lhdopt.errors import InvalidDesignError, InvalidDimensionError, InvalidOAError, LhdError
from lhdopt.io import (
    read_design,
    read_json,
    read_oa,
    sidecar_path,
    write_design,
    write_json,
    write_oa,
    write_rows_csv,
    write_trace,
)


class TestDesignCsv:
    def test_round_trip(self, tmp_path):
        X = random_lhd(7, 3, RngStream(4))
        p = write_design(tmp_path / "d.csv", X)
        assert np.array_equal(read_design(p), X)

    def test_lf_newlines_no_header(self, tmp_path):
        p = write_design(tmp_path / "d.csv", np.array([[1, 2], [2, 1]]))
        raw = p.read_bytes()
        assert raw == b"1,2\n2,1\n"

    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
    def test_levels_that_are_no_integers_are_refused_and_write_nothing(self, tmp_path, bad):
        p = tmp_path / "d.csv"
        assert write_design(p, np.array([[1.0, 2.0], [2.0, 1.0]])).read_bytes() == b"1,2\n2,1\n"
        p.unlink()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidDesignError, match="design levels must be finite integers"):
                write_design(p, [[bad, 2], [2, 1]])
        with pytest.raises(InvalidDimensionError, match="a design must be 2-D, got 3-D"):
            write_design(p, np.array([[1, 2], [2, 1]])[..., None])
        assert not p.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(LhdError):
            read_design(tmp_path / "absent.csv")

    def test_non_integer_contents(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,a\n2,1\n")
        with pytest.raises(LhdError):
            read_design(p)


class TestJsonSidecar:
    def test_sidecar_path(self):
        assert sidecar_path("out/design.csv").name == "design.json"

    def test_sorted_keys_stable_bytes(self, tmp_path):
        p1 = write_json(tmp_path / "a.json", {"b": 1, "a": 2})
        p2 = write_json(tmp_path / "b.json", {"a": 2, "b": 1})
        assert p1.read_bytes() == p2.read_bytes()
        assert read_json(p1) == {"a": 2, "b": 1}


class TestTraceCsv:
    def test_header_and_rows(self, tmp_path):
        p = write_trace(tmp_path / "t.csv", [(1, 0.5), (10, 0.25)])
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "evaluation_index,best_value"
        assert lines[1] == "1,0.5" and lines[2] == "10,0.25"


class TestRowsCsv:
    def test_columns_in_order_and_floats_as_repr(self, tmp_path):
        rows = [{"b": 0.1 + 0.2, "a": "sa", "n": 6}, {"n": 7, "a": "ga", "b": 1e-300}]
        p = write_rows_csv(tmp_path / "r.csv", rows, ("a", "n", "b"))
        assert p.read_bytes() == b"a,n,b\nsa,6,0.30000000000000004\nga,7,1e-300\n"


class TestOaFiles:
    def test_round_trip(self, tmp_path):
        oa = good_oa_catalog("OA(9,4,3,2)")
        p = write_oa(tmp_path / "oa.csv", oa)
        back = read_oa(p)
        assert np.array_equal(back.cells, oa.cells)
        assert (back.N, back.K, back.s) == (oa.N, oa.K, oa.s)

    def test_sidecar_mismatch(self, tmp_path):
        oa = good_oa_catalog("OA(4,3,2,2)")
        p = write_oa(tmp_path / "oa.csv", oa)
        meta = read_json(sidecar_path(p))
        meta["N"] = 8
        write_json(sidecar_path(p), meta)
        with pytest.raises(LhdError):
            read_oa(p)

    def test_cli_accepts_oa_file_path(self, tmp_path):
        oa = good_oa_catalog("OA(9,4,3,2)")
        oa_file = write_oa(tmp_path / "myoa.csv", oa)
        out = tmp_path / "x.csv"
        assert main(["search", "--alg", "oasa", "--oa", str(oa_file),
                     "--budget", "500", "--seed", "1", "-o", str(out)]) == 0
        assert read_design(out).shape == (9, 4)
        out2 = tmp_path / "y.csv"
        assert main(["generate", "--construction", "oalhd", "--oa", str(oa_file),
                     "--fill", "deterministic", "-o", str(out2)]) == 0
        assert read_design(out2).shape == (9, 4)

    @pytest.mark.parametrize("command", ["search", "generate"])
    def test_cli_rejects_a_strength_the_cells_do_not_have(self, tmp_path, capsys, command):
        oa_file = write_oa(tmp_path / "a.csv", good_oa_catalog("OA(9,4,3,2)"))
        write_json(sidecar_path(oa_file), {"N": 9, "K": 4, "s": 3, "t": 7})
        out = str(tmp_path / "x.csv")
        args = (["search", "--alg", "oasa", "--budget", "100"] if command == "search"
                else ["generate", "--construction", "oalhd"])
        assert main([*args, "--oa", str(oa_file), "-o", out]) == 2
        assert "strength must be in 2..4 for 4 columns, got 7" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", [{"N": 9, "K": 4}, [1, 2]])
    @pytest.mark.parametrize("command", ["search", "generate"])
    def test_cli_rejects_a_sidecar_without_n_k_s_t(self, tmp_path, capsys, sidecar, command):
        oa_file = write_oa(tmp_path / "a.csv", good_oa_catalog("OA(9,4,3,2)"))
        write_json(sidecar_path(oa_file), sidecar)
        out = str(tmp_path / "x.csv")
        args = (["search", "--alg", "oasa", "--budget", "100"] if command == "search"
                else ["generate", "--construction", "oalhd"])
        assert main([*args, "--oa", str(oa_file), "-o", out]) == 2
        assert "an OA sidecar must declare integers N, K, s and t" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", [
        {"N": 9, "K": 4, "s": 3}, {"N": 9, "K": 4, "s": 3.0, "t": 2},
        {"N": 9, "K": 4, "s": "3", "t": 2}, {"N": 9, "K": 4, "s": 3, "t": True}, None,
        {"N": 9, "K": 4, "s": 3, "t": 3}, {"N": 9, "K": 4, "s": 3, "t": 7},
    ])
    def test_parser_rejects_missing_or_non_integer_fields(self, sidecar):
        text = "\n".join(",".join(map(str, row)) for row in good_oa_catalog("OA(9,4,3,2)").cells)
        assert parse_oa(text, {"N": 9, "K": 4, "s": 3, "t": 2}).K == 4
        with pytest.raises(InvalidOAError):
            parse_oa(text, sidecar)

    @pytest.mark.parametrize("N, K", [(8, 2), (4, 3), (2, 4)])
    def test_parser_compares_the_declared_size_with_the_cells(self, N, K):
        text = "1,1\n1,2\n2,1\n2,2\n"
        assert parse_oa(text, {"N": 4, "K": 2, "s": 2, "t": 2}).cells.shape == (4, 2)
        with pytest.raises(InvalidOAError, match=rf"cells are \(4, 2\), not \(N, K\) = \({N}, {K}\)"):
            parse_oa(text, {"N": N, "K": K, "s": 2, "t": 2})

    @pytest.mark.parametrize("text", ["1,2\n2,x\n", "1,1\n1,2\n2\n", ""])
    def test_parser_rejects_cells_that_are_not_an_integer_matrix(self, text):
        with pytest.raises(InvalidOAError):
            parse_oa(text, {"N": 4, "K": 2, "s": 2, "t": 2})
