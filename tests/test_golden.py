"""Seeded search outputs pinned to the bit.

Each library run below has a fixed (seed, stream) and a small budget.  The
test pins ``repr(value)``, the SHA-1 of ``best.tobytes()``, the SHA-1 of
``repr(trace)`` and ``evaluations_used``, so any change to the order or
grouping of the float operations behind a criterion update shows up here,
not only in a tolerance check.  The kernels have one implementation, so the
pins hold for one NumPy build, CPU dispatch path and libm; across them,
powers, ``exp`` and ``log`` can round apart in the last bits (with AVX-512
switched off, three of these pins move).

The same holds one level up: seeded ``lhdopt search`` calls pin the SHA-1 of
the design CSV, the trace CSV and the sidecar (without its ``elapsed_ms``),
and each must replay from its sidecar echo; ``lhdopt benchmark`` grids pin
the SHA-1 of the results CSV without its ``elapsed_ms`` column, and of the
summary CSV, at one and two workers.

Regenerate the tables after an intended change of seeded outputs with
``PYTHONPATH=src python3 tests/test_golden.py`` and say in the change log
which values moved and why.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lhdopt import (
    CriterionSpec,
    OptimizerConfig,
    RngStream,
    ga_search,
    good_oa_catalog,
    lapso_search,
    make_slices,
    oasa_search,
    sa_multiobj_search,
    sa_search,
    sliced_sa_search,
)
from lhdopt.cli import main, search_from_echo
from lhdopt.io import read_design


def _cfg(alg: str, budget: int, seed: int, stream: int) -> OptimizerConfig:
    return OptimizerConfig(algorithm=alg, max_evaluations=budget, seed=RngStream(seed, stream))


RUNS = {
    "sa-phi_p-q1": lambda: sa_search(14, 4, CriterionSpec("phi_p", q=1), _cfg("sa", 3000, 11, 0)),
    "sa-phi_p-q2": lambda: sa_search(14, 4, CriterionSpec("phi_p", q=2), _cfg("sa", 3000, 12, 1)),
    "sa-maxpro": lambda: sa_search(12, 4, CriterionSpec("maxpro"), _cfg("sa", 3000, 13, 2)),
    "sa-avgcor": lambda: sa_search(12, 5, CriterionSpec("avgcor"), _cfg("sa", 2000, 14, 3)),
    "sa-maxcor": lambda: sa_search(12, 5, CriterionSpec("maxcor"), _cfg("sa", 2000, 15, 4)),
    "sa-multiobj-w0.5": lambda: sa_multiobj_search(12, 4, 0.5, _cfg("sa-multiobj", 2000, 16, 5)),
    "oasa-OA(25,6,5,2)": lambda: oasa_search(good_oa_catalog("OA(25,6,5,2)"),
                                              CriterionSpec("phi_p"), _cfg("oasa", 2000, 17, 6)),
    "sa-sliced": lambda: sliced_sa_search(make_slices(12, 3), 3, CriterionSpec("phi_p"),
                                          _cfg("sa-sliced", 2000, 18, 7)),
    "ga-phi_p-q1": lambda: ga_search(12, 4, CriterionSpec("phi_p", q=1), _cfg("ga", 400, 19, 8)),
    "ga-maxpro": lambda: ga_search(12, 4, CriterionSpec("maxpro"), _cfg("ga", 400, 20, 9)),
    "ga-combo-w0.5": lambda: ga_search(12, 4, CriterionSpec("combo", weight=0.5),
                                       _cfg("ga", 400, 21, 10)),
    "lapso-phi_p-q2": lambda: lapso_search(12, 4, CriterionSpec("phi_p", q=2),
                                           _cfg("lapso", 300, 22, 11)),
    "lapso-maxpro": lambda: lapso_search(12, 4, CriterionSpec("maxpro"), _cfg("lapso", 300, 23, 12)),
    "lapso-combo-w0.5": lambda: lapso_search(12, 4, CriterionSpec("combo", weight=0.5),
                                             _cfg("lapso", 300, 24, 13)),
    "lapso-phi_p-44x6": lambda: lapso_search(44, 6, CriterionSpec("phi_p"),
                                             _cfg("lapso", 200, 25, 14)),
    # the population workload's size and budget
    "lapso-phi_p-50x8": lambda: lapso_search(50, 8, CriterionSpec("phi_p"),
                                             _cfg("lapso", 150, 26, 15)),
    "lapso-maxpro-50x8": lambda: lapso_search(50, 8, CriterionSpec("maxpro"),
                                              _cfg("lapso", 150, 27, 16)),
}

# name -> (repr(value), sha1(best.tobytes()), sha1(repr(trace)), evaluations_used)
GOLDEN = {
    'ga-combo-w0.5': ('0.08046642692799964', 'd47e7f5bc423bf71456ae9ecee79ee26f3dc3569', '5d0f037bae31b43d6ae83f4bc8c19be87b12d815', 400),
    'ga-maxpro': ('0.12230358465706627', '0122c83c2585b6009339d1aa329b10835e83cf78', '1e32769333c866892e3677e0b7fe77689f6817bd', 400),
    'ga-phi_p-q1': ('0.0999262025788571', '4816b16bc1cfeec9a8bcd0db65bc04653cafe695', 'c933a40ecd69abd1c8f7131e7964069940f55d5a', 400),
    'lapso-combo-w0.5': ('0.29183411065445053', 'ed3de6ca66227c65bc0a3603fc243d349936744d', 'fd015443532660e5f492afc4d52f76cf51bd5e9d', 300),
    'lapso-maxpro-50x8': ('0.02348640589665189', 'de14234aa17092badb69e13b9abe6aafee0e7285', 'fe37e7c2a19484222a823ee4f670a5777d1fa2a5', 150),
    'lapso-maxpro': ('0.12644346373668244', 'f4f71d08147ae63a4cd3939131ab89f1a14fb8c5', 'e418afdb2f87dc3a1d447ad92552e6780abb4311', 300),
    'lapso-phi_p-44x6': ('0.030417675709177548', 'b126de4a35c60b6e648b6012f802ae4f3a666dc8', 'ce50acba943be0a6dcef6b19ba1f41ecf4c69694', 200),
    'lapso-phi_p-50x8': ('0.019020675644222728', 'eac9dfb6db63179ee0143453789082a1d4d4f9c9', '7e8a6f7e4769a88483a2269b423641039cb1412b', 150),
    'lapso-phi_p-q2': ('0.17175417460441997', 'eeb59f93dd8d5abe79cbf5a375be163580067fc5', '97efdfb7edd2ab2c8436f2b13f810e49a6591c9d', 300),
    'oasa-OA(25,6,5,2)': ('0.03945502137471287', '18cd467acc9a31687258c719dec8d2a58f10ec47', '02cebaa71d20cc82795092da444fb96802c65d7d', 2000),
    'sa-avgcor': ('0.030769230769230764', 'fce678a8df7743071ed93c960b3f5c38b8c45e15', '9191c4f47d097aeaa0b0447c76d9687f4acc08a3', 2000),
    'sa-maxcor': ('0.055944055944055944', '9d55895a2c66f415f7fc4fc42e93478a1860d60b', '42624b452e98e4daeac0e2ca6c4bb5eb1e0d8ed9', 2000),
    'sa-maxpro': ('0.1113371103446617', '9a9c5616d02affd1a8c883285eb2d0cc8a1a72ac', '9f5d2bc9bc9d91278caeb0cd61af0d9dc11ef988', 3000),
    'sa-multiobj-w0.5': ('0.10496269815901585', 'd2bd11fe55ea96ba8c8b45e7bf587def825bfc93', 'c14adb436ee31f2819a5bff7ef38ab8a4327a40c', 2000),
    'sa-phi_p-q1': ('0.08828957155093273', 'afeec13a750c6ad688d8b3bb9f31d00dedbfc446', '13fa4aa7171ab0ea51600344fbc2c4afb1efc4ec', 3000),
    'sa-phi_p-q2': ('0.15069022945558147', 'f05d9d62689f4f728ccd3f037fcb94d6e7c5121f', '478b6d0d9670d36a58a9004cd9369ac31dd537d6', 3000),
    'sa-sliced': ('0.18066595823330703', 'babed3c1f5539cc0e996d155b7c6c616e994950a', '5c5257a277f2882c5f6928d263d4babfe7e6ba37', 2000),
}


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def fingerprint(result) -> tuple[str, str, str, int]:
    return (repr(result.value), _sha1(result.best.tobytes()),
            _sha1(repr(result.trace).encode()), int(result.evaluations_used))


# name -> `lhdopt search` arguments besides -o and --trace
CLI_RUNS = {
    "sa-phi_p": ["-n", "10", "-k", "3", "--alg", "sa", "--budget", "800", "--seed", "31"],
    "sa-phi_p-q2": ["-n", "10", "-k", "3", "--alg", "sa", "--q", "2", "--budget", "800",
                    "--seed", "32", "--stream", "1"],
    "sa-combo": ["-n", "10", "-k", "3", "--alg", "sa", "--criterion", "combo",
                 "--weight", "0.4", "--budget", "800", "--seed", "33"],
    "sa-maxpro-random-t0": ["-n", "9", "-k", "4", "--alg", "sa", "--criterion", "maxpro",
                            "--column-mode", "random", "--t0", "0.05", "--alpha", "0.9",
                            "--moves-per-temp", "50", "--budget", "800", "--seed", "34"],
    "oasa": ["--alg", "oasa", "--oa", "OA(9,4,3,2)", "--criterion", "maxcor",
             "--budget", "600", "--seed", "35"],
    "sa-multiobj": ["-n", "10", "-k", "3", "--alg", "sa-multiobj", "--weight", "0.6",
                    "--budget", "800", "--seed", "36"],
    "sa-sliced": ["-n", "12", "-k", "3", "--alg", "sa-sliced", "--slices", "3",
                  "--column-mode", "random", "--budget", "800", "--seed", "37"],
    "sa-sliced-combo": ["-n", "12", "-k", "3", "--alg", "sa-sliced", "--slices", "3",
                        "--criterion", "combo", "--weight", "0.5", "--budget", "800",
                        "--seed", "42"],
    "ga-combo": ["-n", "10", "-k", "3", "--alg", "ga", "--criterion", "combo",
                 "--weight", "0.5", "--budget", "200", "--seed", "38"],
    "ga-avgcor": ["-n", "10", "-k", "4", "--alg", "ga", "--criterion", "avgcor",
                  "--pop", "6", "--pmut", "0.4", "--budget", "200", "--seed", "39"],
    "lapso-maxpro": ["-n", "10", "-k", "3", "--alg", "lapso", "--criterion", "maxpro",
                     "--budget", "200", "--seed", "40"],
    "lapso-maxcor": ["-n", "10", "-k", "3", "--alg", "lapso", "--criterion", "maxcor",
                     "--swarm", "4", "--same-num-p", "2", "--same-num-g", "1",
                     "--budget", "200", "--seed", "41"],
}

# name -> sha1 of (design CSV, trace CSV, sidecar without elapsed_ms)
CLI_GOLDEN = {
    'ga-avgcor': ('8e50001712c716dc277f78ddc1470742c6880bf6', '274a9bc61cb24981b5c2efe87cac29941afb028f', '46706958fe6f1c44f5979f1dbc13af3c033cc6fd'),
    'ga-combo': ('33eca480e04812c033bf22e4d9062a1fb8f29ec9', '9641b1e85abeb22e41b82321ccf6e12a1802b439', 'da589a1d7e7296e455a481afc46ad0cd93cd14b2'),
    'lapso-maxcor': ('9767d84fa98a5c4c8e86ca5dba682383251c35a4', 'b31d5a7a47fc3f805deac9be5fb0c3a29b8ab9aa', 'd5438f5c9628c5b2165350f1fbf22f5156c3dce7'),
    'lapso-maxpro': ('70b47b936c09047699454244c745ef46ff7abae1', '1adef19a65b6ffb29ef187c1e1ab166d954c9d97', '2a368510831579b095586e2df82936c9974ddc58'),
    'oasa': ('906d572a8babd8830a084b822c586f1fd02bb39a', '6b797d4cf4a38749312f5b5cf7e81a90245be455', 'c7360211e8a290f666fbe9d66af6f885ab24a053'),
    'sa-combo': ('4f235e6f518021784aafe5ea13065ae24f01690e', '356a6f41067c7d2dcba3fe9b9207eddf5005a6c7', '908ae169dc223bab9420f696f062c70e92fad36c'),
    'sa-maxpro-random-t0': ('9570e220c5e5f855127436295a727ab509e2b622', '787b7f21b8248640dc1bf214544e574e13ed65bc', '6d66dcef393f9719a9136953f6df0e41d6ebfcc7'),
    'sa-multiobj': ('613e995d30c414a946698d45c38d3c69aed9c4cc', 'b573264e89a1a713441a258e6d3566c76127e394', '630ba69fdc98820663dca8e1f301a2c503cca8b8'),
    'sa-phi_p': ('5310f97419b9ceb6109f3d840417745c1c988fcd', 'e9d68af05ecaf8b9fa813fdb22902f8b78cb2e0b', '34fedad948f59a54bf66bf054bb71fa3d9fdf719'),
    'sa-phi_p-q2': ('6a063821732fcbda7e153f7773d4038f6331feb9', '37546c14cf159b7daf7216641b0ef9ea12880772', '3cba6b29d2612a7e9229848df547c7b2e663c2d2'),
    'sa-sliced': ('18c31ec84d4235ffec457dea2a6fd3908626d800', '191d1e3ad61e4a47bd2f6fd89812ac372360ffc5', '44641e22c3cb014ed123cf5598e19ec62633a040'),
    'sa-sliced-combo': ('2a1c6fb6a5b9f586b800bf7d25a7518bb7473364', '267e6f3dc41d287abefa42780b6801b5db697a7e', '79c81ec58e44e5fe256f6fa2c6f50efdb65ed0c9'),
}

BENCH_SPECS = {
    "five-algorithms": {
        "grid": [[8, 3], [12, 4]],
        "algorithms": ["sa", "ga", "lapso", "sa-multiobj", "sa-sliced"],
        "criterion": {"kind": "phi_p"},
        "replications": 2, "budget": 300, "base_seed": 51,
        "weight": 0.5, "slices_t": 2,
    },
    "oasa": {
        "grid": [[9, 4]],
        "algorithms": ["oasa", "sa"],
        "criterion": {"kind": "maxpro"},
        "replications": 2, "budget": 300, "base_seed": 52,
        "oa": "OA(9,4,3,2)",
    },
}
BENCH_WORKERS = {"five-algorithms": ("1", "2"), "oasa": ("1",)}

# name -> sha1 of (results CSV without elapsed_ms, summary CSV)
BENCH_GOLDEN = {
    'five-algorithms': ('439665431d3896510d067179899c391457aef9bc', '57589c698f6b7663362b7f692c6ee7684b12a0b1'),
    'oasa': ('94380cbbc31720e13f1b55bd6d2e70c0e75f36e3', 'b401c516d9034eed55f790de1461d855c547c856'),
}


def cli_search(name: str, workdir: Path):
    """Run one CLI_RUNS entry; return (fingerprint, sidecar)."""
    out, trace = workdir / f"{name}.csv", workdir / f"{name}.trace.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["search", *CLI_RUNS[name], "-o", str(out), "--trace", str(trace)]) == 0
    meta = json.loads(out.with_suffix(".json").read_text())
    timeless = dict(meta)
    del timeless["elapsed_ms"]
    sidecar = json.dumps(timeless, indent=2, sort_keys=True).encode()
    return (_sha1(out.read_bytes()), _sha1(trace.read_bytes()), _sha1(sidecar)), meta


def cli_benchmark(name: str, workers: str, workdir: Path) -> tuple[str, str]:
    spec, out, summary = (workdir / f"{name}.{ext}" for ext in ("json", "csv", "summary.csv"))
    spec.write_text(json.dumps(BENCH_SPECS[name]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["benchmark", str(spec), "-o", str(out), "--summary", str(summary),
                     "--workers", workers]) == 0
    rows = [line.rsplit(",", 1) for line in out.read_text().splitlines()]
    assert rows[0][1] == "elapsed_ms"
    timeless = "\n".join(row[0] for row in rows)
    return _sha1(timeless.encode()), _sha1(summary.read_bytes())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_output_is_pinned(name):
    assert fingerprint(RUNS[name]()) == GOLDEN[name]


def test_every_run_is_pinned():
    assert set(GOLDEN) == set(RUNS)
    assert set(CLI_GOLDEN) == set(CLI_RUNS)
    assert set(BENCH_GOLDEN) == set(BENCH_SPECS)


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_search_is_pinned_and_replays(name, tmp_path):
    pins, meta = cli_search(name, tmp_path)
    assert pins == CLI_GOLDEN[name]
    replayed = search_from_echo(meta["config"])
    assert np.array_equal(replayed.best, read_design(tmp_path / f"{name}.csv"))
    assert replayed.value == meta["value"]


@pytest.mark.parametrize("name,workers",
                         [(n, w) for n in sorted(BENCH_SPECS) for w in BENCH_WORKERS[n]])
def test_cli_benchmark_is_pinned(name, workers, tmp_path):
    assert cli_benchmark(name, workers, tmp_path) == BENCH_GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(RUNS):
        print(f"    {name!r}: {fingerprint(RUNS[name]())!r},")
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        print("CLI_GOLDEN = {")
        for name in sorted(CLI_RUNS):
            print(f"    {name!r}: {cli_search(name, Path(tmp))[0]!r},")
        print("}")
        print("BENCH_GOLDEN = {")
        for name in sorted(BENCH_SPECS):
            print(f"    {name!r}: {cli_benchmark(name, '1', Path(tmp))!r},")
        print("}")
