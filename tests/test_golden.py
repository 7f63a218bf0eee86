"""Seeded search outputs pinned to the bit.

Each run below has a fixed (seed, stream) and a small budget.  The test pins
``repr(value)``, the SHA-1 of ``best.tobytes()``, the SHA-1 of ``repr(trace)``
and ``evaluations_used``, so any change to the order or grouping of the float
operations behind a criterion update shows up here, not only in a tolerance
check.  The kernels have one implementation, so the pins hold on every
install.

Regenerate the table after an intended change of seeded outputs with
``PYTHONPATH=src python3 tests/test_golden.py`` and say in the change log
which values moved and why.
"""

import hashlib

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
}

# name -> (repr(value), sha1(best.tobytes()), sha1(repr(trace)), evaluations_used)
GOLDEN = {
    'ga-combo-w0.5': ('0.08046642692799964', 'd47e7f5bc423bf71456ae9ecee79ee26f3dc3569', '5d0f037bae31b43d6ae83f4bc8c19be87b12d815', 400),
    'ga-maxpro': ('0.12230358465706627', '0122c83c2585b6009339d1aa329b10835e83cf78', '1e32769333c866892e3677e0b7fe77689f6817bd', 400),
    'ga-phi_p-q1': ('0.0999262025788571', '4816b16bc1cfeec9a8bcd0db65bc04653cafe695', 'c933a40ecd69abd1c8f7131e7964069940f55d5a', 400),
    'lapso-combo-w0.5': ('0.29183411065445053', 'ed3de6ca66227c65bc0a3603fc243d349936744d', 'fd015443532660e5f492afc4d52f76cf51bd5e9d', 300),
    'lapso-maxpro': ('0.12644346373668244', 'f4f71d08147ae63a4cd3939131ab89f1a14fb8c5', 'e418afdb2f87dc3a1d447ad92552e6780abb4311', 300),
    'lapso-phi_p-44x6': ('0.030417675709177548', 'b126de4a35c60b6e648b6012f802ae4f3a666dc8', 'ce50acba943be0a6dcef6b19ba1f41ecf4c69694', 200),
    'lapso-phi_p-q2': ('0.17175417460441997', 'eeb59f93dd8d5abe79cbf5a375be163580067fc5', '97efdfb7edd2ab2c8436f2b13f810e49a6591c9d', 300),
    'oasa-OA(25,6,5,2)': ('0.03945502137471286', '18cd467acc9a31687258c719dec8d2a58f10ec47', '958ad1d48c32b521ca5412baa102aa029205672d', 2000),
    'sa-avgcor': ('0.030769230769230764', 'fce678a8df7743071ed93c960b3f5c38b8c45e15', '9191c4f47d097aeaa0b0447c76d9687f4acc08a3', 2000),
    'sa-maxcor': ('0.055944055944055944', '9d55895a2c66f415f7fc4fc42e93478a1860d60b', '42624b452e98e4daeac0e2ca6c4bb5eb1e0d8ed9', 2000),
    'sa-maxpro': ('0.11133711034466161', '9a9c5616d02affd1a8c883285eb2d0cc8a1a72ac', '8b90e773a2e54581d78bf8d77231ff88849e2b11', 3000),
    'sa-multiobj-w0.5': ('0.1049626981588223', 'd2bd11fe55ea96ba8c8b45e7bf587def825bfc93', '71f320cff30b6579864efb5f6bf5b3efe4e4b759', 2000),
    'sa-phi_p-q1': ('0.08828957154317478', 'afeec13a750c6ad688d8b3bb9f31d00dedbfc446', '1f73000099227c7e794e4de27eb1e152ebfe4bc5', 3000),
    'sa-phi_p-q2': ('0.15069022945555352', 'f05d9d62689f4f728ccd3f037fcb94d6e7c5121f', '6d8cf2918d23c7a3fd6ff9837470726481ea283a', 3000),
    'sa-sliced': ('0.1869977463060481', '4655452997dd814cfa3012fc466663eb35e0d962', 'e1ca77148da368e0a24502b6a4e4ee738683b2d7', 2000),
}


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def fingerprint(result) -> tuple[str, str, str, int]:
    return (repr(result.value), _sha1(result.best.tobytes()),
            _sha1(repr(result.trace).encode()), int(result.evaluations_used))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_output_is_pinned(name):
    assert fingerprint(RUNS[name]()) == GOLDEN[name]


def test_every_run_is_pinned():
    assert set(GOLDEN) == set(RUNS)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(RUNS):
        print(f"    {name!r}: {fingerprint(RUNS[name]())!r},")
    print("}")
