"""The bytes of the closed-form tasks' artifacts, pinned by SHA-256.

Each command is a README example (or its ideal-gas and audit-mode
counterparts).  A change that alters these bytes on purpose updates the
digests here and says so in CHANGES.md.  fv-run and weak-verify are left
to the corpus-determinism check (`tools/corpus_diff.py`): numpy's SIMD
dispatch can change their last bits from one CPU to another.
"""

import hashlib
import json

import pytest

from shockaudit.cli import main

REFERENCE_JUMP = {
    "model": {"kind": "barotropic_polytropic", "K": 2.0 / 3.0, "gamma": 2.0},
    "task": {"name": "rh-solve", "jump": {"left": {"rho": 1.0, "u": 2.0}, "right": {"rho": 2.0, "u": 1.0}}},
}

# name -> (argv, {artifact: sha256})
GOLDEN = {
    "shock-example": (["shock-example", "--gamma", "2"], {
        "shock_example.csv": "32e6163da77ffc089ea822170d5b86721f707897be327d75f161aa42bd12f02c",
        "shock_example.json": "cb269855d3b5eb25914bc437a9958d3b0fec900f8d21ec49c7cf171db62290cc",
    }),
    "energy-audit": (["energy-audit", "--gamma", "2"], {
        "energy_audit.csv": "1ce3ea35a28f92053a16ae06d1880f77e0f5af40415a277c522bae44101ff8c4",
        "energy_audit.json": "43c9332d57665543609617a0cb83093f3c05801d1fe4d2a2feeb3b8c79f7a357",
    }),
    "rh-solve-barotropic": (["rh-solve", "--kind", "barotropic_polytropic", "--gamma", "2",
                             "--K", "0.6666666666666666", "--left", "1,2", "--rho-right", "2"], {
        "rh_solve.csv": "d7c62825bf969efa2307b71d23c79ac46628cfd490f9af1c5df8d3516ce75d36",
        "rh_solve.json": "d32c4398426ad60aee8518388c4fa09d00cfd560ad7161d9e4a8e0dfefa9e33b",
    }),
    "rh-solve-ideal": (["rh-solve", "--kind", "ideal_gas_entropy", "--gamma", "1.4",
                        "--left", "1,0,0", "--rho-right", "2"], {
        "rh_solve.csv": "3d01d75037a841d01c1c9f4ba2c21b4c86fc679fadeaa6df9fe7c2372c4a3e5e",
        "rh_solve.json": "806fbf6f40c48fce470ed313c262c1eeecfc6069a50d0a2042e2f0604f6c2140",
    }),
    "rh-solve-audit": (["rh-solve", "--config", "{tmp}/jump.json"], {
        "rh_solve.csv": "d7c62825bf969efa2307b71d23c79ac46628cfd490f9af1c5df8d3516ce75d36",
        "rh_solve.json": "2ac81e0b39de9a34b8018f34dcaad12a4684a7d0e41a5d4b3138de1ae912fa64",
    }),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_artifact_digests(tmp_path, capsys, name):
    argv, digests = GOLDEN[name]
    (tmp_path / "jump.json").write_text(json.dumps(REFERENCE_JUMP))
    out = tmp_path / "out"
    assert main([arg.format(tmp=tmp_path) for arg in argv] + ["--out-dir", str(out)]) == 0
    capsys.readouterr()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == digests
