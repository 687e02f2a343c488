"""``bornlab sample`` on the shipped configs writes pinned CSV bytes.

The digests pin the trajectory stream contract end to end: trajectory j's
uniforms as draws j·n … j·n+n−1 of the seed's PCG64 stream, the sampler's
descent over outcome prefixes (one collapsed operator per visited prefix,
drawn from with each trajectory's uniforms) for each source kind, and the
CSV format. A change to any of them that moves a
single draw changes a digest. The benchmark's generated ``s4`` (seed 1), a
d = 4, m = 2, n = 6 system with 64 possible histories, is pinned beside them.
"""

import hashlib
from pathlib import Path

import pytest

from bornlab.cli import main
from conftest import perfbench_generator

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    "rtn": "31ace962c18a51ea79d56f6c82b3a16869205dea6abfd96283484564edd3be7c",
    "rotation": "f6d0f432bab621c3b61b20ff5af9b32909fee25c7573438251d8aa8739ef4f58",
    "rabi": "8311540537be8de5ffdd461810b2b5ec689e049dd6fc1510997b4ad9b3c3c64d",
    "quasistatic": "cde54ce148ee95118fa903f95a2a3c9da54bd2d404a25656b349e11f2674c144",
    "dephasing": "6f5d20d95ba60930a53cab96cb75c156bcc95949ef2ebe35f980930cd63e13e8",
    "rabi_joint": "0ac116600e3dd0b23e6e70f0a6c4bb858ff4d5276482345179731481dd807542",
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_sample_csv_bytes_are_pinned(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(["sample", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


# perfbench/generate.py configs of seed 1: name -> digest of their CSV
GENERATED_DIGESTS = {
    "s4": "1b6237c0f00228c4f4d5f2598449d76b05c1b1a6f7d68f128c8717e3b40b7593",
}


@pytest.mark.parametrize("name", list(GENERATED_DIGESTS))
def test_sample_csv_bytes_of_generated_configs_are_pinned(name, tmp_path):
    config, out = tmp_path / f"{name}.yaml", tmp_path / f"{name}.csv"
    config.write_text(perfbench_generator().generate(1)[name], encoding="utf-8")
    assert main(["sample", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATED_DIGESTS[name]
