"""``bornlab sample`` on the shipped configs writes pinned CSV bytes.

The digests pin the trajectory stream contract end to end: the per-index
Philox streams, the sampler's descent over outcome prefixes (one collapsed
operator per visited prefix, drawn from with each trajectory's uniforms) for
each source kind, and the CSV format. A change to any of them that moves a
single draw changes a digest.
"""

import hashlib
from pathlib import Path

import pytest

from bornlab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    "rtn": "0f284eb7001675221c8311d669bb2ecdc1edac1d6238846029353f2f478ac653",
    "rotation": "d197e66d3702bc453441141038c718f9d4f1f957cb250ea1c0478492bec426de",
    "rabi": "c8935e8e46b434ad0f47dee03c0a072cb3e154bee5e18f7522ca41d873b8be07",
    "quasistatic": "6fa9670c77dfc71bcd2c18a90d01b0e433058b4f689537409286b8b8b1d4603b",
    "dephasing": "d0efb5469b74328cdf8a30124801d3ef131d50888ed4117824813ea14b89d578",
    "rabi_joint": "a6c0fb944c85a386c2754de2beb5567d25b3aba2a9a5bdbfd0a497eb1667d9b8",
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_sample_csv_bytes_are_pinned(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(["sample", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
