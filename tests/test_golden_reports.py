"""``bornlab analyze``/``qrf``/``simulate`` on the shipped configs write pinned report bytes.

Two parts of a report depend on where it was made, not on the config: the
``tool`` block (library versions) and ``config.path`` (the path as given on
the command line). Both are replaced by fixed values before hashing. The rest
of the file is hashed as written: the test first checks that re-serializing
the parsed report gives back its exact bytes, so the canonical text differs
from the written one only in those two fields.

``simulate`` is pinned on the two joint configs, with ``--force`` where the
surrogate-field condition fails (rabi_joint), so the hash covers every bit of
the sampled mean and its standard errors, the sign of each zero included. It
is also pinned, with ``--force``, on the benchmark's generated ``wide`` (seed
1), a joint config with up to 1024 histories.

The shipped configs never truncate a table, so two of them are also run
with ``report: {max_table_entries: 7}`` appended: their Born tables
truncate at n = 3 and their bi-probability tables at n = 2 and 3, which
pins the order of the kept entries, ties included.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bornlab.cli import main
from bornlab.reporting import dump
from conftest import perfbench_generator

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    ("analyze", "rabi"): "6bdc0c87e17f76e18938ab1371ccd7f377713b5c004bf5cdd0a45b6f34d0210b",
    ("analyze", "quasistatic"): "04e3d04512f6dcadcd53232998c28d0472266e6aa39ab2eb88fa393cc57c0339",
    ("analyze", "rtn"): "3c8347cebfe977cd7b4ccbd613de0ddaa2b33413e3f13b12ec846b38f5763e15",
    ("analyze", "rotation"): "1ea8bcebc8456a135e827552c5b2cf258996f2625aabe929f732d325779e34c2",
    ("analyze", "dephasing"): "69cd33c12837646f1446d7a0ddd256459ff5d156b06b3753ba26f7f532b91990",
    ("analyze", "rabi_joint"): "f62c0239eb3853cbb2725244a29fcba9f6a69d53c0e0ea6bc14105edb368d804",
    ("qrf", "rtn"): "797e1638a1e005809327d319794454f6e5b76ba54af93fb58d922a4defc241d5",
    ("qrf", "rotation"): "1b762159345de04ad820d524d5c6baf70d59f37f358a8cbb6be4b56d9a6a9759",
    ("simulate", "dephasing"): "0c78a5388c86d25bb8f2fd3d41dfd3af0f1c3c285ca2349fccc670b5ac8e69f1",
    ("simulate", "rabi_joint"): "6029f46821c2a2317c6191fb190b8b5969c163ca46ba67bcb2807f92466a473a",
}

# simulate refuses a config whose observable fails the SF condition unless forced
FLAGS = {("simulate", "rabi_joint"): ["--force"]}

TRUNCATED_DIGESTS = {
    "quasistatic": "b07bdbd464b65bb671742c430041578efb34229515c9631fd70b82b3aa84321b",
    "rtn": "d70491d44fc543a8ce5238bde3344b9849627bbcdc7d0ea37e9717dd76aca2f7",
}


def canonical_report(text, name):
    payload = json.loads(text)
    assert dump(payload) == text
    payload["tool"] = "canonical"
    payload["config"]["path"] = f"configs/{name}.yaml"
    return dump(payload)


@pytest.mark.parametrize("command,name", list(DIGESTS))
def test_report_bytes_are_pinned(command, name, tmp_path):
    out = tmp_path / f"{name}.{command}.json"
    argv = [command, str(CONFIGS / f"{name}.yaml"), "--out", str(out), *FLAGS.get((command, name), [])]
    assert main(argv) == 0
    text = canonical_report(out.read_text(encoding="utf-8"), name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[command, name]


@pytest.mark.parametrize("name", list(TRUNCATED_DIGESTS))
def test_truncated_report_bytes_are_pinned(name, tmp_path):
    config = tmp_path / f"{name}.yaml"
    config.write_text((CONFIGS / f"{name}.yaml").read_text(encoding="utf-8")
                      + "report:\n  max_table_entries: 7\n", encoding="utf-8")
    out = tmp_path / f"{name}.analyze.json"
    assert main(["analyze", str(config), "--out", str(out)]) == 0
    text = canonical_report(out.read_text(encoding="utf-8"), name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TRUNCATED_DIGESTS[name]


# perfbench/generate.py configs of seed 1, run with --force: name -> digest of the simulate report
GENERATED_DIGESTS = {
    "wide": "93f1371a3a3b6c246ad2f0b25cd339ad0e85f33a8485c20b29106d56641f7724",
}


@pytest.mark.parametrize("name", list(GENERATED_DIGESTS))
def test_simulate_report_bytes_of_generated_configs_are_pinned(name, tmp_path):
    config, out = tmp_path / f"{name}.yaml", tmp_path / f"{name}.simulate.json"
    config.write_text(perfbench_generator().generate(1)[name], encoding="utf-8")
    assert main(["simulate", str(config), "--out", str(out), "--force"]) == 0
    text = canonical_report(out.read_text(encoding="utf-8"), name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GENERATED_DIGESTS[name]
