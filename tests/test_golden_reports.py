"""``bornlab analyze``/``qrf``/``simulate`` on the shipped configs write pinned report bytes.

Two parts of a report depend on where it was made, not on the config: the
``tool`` block (library versions) and ``config.path`` (the path as given on
the command line). Both are replaced by fixed values before hashing. The rest
of the file is hashed as written: the test first checks that re-serializing
the parsed report gives back its exact bytes, so the canonical text differs
from the written one only in those two fields.

``simulate`` is pinned on the two joint configs, with ``--force`` where the
surrogate-field condition fails (rabi_joint), so the hash covers every bit of
the sampled mean and its standard errors, the sign of each zero included.

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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    ("analyze", "rabi"): "ce3fa60776f5702e7e81dddc544fb37b704269c21a725adf0008326c203a356b",
    ("analyze", "quasistatic"): "60aabab1f45e54c435803412120b29e7e7ab79e87e33a4a325f0e23a22d53dad",
    ("analyze", "rtn"): "30472daa8c27325e6d48d724761770bd1c218bd5ee61bc4b19a9a04a84741742",
    ("analyze", "rotation"): "b9421ff33b8eb59586f4efb32ba09df0023780213611342e0177b661bbc88b10",
    ("analyze", "dephasing"): "b7efcd38c6df9876891aca9049c32cc007572012780e82d8ad4f3edcfc2a9c30",
    ("analyze", "rabi_joint"): "2d05888aafe8a4244b6377edd16d88b270dd6c8b3b1f330f44e1b14333fe8c7c",
    ("qrf", "rtn"): "80a7773a2b7f1b4af5862df7ea33d45bb77ed7bbfc80067aeca411144b8abc79",
    ("qrf", "rotation"): "3a3bdd89afd2b4c962e6be8f18cfd4431f9cb51762f3fbbc0059f60db81efb54",
    ("simulate", "dephasing"): "bf918200e7965f47f05ff79cb8b3b83eafed8c30550cca470d46f5a9c2440857",
    ("simulate", "rabi_joint"): "0e698a02f3c2c62be365eb438281c098712462f309f0ea112468eadaeea55c2f",
}

# simulate refuses a config whose observable fails the SF condition unless forced
FLAGS = {("simulate", "rabi_joint"): ["--force"]}

TRUNCATED_DIGESTS = {
    "quasistatic": "5d08abc79dbed0c8ea4f120c38f01cd4a420441678b0b95e444bfaf79bd25bb6",
    "rtn": "66f9e7f52ba513dfaf32af240b1a94c76ce7a0d42acef318f4d85e8ff4b97e0e",
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
