"""``bornlab analyze``/``qrf`` on the shipped configs write pinned report bytes.

Two parts of a report depend on where it was made, not on the config: the
``tool`` block (library versions) and ``config.path`` (the path as given on
the command line). Both are replaced by fixed values before hashing. The rest
of the file is hashed as written: the test first checks that re-serializing
the parsed report gives back its exact bytes, so the canonical text differs
from the written one only in those two fields.
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
    assert main([command, str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
    text = canonical_report(out.read_text(encoding="utf-8"), name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[command, name]
