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
    ("analyze", "rabi"): "a96fc8f81b87751cee27234cc32890f1968fef5576c58c74995817ed581a469f",
    ("analyze", "quasistatic"): "df4a082fbe55c5867ee743bd796bbb502cddbffccb1d6e03086e26474d09fed6",
    ("analyze", "rtn"): "4f66f553d1ceafdb7472aac8a54d10598c1662c45e517de4cf58915dac701ab1",
    ("analyze", "rotation"): "a2fb384345a71c77715fe1dce8e848ea7883b84a780e1775af26b160812137a0",
    ("analyze", "dephasing"): "69cd33c12837646f1446d7a0ddd256459ff5d156b06b3753ba26f7f532b91990",
    ("analyze", "rabi_joint"): "2009ef6ab3a31f438fb882761a49f72d8a615b528b5afa2358d67522e6d71875",
    ("qrf", "rtn"): "eff75d28fa012bc526f46bf0094185d53221c1e691ca807a805a97148656dd25",
    ("qrf", "rotation"): "1132f084dbd70f196614fe45cabd7235b0d29c79061dd481b65e62bc9d6276d8",
    ("simulate", "dephasing"): "f6923fdfe7221edf654615bd517fba5834235c240953fa6ac94451e6d1660165",
    ("simulate", "rabi_joint"): "4d6c31956035cb2232aaeda5b139d1d337d2ca381ea82c4aa1e4ca35840d1447",
}

# simulate refuses a config whose observable fails the SF condition unless forced
FLAGS = {("simulate", "rabi_joint"): ["--force"]}

TRUNCATED_DIGESTS = {
    "quasistatic": "143a2de9125a19a9c30e339a935411ed8ce9f7b2da319c971b88b743d51be3ad",
    "rtn": "dd967c658f47cb13ca65b80fdf40db28a555b82402a8aabb46e6c3b4ec37af9e",
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
