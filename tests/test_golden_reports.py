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
    ("analyze", "rtn"): "a5b4cc031c5db07e1abc8eaf37153831da286473b4b99365a7220a0c6b07c76c",
    ("analyze", "rotation"): "45a98684614428723e1c802ceaeb22e81a8ccbfd73ee355cc8e9bcd3c72c836d",
    ("analyze", "dephasing"): "69cd33c12837646f1446d7a0ddd256459ff5d156b06b3753ba26f7f532b91990",
    ("analyze", "rabi_joint"): "2009ef6ab3a31f438fb882761a49f72d8a615b528b5afa2358d67522e6d71875",
    ("qrf", "rtn"): "797e1638a1e005809327d319794454f6e5b76ba54af93fb58d922a4defc241d5",
    ("qrf", "rotation"): "1b762159345de04ad820d524d5c6baf70d59f37f358a8cbb6be4b56d9a6a9759",
    ("simulate", "dephasing"): "0c78a5388c86d25bb8f2fd3d41dfd3af0f1c3c285ca2349fccc670b5ac8e69f1",
    ("simulate", "rabi_joint"): "7083d4e350ece9a76fa8bab39f1279c5f99a1b88e27c483350769bc7a4506f05",
}

# simulate refuses a config whose observable fails the SF condition unless forced
FLAGS = {("simulate", "rabi_joint"): ["--force"]}

TRUNCATED_DIGESTS = {
    "quasistatic": "143a2de9125a19a9c30e339a935411ed8ce9f7b2da319c971b88b743d51be3ad",
    "rtn": "374d5023ab3af0e8a5c3921550519e0925281ce09e397c3f0358f0b134385ffc",
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
