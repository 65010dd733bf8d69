"""Every benchmark command against its recorded reference, in Tier-1.

``bench/reference/commands.json`` holds, per command, the exit code, the
check verdicts and the SHA-256 of the printed report and of the ``--json``
report, recorded in fresh processes.  Each command here runs through
``cli.main`` in the test process, after whatever the earlier tests left in
the shared caches, and must reproduce all four.  The one entry without a
byte reference (a ``known_defect``) must exit 0 with every check ok.  The
reference is only read here.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from liebialg import cli

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "bench", "reference", "commands.json")

with open(REFERENCE) as fh:
    COMMANDS = json.load(fh)["commands"]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_reference_covers_the_benchmark():
    assert len(COMMANDS) == 69
    assert [c for c, want in COMMANDS.items() if "checks" not in want] == [
        "sklyanin --family h-primitive-standard"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_matches_the_benchmark_reference(command, tmp_path):
    want = COMMANDS[command]
    path = tmp_path / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split() + ["--json", str(path)])
    report = path.read_bytes()
    verdicts = [[c["name"], c["ok"]] for c in json.loads(report)["checks"]]
    assert code == want["exit_code"]
    if "checks" not in want:
        assert verdicts and all(ok for _, ok in verdicts), verdicts
        return
    assert verdicts == want["checks"]
    assert _sha256(out.getvalue().encode("utf-8")) == want["stdout_sha256"]
    assert _sha256(report) == want["json_sha256"]
