"""Reference results of every benchmark command, and the correctness gate.

The reference holds, per command, the exit code, the check verdicts and the
SHA-256 of the printed report and of the `--json` report, recorded in fresh
processes by `python3 bench/reference.py` (run it only when a change is meant
to alter outputs, and say so).  A job fails when it raises, when its exit
code or check verdicts differ from the reference, or when either report
differs byte for byte.  A command listed in `workloads.KNOWN_DEFECTS` has no
byte reference; its expected result is exit 0 with every check ok.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PATH = os.path.join(BENCH, "reference", "commands.json")


def command_id(cmd):
    return " ".join(cmd)


def sha256(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load(path=PATH):
    with open(path) as fh:
        return json.load(fh)["commands"]


def _verdicts(report):
    doc = json.loads(report)
    return [[c["name"], c["ok"]] for c in doc["checks"]]


def check(ref, cmd, outcome):
    """None if the outcome matches the reference, else the reason it fails."""
    cid = command_id(cmd)
    want = ref.get(cid)
    if want is None:
        return f"{cid}: no reference"
    if outcome["error"] is not None:
        return f"{cid}: raised {outcome['error']}"
    if outcome["code"] != want["exit_code"]:
        return f"{cid}: exit {outcome['code']}, expected {want['exit_code']}"
    got = _verdicts(outcome["report"])
    if "checks" not in want:           # known defect: every check must pass
        bad = [name for name, ok in got if not ok]
        return f"{cid}: failed checks {bad}" if bad else None
    if got != want["checks"]:
        return f"{cid}: check verdicts {got}, expected {want['checks']}"
    if sha256(outcome["stdout"]) != want["stdout_sha256"]:
        return f"{cid}: printed report differs from the reference"
    if sha256(outcome["report"]) != want["json_sha256"]:
        return f"{cid}: --json report differs from the reference"
    return None


def record():
    """Run every command in a fresh interpreter and write the reference."""
    sys.path.insert(0, BENCH)
    from workloads import KNOWN_DEFECTS, all_commands
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("LIEBIALG_ORDER", None)
    out = {}
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "bench")) as tmp:
        report_path = os.path.join(tmp, "report.json")
        for cmd in all_commands():
            proc = subprocess.run(
                [sys.executable, "-m", "liebialg.cli", *cmd,
                 "--json", report_path],
                env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            if cmd in KNOWN_DEFECTS:
                out[command_id(cmd)] = {"exit_code": 0, "known_defect": True}
                continue
            with open(report_path, "rb") as fh:
                report = fh.read()
            out[command_id(cmd)] = {
                "exit_code": proc.returncode,
                "checks": _verdicts(report),
                "stdout_sha256": sha256(proc.stdout),
                "json_sha256": sha256(report),
            }
            print(f"{proc.returncode}  {command_id(cmd)}", file=sys.stderr)
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w") as fh:
        json.dump({"commands": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
