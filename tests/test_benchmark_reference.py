"""Every report the CLI delivers, byte for byte, in Tier-1.

``bench/reference/commands.json`` holds, per benchmark command, the exit
code, the check verdicts and the SHA-256 of the printed report and of the
``--json`` report, recorded in fresh processes.  Each command here runs
through ``cli.main`` in the test process, after whatever the earlier tests
left in the shared caches, and must reproduce all four.  The one entry
without a byte reference (a ``known_defect``) must exit 0 with every check
ok.  The reference is only read here.

``PINS`` holds the same three values for commands outside the benchmark:
the orders at which the Hopf cases truncate differently, the smaller
verify, the co-Jacobi and cocycle runs on a parsed algebra, and the
classify points around the unit check.  Each runs twice in one process.
A new row takes its hashes from a fresh process of the parent commit:
``python -m liebialg.cli COMMAND --json FILE``, hashing stdout and FILE.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from liebialg import cli, formats

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "bench", "reference", "commands.json")

with open(REFERENCE) as fh:
    COMMANDS = json.load(fh)["commands"]

# command: (exit code, SHA-256 of the printed report, SHA-256 of --json)
PINS = {
    "verify --order 2": (
        0, "a5d6607fc5f9650ea3eaffb57e44f202e35c7ec313d77674ed82983eca90af9f",
        "70fd9654fde4150db7292ba082a91b273afed05ab553692c7d6dd628bf612647"),
    "hopf-check --case ucc --order 1": (
        0, "6f01f4461f7cbfed44b6e3491c5240dbe83974b499b7d6179f58d456e5770e0c",
        "e45c0235c9b01082cf349dfb5bbad6fca3fbcdea4d9cb8162149cb5045e9c5eb"),
    "hopf-check --case ucc --order 4": (
        0, "6ce48b5bc3ecdd894465b1294380d4cab040d3d1c1ff10ecd2dda641d07c400e",
        "20cd9ea2c6887e9f8a313ee8fb5a90a1011682cf3c27171ce3b858e4d8c24abb"),
    # first-order-cocommutator fails by design at N=0
    "hopf-check --case uac --order 0": (
        1, "44c262d5ff2f99a2f59ade863a075738bdfea4261d4c08b72810a7f539966416",
        "caf7db7f35053d2db9b4b31b21011e2866d838a1b992efe8b564777d97595a35"),
    "hopf-check --case uac --order 2": (
        0, "27ba68790717b7765fb40cff624b0e3103e24702b71a2665170225b74f2e8377",
        "bab0b3d473307a5a5c9557f19466440b81fe30c5a114ccb99afede705edf01f8"),
    "hopf-check --case uac --order 4": (
        0, "6ce48b5bc3ecdd894465b1294380d4cab040d3d1c1ff10ecd2dda641d07c400e",
        "20cd9ea2c6887e9f8a313ee8fb5a90a1011682cf3c27171ce3b858e4d8c24abb"),
    "hopf-check --case uac --order 5": (
        0, "a7c9d368a63c7e8ad6dc39c92828758739b918dc3fc759c4713bca1e573f784e",
        "8378270a1714bb2c79903d2acffbfba43144e3e2b7fe87167c3d19a201017527"),
    "hopf-check --case uac --order 7": (
        0, "f16facb8695d36ad00b701e38e8d48ad7ac19f640d12b334b78cfa24decdf046",
        "473c3c83742ec05d87beb3ab36cb91c9042bd5fa0ca1c5708f1d94bd23fda32f"),
    "cocycle-solve --algebra gl2.alg": (
        0, "bc788e4092117541c87fb330e8ca257380623cf72047afb45c2cda56efa1c504",
        "1eedeb8c781653be315766b47f3ce53faa53eb74b6e31ce88b12725affca5028"),
    "cojacobi --algebra twophoton.alg": (
        0, "7d8e1663aaa6fe7ad7f7e21208be1e8e2d761d50ba06c90ff5e2dabc14e192a3",
        "8f10688e9a5bcf292a90bf913a0ac79284f1bb24eb8c97c3a84d2ac4bcf330af"),
    # the benchmark's known_defect entry, which has no byte reference there
    "sklyanin --family h-primitive-standard": (
        0, "bfe050e6fbb54c8f480272354c08c6d0073f5a222c3c0d64a7672b5bdab8cb68",
        "6ce92e5ec51ac17fe8b234ce699d057d989976e324661381167ff858047304cc"),
    "classify --r general.rmat --at c1=1": (
        1, "20a9c35b858df728badc1bf746e876fcf8e2bd64f88cedd75f6e74ae207c4dd9",
        "7f0aa09ea743604b40edc3bf55ae4f6c83bdabb66c3490b22a6463d34a62527d"),
    # c2 occurs as c2^-1: 0 is no unit, 2 is
    "classify --r h_primitive_standard.rmat --at c2=0": (
        1, "a52f4c33c20e4427761e41882e6e912aa12502b28905198a2c3863484e1c30cb",
        "67067456cc025e26ebb618d4a0e849ad0f39adf0b772e82c95bf54db36226f21"),
    "classify --r h_primitive_standard.rmat --at c2=2": (
        0, "381fe18d40d476ff1aaf8e5e743f1a9ad9b36dbe4a54e5a15485e85da5b47a48",
        "7a81e5c859702311e3acecf8b3642c2883c3b6049e340210cd1bf983d21cc1b5"),
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv, tmp_path):
    """Exit code, printed report and --json report of ``cli.main``."""
    path = tmp_path / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv) + ["--json", str(path)])
    report = path.read_bytes()
    path.unlink()
    return code, out.getvalue().encode("utf-8"), report


def test_reference_covers_the_benchmark():
    assert len(COMMANDS) == 69
    assert [c for c, want in COMMANDS.items() if "checks" not in want] == [
        "sklyanin --family h-primitive-standard"]
    assert not set(PINS) & {c for c, want in COMMANDS.items()
                            if "checks" in want}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_matches_the_benchmark_reference(command, tmp_path):
    want = COMMANDS[command]
    code, out, report = _run(command.split(), tmp_path)
    verdicts = [[c["name"], c["ok"]] for c in json.loads(report)["checks"]]
    assert code == want["exit_code"]
    if "checks" not in want:
        assert verdicts and all(ok for _, ok in verdicts), verdicts
        return
    assert verdicts == want["checks"]
    assert _sha256(out) == want["stdout_sha256"]
    assert _sha256(report) == want["json_sha256"]


@pytest.mark.parametrize("command", sorted(PINS))
def test_command_matches_its_pin_twice(command, tmp_path):
    for _ in range(2):
        code, out, report = _run(command.split(), tmp_path)
        assert (code, _sha256(out), _sha256(report)) == PINS[command]


@pytest.mark.parametrize("command", [
    "schouten --r general.rmat",
    "embed --sub D,P,K,M --target oscillator_target.delta "
    "--map oscillator_embedding.map",
])
def test_named_or_copied_algebra_prints_the_same_bytes(command, tmp_path,
                                                       monkeypatch):
    """``--algebra schrodinger.alg`` reads the shared built-in algebra, and
    a copy of it on disk is parsed afresh with its map and Schouten pair
    table; both print the bytes of the built-in run, which the benchmark
    reference holds."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "copy.alg").write_text(formats.load_table("schrodinger.alg"))
    name, *args = command.split()
    want = _run(command.split(), tmp_path)
    for alg in ("schrodinger.alg", "copy.alg"):
        assert _run([name, "--algebra", alg, *args], tmp_path) == want


@pytest.mark.parametrize("command", [
    "cocycle-solve --algebra gl2.alg", "hopf-check --case uac --order 0"])
def test_fresh_process_prints_what_cli_main_prints(command, tmp_path):
    """``python -m liebialg.cli`` is the entry point a user runs: its exit
    code and both reports equal those of ``cli.main`` in this process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = tmp_path / "fresh.json"
    fresh = subprocess.run(
        [sys.executable, "-m", "liebialg.cli", *command.split(),
         "--json", str(path)],
        capture_output=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src})
    assert fresh.stderr == b""
    assert (fresh.returncode, fresh.stdout, path.read_bytes()) == \
        _run(command.split(), tmp_path)


@pytest.mark.parametrize("command", ["verify --order 2", "cojacobi"])
def test_report_bytes_do_not_depend_on_the_hash_seed(command, tmp_path):
    """Sets and dicts keyed by strings iterate in an order the hash seed
    picks.  Fresh processes under ``PYTHONHASHSEED=0`` and ``=1``, and
    ``cli.main`` under this process's seed, deliver the same exit code and
    the same bytes of both reports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    runs = []
    for seed in ("0", "1"):
        path = tmp_path / f"seed{seed}.json"
        fresh = subprocess.run(
            [sys.executable, "-m", "liebialg.cli", *command.split(),
             "--json", str(path)],
            capture_output=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert fresh.stderr == b""
        runs.append((fresh.returncode, fresh.stdout, path.read_bytes()))
    assert runs[0] == runs[1] == _run(command.split(), tmp_path)


@pytest.mark.parametrize("first, buffered", [
    ("shell", True), ("shell", False), ("report", False)])
def test_reader_that_closes_stdout_early_gets_no_traceback(first, buffered,
                                                           tmp_path):
    """``python -m liebialg.cli ... | head -1``: the reader takes one line
    and closes the pipe.  The fresh process writes nothing to stderr, and
    its exit code and --json report equal those of ``cli.main`` here.  With
    ``first="shell"`` the line comes from ``echo`` before the CLI starts, so
    the report meets the closed pipe: in ``print`` when stdout is
    unbuffered, in the flush after it when stdout is buffered.  With
    ``"report"`` it is the report's first line, and unbuffered stdout writes
    the rest after it."""
    command = ("embed --sub D,P,K,M --target oscillator_target.delta "
               "--map oscillator_embedding.map").split()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = tmp_path / "fresh.json"
    argv = [sys.executable, "-m", "liebialg.cli", *command,
            "--json", str(path)]
    if first == "shell":
        argv = ["sh", "-c", 'echo ready; exec "$@"', "sh", *argv]
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"}
    if buffered:
        del env["PYTHONUNBUFFERED"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=tmp_path, env=env)
    line = proc.stdout.readline()
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    proc.wait(timeout=120)
    code, out, report = _run(command, tmp_path)
    assert line == (b"ready\n" if first == "shell"
                    else out.splitlines(keepends=True)[0])
    assert (err, proc.returncode, path.read_bytes()) == (b"", code, report)
