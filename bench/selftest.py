"""The benchmark's own tests (about two minutes):

    python3 -m pytest -q bench/selftest.py

They check the correctness gate with tampered references (negative
controls), the layer predictions each workload was chosen for, that two
traced runs count the same work, that every wrapper is restored, and the
machine-readable output format.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import KNOWN_DEFECTS, classical_pool  # noqa: E402


def _traced(workload, seed=1):
    return bench_run.one_run(workload, seed, 1, 1)


@pytest.fixture(scope="module")
def traced():
    return {w: _traced(w) for w in ("verify-o4", "hopf-o6", "classical-cli")}


# -- correctness gate --------------------------------------------------------

@pytest.fixture(scope="module")
def cli():
    from liebialg import cli
    return cli


def _outcome(cli, cmd, tmp_path):
    return worker.run_command(cli, cmd, str(tmp_path / "report.json"))


def test_reference_accepts_every_pool_command(cli, tmp_path):
    ref = reference.load()
    for cmd in classical_pool():
        failure = reference.check(ref, cmd, _outcome(cli, cmd, tmp_path))
        assert (failure is not None) == (cmd in KNOWN_DEFECTS), failure


@pytest.mark.parametrize("field,value", [
    ("exit_code", 1),
    ("checks", [["delta-computed", False]]),
    ("stdout_sha256", "0" * 64),
    ("json_sha256", "0" * 64),
])
def test_tampered_reference_is_caught(cli, tmp_path, field, value):
    cmd = ("delta", "--r", "d_primitive.rmat")
    ref = reference.load()
    outcome = _outcome(cli, cmd, tmp_path)
    assert reference.check(ref, cmd, outcome) is None
    ref[reference.command_id(cmd)] = dict(ref[reference.command_id(cmd)],
                                          **{field: value})
    assert reference.check(ref, cmd, outcome) is not None


def test_changed_output_is_caught(cli, tmp_path):
    cmd = ("delta", "--r", "d_primitive.rmat")
    outcome = _outcome(cli, cmd, tmp_path)
    outcome["stdout"] += " "
    assert "printed report" in reference.check(reference.load(), cmd, outcome)
    assert "raised" in reference.check(
        reference.load(), cmd, dict(outcome, error="ValueError: x"))


def test_known_defect_counts_as_failed(cli, tmp_path):
    (cmd,) = KNOWN_DEFECTS
    failure = reference.check(reference.load(), cmd,
                              _outcome(cli, cmd, tmp_path))
    assert failure and "exit 1, expected 0" in failure


def _mini_checkout(tmp_path, with_src=True):
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _drive(root, workload, trace=0, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def test_tampered_reference_fails_the_run(tmp_path):
    root = _mini_checkout(tmp_path)
    path = root / "bench" / "reference" / "commands.json"
    doc = json.loads(path.read_text())
    doc["commands"]["cojacobi --r general.rmat"]["stdout_sha256"] = "0" * 64
    path.write_text(json.dumps(doc))
    proc = _drive(root, "classical-cli")
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 2


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    root = _mini_checkout(tmp_path, with_src=False)
    proc = _drive(root, "classical-cli")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- machine-readable output -------------------------------------------------

def test_output_names_match_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _drive(ROOT, "classical-cli", trace=trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        # the known defect fails once per pass of the pool
        assert last["failed"] * len(classical_pool()) == last["attempted"]
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == want


# -- layer predictions ---------------------------------------------------------

def test_span_equal_runs_only_on_verify(traced):
    assert traced["verify-o4"]["metrics"]["symkernel.span_equal.calls"] == 18
    assert traced["verify-o4"]["metrics"]["symkernel.solve_linear.calls"] == 364
    for w in ("hopf-o6", "classical-cli"):
        assert traced[w]["metrics"]["symkernel.span_equal.calls"] == 0
        assert traced[w]["metrics"]["symkernel.solve_linear.calls"] == 0


def test_hopf_layer_never_runs_on_classical_cli(traced):
    m = traced["classical-cli"]["metrics"]
    hopf = {k: v for k, v in m.items()
            if k.startswith("hopfdeform.") and k.endswith(".calls")}
    assert len(hopf) == 9 and not any(hopf.values())
    assert m["symkernel.rref.calls"] > 0 and m["symkernel.span_rank.calls"] > 0


def test_hopf_o6_is_hopf_work(traced):
    m = traced["hopf-o6"]["metrics"]
    assert m["hopfdeform.nf_word.calls"] == 114471
    assert m["hopfdeform.nf_cache.entries"] == 6473
    assert m["symkernel.truncate.terms_in"] == 720817
    assert m["symkernel.rref.calls"] == 0


def test_every_workload_is_correct(traced):
    for w, res in traced.items():
        assert res["correct"], res["failures"]
        if w != "classical-cli":
            assert res["failed"] == 0


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if not (k.endswith("_s") or k.endswith(".s"))}


def test_two_traced_runs_count_the_same(traced):
    for w in ("classical-cli", "verify-o4"):
        again = _traced(w, seed=2)
        assert _counts(again["metrics"]) == _counts(traced[w]["metrics"])


# -- wrappers ----------------------------------------------------------------

def test_wrappers_replace_every_binding_and_restore():
    from liebialg import verify, cli, symkernel
    before = tracing.bindings()
    t = tracing.Tracer()
    t.install()
    try:
        assert verify.span_equal is symkernel.span_equal
        assert verify.span_equal.__wrapped__ is before[
            ("liebialg.symkernel", "span_equal")]
        assert cli.span_rank is symkernel.span_rank
        # run_all picks criterion 11's order by identity through CRITERIA
        assert verify.CRITERIA[10][1] is verify.criterion_11
        assert verify.CRITERIA[10][1] is not before[
            ("liebialg.verify", "criterion_11")]
        assert symkernel.PolyExpr.__rmul__ is symkernel.PolyExpr.__mul__
        assert not tracing.same_bindings(before, tracing.bindings())
    finally:
        t.restore()
    assert tracing.same_bindings(before, tracing.bindings())


def test_traced_call_counts_and_self_time():
    from liebialg import symkernel
    t = tracing.Tracer()
    t.install()
    try:
        symkernel.span_rank([symkernel.PolyExpr.var("x") * 2])
    finally:
        t.restore()
    s = t.stats()
    assert s["symkernel.span_rank.calls"] == 1
    assert s["symkernel.rref.calls"] == 1
    assert s["symkernel.rref.max_cells"] == 1
    assert s["symkernel.polyexpr_mul.calls"] == 1
    # the rref span is a child of the span_rank span
    assert list(t.span_parent) == [-1, 0]
    assert 0 <= s["symkernel.span_rank.self_s"] <= t.span_end[0] - t.span_start[0]
