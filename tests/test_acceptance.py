"""Acceptance suite: every criterion as one test, printing one line each.

All checks are exact symbolic identities; there are no numeric tolerances
anywhere.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType, ModuleType

import liebialg
from liebialg import (verify, cli, bialgebra, families, formats, hopfdeform,
                      schrodinger)
from liebialg.liealg import LieAlgebra, TensorElement, WedgeElement
from liebialg.symkernel import PolyExpr


def _run(label, checks):
    ok = all(c[1] for c in checks)
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    for name, cok, payload in checks:
        assert cok, f"{label} / {name}: {payload}"
    return ok


def test_criterion_01_classical_table():
    assert _run("1 classical table", verify.criterion_1(4))


def test_criterion_02_cocycle_solution():
    assert _run("2 cocycle solution", verify.criterion_2(4))


def test_appendix_vectors_match_the_substitution_path():
    """Criterion 2 reads the vector of each alpha as a column of the
    appendix cocycle's linear system; the reference sets that alpha to 1
    and every other alpha to 0."""
    sol = bialgebra.cocycle_solve(schrodinger.algebra())
    apdelta = formats.table("cocycle_general.delta")
    vecs, rest = verify._appendix_vectors(sol, apdelta)
    coeffs = [apdelta.rows[gi].coeff(pr) for gi, pr in sol.unknown_layout]
    alphas = [f"alpha{t}" for t in range(1, 16)]
    want = [[c.substitute({nm: int(nm == name) for nm in alphas})
             for c in coeffs] for name in alphas]
    assert vecs == want
    assert len(rest) == len(coeffs) and not any(rest)


def test_alpha_free_term_fails_the_span_check(monkeypatch):
    """The appendix cocycle is homogeneous linear in the alphas, so a term
    without one fails the span check, though the alpha vectors still span
    the kernel."""
    real = formats.table

    def tampered(name):
        if name != "cocycle_general.delta":
            return real(name)
        delta = real(name)
        L = delta.algebra
        rows = list(delta.rows)
        rows[0] = rows[0] + WedgeElement.from_pairs(L, [(1, "P", "M")])
        return bialgebra.Cocommutator(L, rows)

    monkeypatch.setattr(formats, "table", tampered)
    checks = {name: ok for name, ok, _ in verify.criterion_2(4)}
    assert checks["appendix-parameters-span-kernel"] is False
    assert checks["basis-change-invertible"] is True


def test_criterion_03_nineteen_equations():
    assert _run("3 nineteen equations", verify.criterion_3(4))


def test_criterion_04_coboundary_theorem():
    assert _run("4 coboundary theorem", verify.criterion_4(4))


def test_criterion_05_schouten_bracket():
    assert _run("5 schouten bracket", verify.criterion_5(4))


def test_criterion_06_invariant_tensors():
    assert _run("6 invariant tensors", verify.criterion_6(4))


def test_criterion_07_automorphism():
    assert _run("7 automorphism", verify.criterion_7(4))


def test_criterion_08_primitive_families():
    assert _run("8 primitive families", verify.criterion_8(4))


def test_criterion_09_embeddings():
    assert _run("9 embeddings", verify.criterion_9(4))


def test_criterion_10_poisson_lie():
    assert _run("10 poisson-lie", verify.criterion_10(4))


def test_criterion_11_quantum_deformations():
    assert _run("11 quantum deformations", verify.criterion_11(4))


def test_criterion_12_negative_controls():
    assert _run("12 negative controls", verify.criterion_12(4))


def test_criterion_12_tampered_table_payload():
    """The tampered algebra is the table text with the sign of [D,P]
    flipped; cmd_verify prints only failing payloads, so pin this one."""
    checks = {name: (ok, payload) for name, ok, payload
              in verify.criterion_12(4)}
    assert checks["tampered-table-fails-jacobi"] == (
        True, "nonzero triples: [('D', 'C', 'P'), ('D', 'H', 'K'), "
              "('D', 'K', 'P'), ('C', 'H', 'P')]")


def test_criterion_12_pair_table_jacobi_control():
    """Criterion 10's pair-table check, on p-primitive with no chart
    binding its parameters, fails at its first triple, so the check
    criterion 10 runs can fail; the generic ``poisson_jacobi`` control on a
    broken table stays beside it."""
    checks = {name: (ok, payload) for name, ok, payload
              in verify.criterion_12(4)}
    ok, payload = checks["unconstrained-p-primitive-fails-jacobi"]
    assert ok and payload.startswith("chart 0, triple (d,p,m): ")
    assert checks["broken-bracket-fails-jacobi"][0]


def test_run_all_builds_the_general_family_once(monkeypatch):
    calls = []
    real = bialgebra.rmatrix_family

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # families imports it by name, so patch that binding too
    for mod in (bialgebra, families):
        monkeypatch.setattr(mod, "rmatrix_family", counting)
    families.family.cache_clear()
    assert verify.run_all(2)[0]
    # one build per family: the general family, and the three proposition
    # families whose constraints and discriminant criterion 9 reads
    names = ("general", "oscillator", "gl2", "galilei")
    assert len(calls) == 4
    assert all(any(r is families.load_rmatrix(name) for r, in calls)
               for name in names)
    # the families and the tables are kept for the life of the process: a
    # second run builds no family and parses no packaged table; the only
    # parses left are criterion 12's two of the tampered algebra text
    parsed = []

    def recording(name, real):
        def parse(text, *args, **kwargs):
            parsed.append((name, text))
            return real(text, *args, **kwargs)
        return parse

    for name in ("parse_algebra", "parse_rmatrix", "parse_delta", "parse_eqs",
                 "parse_map", "parse_subs", "parse_ptable"):
        monkeypatch.setattr(formats, name,
                            recording(name, getattr(formats, name)))
    assert verify.run_all(2)[0]
    assert len(calls) == 4
    tampered = formats.load_table("schrodinger.alg").replace(
        "[D,P] = -P", "[D,P] = P")
    assert parsed == [("parse_algebra", tampered)] * 2


def test_run_all_twice_in_one_process_gives_equal_results():
    """Criterion 11 and criterion 12's order-3 uac read the shared Hopf
    cases, whose memos the first run fills; the second run reports the same
    verdict and payload for every check."""
    first = verify.run_all(4)
    assert hopfdeform.build_case("uac", 4).algebra._nf_cache
    assert first[0] and verify.run_all(4) == first


def test_cli_verify_end_to_end(capsys, tmp_path):
    path = tmp_path / "verify.json"
    code = cli.main(["verify", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    for n in range(1, 13):
        assert f"[ok] {n} " in out
    import json
    doc = json.loads(path.read_text())
    assert doc["ok"] is True and len(doc["checks"]) == 12


def test_a_raising_criterion_fails_and_the_others_still_report(
        capsys, monkeypatch):
    """With ``basis_flip.map``'s ``D -> -D`` tampered to ``D -> D``,
    criterion 7 raises; verify reports it as that criterion's one failed
    check, with the message as its payload, and every other criterion
    still reports its verdict.  The tampered map is handed out in place of
    the shared table, whose cache stays as it was."""
    text = formats.load_table("basis_flip.map")
    assert "D -> -D" in text
    tampered = MappingProxyType(formats.parse_map(
        text.replace("D -> -D", "D -> D"), schrodinger.algebra()))
    real = formats.table
    monkeypatch.setattr(formats, "table", lambda name: (
        tampered if name == "basis_flip.map" else real(name)))
    code = cli.main(["verify", "--order", "2"])
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line for line in lines if line.startswith("[")]
    assert code == 1
    assert verdicts == [f"[{'FAIL' if n == 7 else 'ok'}] {label}"
                        for n, (label, _) in enumerate(verify.CRITERIA, 1)]
    assert lines[lines.index("[FAIL] 7 automorphism") + 1] == (
        "    failed: ran-to-completion "
        "(gmap is not a Lie algebra automorphism)")
    assert not any(line.startswith("error:") for line in lines)


def test_verify_names_a_family_whose_delta_table_is_not_its_coboundary(
        capsys, monkeypatch):
    """Criterion 4 compares every family's delta table with delta_from_r
    of its r-matrix.  With the first ' + ' of line 3 of
    ``h_primitive_standard.delta`` flipped to ' - ', criterion 4 alone
    fails, and its failed check names that family.  The flipped table is
    handed out in place of the shared one, whose cache stays as it was."""
    lines = formats.load_table("h_primitive_standard.delta").split("\n")
    flipped = lines[2].replace(" + ", " - ", 1)
    assert flipped != lines[2]
    lines[2] = flipped
    tampered = formats.parse_delta("\n".join(lines), schrodinger.algebra())
    real = formats.table
    monkeypatch.setattr(formats, "table", lambda name: (
        tampered if name == "h_primitive_standard.delta" else real(name)))
    code = cli.main(["verify", "--order", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line for line in out if line.startswith("[")] == [
        f"[{'FAIL' if n == 4 else 'ok'}] {label}"
        for n, (label, _) in enumerate(verify.CRITERIA, 1)]
    at = out.index("[FAIL] 4 coboundary theorem")
    assert out[at + 1:at + 3] == [
        "    failed: h-primitive-standard-delta-equals-table",
        "[ok] 5 schouten bracket"]


def test_criterion_9_runs_each_embedding_once(monkeypatch):
    calls = []
    real = families.match_sub_bialgebra

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(families, "match_sub_bialgebra", counting)
    assert all(ok for _, ok, _ in verify.criterion_9(4))
    assert len(calls) == 3


def test_restriction_check_fails_without_the_target_bindings(monkeypatch):
    """Negative control: the Galilei matching sets target parameters to
    zero, so restricting the proposition onto the subalgebra without them
    misses the target; the other two embeddings bind no target parameter."""
    real = families.run_embedding

    def unbound(name, fam):
        report, target = real(name, fam)
        return dataclasses.replace(report, target_bindings={}), target

    monkeypatch.setattr(families, "run_embedding", unbound)
    assert [name for name, ok, _ in verify.criterion_9(4) if not ok] == [
        "galilei-restriction-reproduces-target"]


def _coefficients(value):
    """Every number stored in a value the criteria share."""
    if isinstance(value, PolyExpr):
        yield from value.terms.values()
    elif isinstance(value, (WedgeElement, TensorElement)):
        for c in value.terms.values():
            yield from _coefficients(c)
    elif isinstance(value, bialgebra.Cocommutator):
        for row in value.rows:
            yield from _coefficients(row)
    elif isinstance(value, LieAlgebra):
        for i in range(value.dim):
            for j in range(value.dim):
                yield from value.sc(i, j).values()
    elif isinstance(value, Mapping):
        for v in value.values():
            yield from _coefficients(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _coefficients(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _coefficients(getattr(value, f.name))


def test_shared_values_have_canonical_coefficients():
    values = [schrodinger.algebra(), families.family("general"),
              verify._transcribed_19(),
              formats.table("cocycle_general.delta"),
              formats.table("identification.subs")]
    coeffs = list(_coefficients(values))
    assert len(coeffs) > 300
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in coeffs)
    assert any(type(c) is Fraction for c in coeffs)


def _foreign_imports(source):
    """The top-level modules of the absolute imports in ``source`` that are
    neither in the standard library nor ``liebialg``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        out.update(t for t in tops
                   if t not in sys.stdlib_module_names and t != "liebialg")
    return out


def test_runtime_is_stdlib_only():
    sources = sorted(Path(liebialg.__file__).parent.glob("*.py"))
    assert len(sources) >= 12
    assert {p.name: _foreign_imports(p.read_text()) for p in sources} == \
        {p.name: set() for p in sources}
    # the negative control: a third-party import is flagged, a relative or
    # a standard one is not
    assert _foreign_imports("import os, numpy\nfrom .cli import main\n"
                            "from scipy.linalg import lu\n") == \
        {"numpy", "scipy"}


def _missing_exports(module):
    """The names in ``module.__all__`` that are no attribute of it."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_every_export_resolves_to_an_attribute():
    """Every name a module lists in ``__all__`` is one of its attributes,
    and every name ``liebialg/__init__`` imports from a submodule is a
    package attribute that the submodule lists in ``__all__``, so a
    deleted function leaves no stale export behind."""
    init = Path(liebialg.__file__)
    modules = {p.stem: importlib.import_module(f"liebialg.{p.stem}")
               for p in sorted(init.parent.glob("*.py"))
               if p.stem != "__init__"}
    listed = {name: m for name, m in modules.items() if hasattr(m, "__all__")}
    assert len(listed) >= 7
    assert {name: _missing_exports(m) for name, m in listed.items()} == \
        {name: [] for name in listed}
    reexports = [(node.module, alias.name)
                 for node in ast.parse(init.read_text()).body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert len(reexports) > 30
    for source, name in reexports:
        assert hasattr(liebialg, name), name
        if source is not None:
            assert name in listed[source].__all__, (source, name)
    # the negative control: a name listed but never defined is reported
    stale = ModuleType("stale")
    stale.__all__ = ["gone"]
    assert _missing_exports(stale) == ["gone"]


def test_benchmark_set_up_runs_in_a_fresh_process(tmp_path):
    """``bench/worker.py --setup-only`` parses every packaged table in a
    fresh interpreter, the benchmark's own set-up: it exits 0 and its last
    line is the JSON record with ``setup_s``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    worker = os.path.join(os.path.dirname(src), "bench", "worker.py")
    done = subprocess.run([sys.executable, worker, "--setup-only"],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "setup_s" in json.loads(done.stdout.splitlines()[-1])
