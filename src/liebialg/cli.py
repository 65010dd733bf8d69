"""Command-line front end.

Every command prints a deterministic plain-text report and can mirror it to a
machine-readable JSON document (``--json PATH``).  Exit codes: 0 all checks
passed, 1 some check failed (or an input file was rejected), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .symkernel import ContextError, UnitError, span_rank
from .liealg import schouten
from .bialgebra import (delta_from_r, cocycle_solve, cojacobi_constraints,
                        rmatrix_family, classify_point, InfeasibleSpecialization)
from .embed import SubalgebraSpan, match_sub_bialgebra
from . import formats, schrodinger, families, sklyanin, hopfdeform, verify

DEFAULT_ORDER_ENV = "LIEBIALG_ORDER"


class Report:
    def __init__(self, command):
        self.command = command
        self.lines = []
        self.checks = []

    def say(self, text=""):
        self.lines.append(text)

    def check(self, name, ok, payload=""):
        self.checks.append({"name": name, "ok": bool(ok), "payload": payload})
        mark = "ok" if ok else "FAIL"
        self.say(f"[{mark}] {name}" + (f": {payload}" if payload else ""))

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks)

    def render(self):
        return "\n".join([f"command: {self.command}"] + self.lines)

    def to_json(self):
        return {"command": self.command, "ok": self.ok,
                "checks": self.checks, "output": self.lines}


def _read(path):
    """Read an input file; bare names fall back to the packaged tables."""
    if os.path.exists(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError as err:
            raise formats.ParseError(f"cannot read {path}: {err.strerror}")
    try:
        return formats.load_table(path)
    except FileNotFoundError:
        raise formats.ParseError(f"no such file or packaged table: {path}")


def _load_algebra(args):
    if getattr(args, "algebra", None):
        return formats.parse_algebra(_read(args.algebra))
    return schrodinger.algebra()


def _load_r(args, L):
    return formats.parse_rmatrix(_read(args.r), L)


def _default_order():
    val = os.environ.get(DEFAULT_ORDER_ENV)
    return int(val) if val else 4


def _family_for(L, r):
    """Family with the conventional K^M^P presentation on the builtin algebra."""
    order = ("K", "M", "P") if L.names == schrodinger.GENERATORS else None
    return rmatrix_family(L, r, invariant_order=order)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_delta(args, rep):
    L = _load_algebra(args)
    r = _load_r(args, L)
    delta = delta_from_r(L, r)
    for g, row in zip(L.names, delta.rows):
        rep.say(f"delta({g}) = {row if not row.is_zero() else 0}")
    rep.check("delta-computed", True, f"{L.dim} rows")


def cmd_schouten(args, rep):
    L = _load_algebra(args)
    r = _load_r(args, L)
    s3 = schouten(r)
    rep.say(f"[[r,r]] = {s3 if not s3.is_zero() else 0}")
    if L.names == schrodinger.GENERATORS:
        rep.say(f"coefficient on K^M^P: {s3.signed_coeff(('K', 'M', 'P'))}")
    rep.check("schouten-computed", True)


def cmd_classify(args, rep):
    L = _load_algebra(args)
    r = _load_r(args, L)
    fam = _family_for(L, r)
    rep.say(f"discriminant ({'^'.join(fam.invariant_wedge)} coefficient): "
            f"{fam.discriminant}")
    rep.say(f"constraints: {len(fam.constraints)}")
    if args.at:
        bindings = formats.parse_bindings_arg(args.at)
        try:
            label = classify_point(fam, bindings)
        except InfeasibleSpecialization as err:
            rep.check("point-satisfies-constraints", False, str(err.violated))
            return
        rep.say(f"classification at point: {label}")
        rep.check("point-classified", True, label)
    else:
        rep.check("family-classified", True)


def cmd_cocycle_solve(args, rep):
    L = _load_algebra(args)
    sol = cocycle_solve(L)
    rep.say(f"kernel dimension: {sol.dim}")
    for g, row in zip(L.names, sol.cocommutator.rows):
        rep.say(f"delta({g}) = {row if not row.is_zero() else 0}")
    rep.check("cocycle-solved", True, f"dimension {sol.dim}")


def cmd_cojacobi(args, rep):
    L = _load_algebra(args)
    if args.r:
        r = _load_r(args, L)
        delta = delta_from_r(L, r)
    else:
        delta = cocycle_solve(L).cocommutator
    cons = cojacobi_constraints(L, delta)
    rank = span_rank(cons)
    rep.say(f"constraints ({len(cons)} after deduplication, "
            f"spanning a space of dimension {rank}):")
    for c in cons:
        rep.say(f"  {c}")
    rep.check("cojacobi-generated", True,
              f"{len(cons)} constraints, span dimension {rank}")


def cmd_embed(args, rep):
    L = _load_algebra(args)
    members = tuple(args.sub.split(","))
    span = SubalgebraSpan(L, members)
    target_alg, target = formats.parse_delta(_read(args.target))
    rename = formats.parse_map(_read(args.map), L)
    fam = _family_for(L, _load_r(args, L) if args.r
                      else families.load_rmatrix("general", L))
    report = match_sub_bialgebra(fam, span, target, rename)
    rep.say(f"subalgebra: {', '.join(members)}")
    rep.check("matching-consistent", report.consistent)
    if report.matching_constraints:
        rep.say("conditions on the target parameters: "
                + "; ".join(str(c) for c in report.matching_constraints))
    rep.say("bindings:")
    for k in sorted(report.bindings):
        rep.say(f"  {k} -> {report.bindings[k]}")
    if report.free_parent:
        rep.say("free parent parameters: " + ", ".join(report.free_parent))
    if report.forced_zero:
        rep.say("forced to zero: " + ", ".join(report.forced_zero))
    rep.say("residual constraints:")
    for c in report.residual:
        rep.say(f"  {c}")
    if not report.residual:
        rep.say("  (none)")


def cmd_sklyanin(args, rep):
    L = schrodinger.algebra()
    if args.family:
        spec = families.FAMILIES[args.family]
        r = families.load_rmatrix(args.family, L)
    elif args.r:
        spec = None
        r = _load_r(args, L)
    else:
        raise formats.ParseError("need --r FILE or --family NAME")
    table = sklyanin.sklyanin_table(r)
    rep.say(str(table))
    zero_at_unit = True
    for v in table.entries.values():
        const, _ = sklyanin.linear_part(v)
        if const:
            zero_at_unit = False
    rep.check("vanishes-at-unit", zero_at_unit)
    if spec is not None and spec.charts:
        rep.check("poisson-jacobi", sklyanin.poisson_jacobi_on_charts(
            r, spec.charts), f"{len(spec.charts)} chart(s)")


def cmd_hopf_check(args, rep):
    order = args.order if args.order is not None else _default_order()
    for name, ok, payload in hopfdeform.hopf_checks(
            hopfdeform.build_case(args.case, order)):
        rep.check(name, ok, payload)


def cmd_verify(args, rep):
    order = args.order if args.order is not None else _default_order()
    _, results = verify.run_all(order)
    for label, ok, checks in results:
        rep.check(label, ok)
        for name, o, payload in checks:
            if not o:
                rep.say(f"    failed: {name}" + (f" ({payload})" if payload else ""))


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liebialg",
        description="Exact workbench for Lie bialgebra structures on the "
                    "centrally extended Schrodinger algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.add_argument("--json", metavar="PATH",
                       help="write a machine-readable report")
        for flag, opts in flags.items():
            p.add_argument("--" + flag, **opts)
        p.set_defaults(handler=fn)
        return p

    add("delta", cmd_delta,
        r={"required": True}, algebra={"default": None})
    add("schouten", cmd_schouten,
        r={"required": True}, algebra={"default": None})
    add("classify", cmd_classify,
        r={"required": True}, algebra={"default": None},
        at={"default": None, "help": "rational point, e.g. c1=1,c2=0"})
    add("cocycle-solve", cmd_cocycle_solve, algebra={"default": None})
    add("cojacobi", cmd_cojacobi,
        algebra={"default": None}, r={"default": None})
    add("embed", cmd_embed,
        algebra={"default": None}, r={"default": None},
        sub={"required": True, "help": "comma-separated generators"},
        target={"required": True}, map={"required": True})
    add("sklyanin", cmd_sklyanin,
        r={"default": None}, family={"default": None,
                                     "choices": sorted(families.FAMILIES)})
    add("hopf-check", cmd_hopf_check,
        case={"required": True, "choices": hopfdeform.CASE_NAMES},
        order={"type": int, "default": None})
    add("verify", cmd_verify, order={"type": int, "default": None})
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    rep = Report(args.command)
    try:
        args.handler(args, rep)
    except (formats.ParseError, ContextError, UnitError,
            InfeasibleSpecialization, ValueError, KeyError) as err:
        rep.say(f"error: {err}")
        rep.checks.append({"name": "input-accepted", "ok": False,
                           "payload": str(err)})
    print(rep.render())
    if args.json:
        doc = rep.to_json()
        doc["exit_code"] = 0 if rep.ok else 1
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
