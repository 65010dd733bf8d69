"""Command-line front end.

Every command prints a deterministic plain-text report and can mirror it to a
machine-readable JSON document (``--json PATH``).  ``Report.json_bytes``
encodes the document itself, in its one fixed layout: keys sorted, indented
by 2, ASCII only, strings escaped by the C encoder of the ``json`` module;
the bytes are those ``json.dumps(doc, indent=2, sort_keys=True)`` gives.
The document replaces what PATH held: the file is emptied when it is
opened and is not synced.
Exit codes: 0 all checks passed, 1 some check failed (or an input file was
rejected, or the ``--json`` report could not be written), 2 usage errors.

An input argument names a file; a name that is no path on disk is a packaged
table.  A packaged ``.alg``, ``.rmat`` or ``.map`` table is the one value
``formats.table`` shares, unless it is read on another algebra.  The
argument parser is built once per process, on the first ``main`` call.  An
argv that starts with a command name is parsed by that command's subparser
alone, and an argument it leaves is the whole parser's ``unrecognized
arguments`` error; any other argv goes through the whole parser.  Nothing a
command reports is kept from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from gettext import gettext
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .symkernel import span_rank
from .liealg import schouten
from .bialgebra import (delta_from_r, cocycle_solve, cojacobi_constraints,
                        classify_point, InfeasibleSpecialization)
from .embed import match_sub_bialgebra
from . import formats, schrodinger, families, sklyanin, hopfdeform, verify


# The --json document's layout: its keys sorted, indented by 2, one check
# per ``_CHECK``; ``json.dumps(doc, indent=2, sort_keys=True)`` writes the
# same bytes.
_DOC = ('{\n  "checks": %s,\n  "command": %s,\n  "exit_code": %d,'
        '\n  "ok": %s,\n  "output": %s\n}')
_CHECK = ('    {\n      "name": %s,\n      "ok": %s,'
          '\n      "payload": %s\n    }')


def _json_list(items):
    """A list value of the document: its encoded items one to a line."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


class Report:
    """The report of one command: its printed lines and its checks, each
    ``{"name": str, "ok": bool, "payload": str}``."""

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

    def json_bytes(self):
        """The ``--json`` document, as ASCII bytes: ``checks``, ``command``,
        ``exit_code``, ``ok`` and ``output``, in the layout of ``_DOC``,
        every string escaped by the C ``encode_basestring_ascii``."""
        q = encode_basestring_ascii
        ok = self.ok
        checks = [_CHECK % (q(c["name"]), "true" if c["ok"] else "false",
                            q(c["payload"])) for c in self.checks]
        output = ["    " + q(line) for line in self.lines]
        return (_DOC % (_json_list(checks), q(self.command), 0 if ok else 1,
                        "true" if ok else "false",
                        _json_list(output))).encode()


def _input(name, kind, L=None, disk=True):
    """The input ``name`` parsed as a ``kind`` table (``alg``, ``delta``,
    ``rmat`` or ``map``), on the algebra ``L`` for the last three.

    A path on disk wins, unless ``disk`` is false; any other name is a
    packaged table.  A packaged ``.alg``, ``.rmat`` or ``.map`` table of
    the requested kind is the one value ``formats.table`` shares whenever
    that value lives on ``L``; it is parsed afresh only to be read on
    another algebra, and so is every ``.delta`` table."""
    parse = {"alg": formats.parse_algebra, "delta": formats.parse_delta,
             "rmat": formats.parse_rmatrix, "map": formats.parse_map}[kind]
    if disk and os.path.exists(name):
        try:
            text = formats.read_text(Path(name))
        except OSError as err:
            raise formats.ParseError(f"cannot read {name}: {err.strerror}")
    else:
        try:
            if kind != "delta" and name.endswith("." + kind):
                shared = formats.table(name)
                # a table that lives on another algebra is read on L
                # afresh, which rejects it
                on = (() if kind == "alg" else shared.values()
                      if kind == "map" else (shared,))
                if all(v.algebra is L for v in on):
                    return shared
            text = formats.load_table(name)
        except FileNotFoundError:
            raise formats.ParseError(
                f"no such file or packaged table: {name}")
    return parse(text) if L is None else parse(text, L)


def _load_algebra(args):
    if getattr(args, "algebra", None):
        return _input(args.algebra, "alg")
    return schrodinger.algebra()


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_delta(args, rep):
    L = _load_algebra(args)
    r = _input(args.r, "rmat", L)
    for line in str(delta_from_r(r)).splitlines():
        rep.say(line)
    rep.check("delta-computed", True, f"{L.dim} rows")


def cmd_schouten(args, rep):
    L = _load_algebra(args)
    r = _input(args.r, "rmat", L)
    s3 = schouten(r)
    rep.say(f"[[r,r]] = {s3}")
    if L == schrodinger.algebra():
        wedge = schrodinger.INVARIANT_WEDGE
        rep.say(f"coefficient on {'^'.join(wedge)}: {s3.signed_coeff(wedge)}")
    rep.check("schouten-computed", True)


def cmd_classify(args, rep):
    # a malformed --at is an input error before any family is built
    bindings = formats.parse_bindings_arg(args.at)
    L = _load_algebra(args)
    r = _input(args.r, "rmat", L)
    fam = families.family_of(r)
    rep.say(f"discriminant ({'^'.join(fam.invariant_wedge)} coefficient): "
            f"{fam.discriminant}")
    rep.say(f"constraints: {len(fam.constraints)}")
    if bindings:
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
    for line in str(sol.cocommutator).splitlines():
        rep.say(line)
    rep.check("cocycle-solved", True, f"dimension {sol.dim}")


def cmd_cojacobi(args, rep):
    L = _load_algebra(args)
    if args.r:
        r = _input(args.r, "rmat", L)
        delta = delta_from_r(r)
    else:
        delta = cocycle_solve(L).cocommutator
    cons = cojacobi_constraints(delta)
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
    if "" in members:
        raise formats.ParseError("--sub: empty generator name")
    bad = [g for k, g in enumerate(members)
           if g not in L.names or g in members[:k]]
    if bad:
        raise formats.ParseError(f"--sub: unknown or repeated {', '.join(bad)}")
    target = _input(args.target, "delta")
    rename = _input(args.map, "map", L)
    fam = families.family_of(_input(args.r, "rmat", L) if args.r else
                             _input("general.rmat", "rmat", L, disk=False))
    report = match_sub_bialgebra(fam, members, target, rename)
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
    if args.family:
        spec = families.FAMILIES[args.family]
        r = families.load_rmatrix(args.family)
    else:
        spec = None
        r = _input(args.r, "rmat", schrodinger.algebra())
    table = sklyanin.sklyanin_table(r)
    rep.say(str(table))
    rep.check("vanishes-at-unit", not any(
        sklyanin.linear_part(v)[0] for v in table.terms.values()))
    if spec is not None and spec.charts:
        rep.check("poisson-jacobi",
                  *sklyanin.poisson_jacobi_check(r, spec.charts))


def cmd_hopf_check(args, rep):
    for name, ok, payload in hopfdeform.hopf_checks(
            hopfdeform.build_case(args.case, args.order)):
        rep.check(name, ok, payload)


def cmd_verify(args, rep):
    _, results = verify.run_all(args.order)
    for label, ok, checks in results:
        rep.check(label, ok)
        for name, o, payload in checks:
            if not o:
                rep.say(f"    failed: {name}" + (f" ({payload})" if payload else ""))


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built on first use and reused by every ``main``
    call of the process; parsing leaves no state in it.  Its ``commands``
    maps each command name to the command's subparser."""
    parser = argparse.ArgumentParser(
        prog="liebialg",
        description="Exact workbench for Lie bialgebra structures on the "
                    "centrally extended Schrodinger algebra.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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
    source = add("sklyanin", cmd_sklyanin).add_mutually_exclusive_group(
        required=True)
    source.add_argument("--r", default=None)
    source.add_argument("--family", default=None,
                        choices=sorted(families.FAMILIES))
    add("hopf-check", cmd_hopf_check,
        case={"required": True, "choices": hopfdeform.CASE_NAMES},
        order={"type": int, "default": 4})
    add("verify", cmd_verify, order={"type": int, "default": 4})
    return parser


def _parse_args(argv):
    """The namespace of the arguments ``argv``, as the parser's
    ``parse_args`` gives it, or its SystemExit.  When ``argv[0]`` names a
    command, that command's subparser parses the rest, as the parser would
    hand it over, and what it leaves is the parser's own ``unrecognized
    arguments`` error; any other ``argv`` goes through the whole parser."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extra))
    args.command = argv[0]
    return args


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    rep = Report(args.command)
    try:
        args.handler(args, rep)
    except (ValueError, KeyError) as err:
        rep.say(f"error: {err}")
        rep.checks.append({"name": "input-accepted", "ok": False,
                           "payload": str(err)})
    try:
        print(rep.render(), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (``| head -1``): send the rest and
        # the flush at exit to devnull; the --json report and exit code stand
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if args.json:
        data = rep.json_bytes()
        try:
            with open(args.json, "wb") as fh:
                fh.write(data)
        except OSError as err:
            print(f"error: cannot write {args.json}: {err.strerror}",
                  file=sys.stderr)
            return 1
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
