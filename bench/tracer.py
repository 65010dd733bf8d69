"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the `liebialg` modules from the outside;
nothing under `src/` changes.  Modules import functions by name (for example
`verify.span_equal`, `cli.span_rank`), and `verify.CRITERIA` holds the
criterion functions in a tuple, so a wrapper replaces *every* binding of the
original function in every loaded `liebialg` module, tuples included.  One
wrapper object per function keeps identity tests such as
`fn in (criterion_11,)` in `verify.run_all` working.  `restore()` puts every
original binding back.

Three kinds of wrapper:

* span: a span (name, start, end, parent span, job) is kept in memory for
  every call; a stack gives each function its self time.  The clock is the
  process CPU clock, like every time the benchmark reports.
* total: as span, and also the inclusive time (the `verify.criterion_N`).
* counter: counts only, no span (`PolyExpr.__mul__` and
  `PolyExpr.truncate_degree`, called hundreds of thousands of times); their
  time stays in the enclosing span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

PACKAGE = "liebialg"

# (metric prefix, module, attribute); a "Class.method" attribute wraps a
# method.  Several entries may share one prefix; their stats are summed.
SPANS = tuple(
    [("symkernel." + f, "symkernel", f) for f in
     ("span_equal", "solve_linear", "rref", "span_rank", "nullspace")]
    + [("hopfdeform." + f, "hopfdeform", f) for f in
       ("build_case", "diamond_check", "hopf_axiom_residuals",
        "antipode_solve", "first_order_check", "universal_r_check")]
    + [("hopfdeform." + f, "hopfdeform", "DeformedAlgebra." + f) for f in
       ("tensor_mul", "mul", "nf_word")]
    + [("sklyanin." + f, "sklyanin", f) for f in
       ("sklyanin_table", "poisson_jacobi", "group_element",
        "invariant_field_check")]
    + [("liealg.schouten", "liealg", "schouten")]
    + [("bialgebra." + f, "bialgebra", f) for f in
       ("cojacobi_constraints", "cocycle_solve", "rmatrix_family",
        "delta_from_r", "impose_primitive", "automorphism_transform")]
    + [("embed.match_sub_bialgebra", "embed", "match_sub_bialgebra")]
    + [("formats.parse", "formats", f) for f in
       ("parse_algebra", "parse_rmatrix", "parse_delta", "parse_eqs",
        "parse_map", "parse_subs", "parse_ptable", "parse_bindings_arg")]
    + [("cli.main", "cli", "main")]
)
TOTALS = tuple((f"verify.criterion_{i}", "verify", f"criterion_{i}")
               for i in range(1, 13))


class Tracer:
    """Wraps the layer functions; records spans, self time and counters."""

    def __init__(self):
        self.names = []             # span name table
        self._name_index = {}
        # spans, one entry per call, kept as compact parallel arrays
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []            # [span id, child time]
        self._saved = []            # (owner, attribute, original value)
        self.job = -1
        self.reset_stats()

    # -- statistics ------------------------------------------------------
    def reset_stats(self):
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.polyexpr_mul = 0
        self.trunc_in = 0
        self.trunc_out = 0
        self.rref_max_cells = 0
        self.nf_hits = 0
        self.nf_max_entries = 0

    def stats(self):
        """This unit's per-layer figures, keyed by metric name."""
        out = {}
        for name in self._prefixes():
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name, _, _ in TOTALS:
            out[f"{name}.s"] = self.total_s.get(name, 0.0)
        nf_calls = self.calls.get("hopfdeform.nf_word", 0)
        out["symkernel.polyexpr_mul.calls"] = self.polyexpr_mul
        out["symkernel.truncate.terms_in"] = self.trunc_in
        out["symkernel.truncate.kept_ratio"] = (
            self.trunc_out / self.trunc_in if self.trunc_in else 0.0)
        out["symkernel.rref.max_cells"] = self.rref_max_cells
        out["hopfdeform.nf_word.hit_ratio"] = (
            self.nf_hits / nf_calls if nf_calls else 0.0)
        out["hopfdeform.nf_cache.entries"] = self.nf_max_entries
        return out

    @staticmethod
    def _prefixes():
        seen = []
        for prefix, _, _ in SPANS:
            if prefix not in seen:
                seen.append(prefix)
        return seen

    # -- wrappers --------------------------------------------------------
    def _intern(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _span(self, name, fn, total=False, before=None, after=None):
        idx = self._intern(name)
        clock = time.process_time
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            sid = len(self.span_start)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            self.span_name.append(idx)
            self.span_parent.append(parent)
            self.span_job.append(self.job)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.span_end[sid] = end
                if stack:
                    stack[-1][1] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                if total:
                    self.total_s[name] = self.total_s.get(name, 0.0) + dur
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rref_shape(self, args):
        rows = list(args[0])
        cells = len(rows) * (len(rows[0]) if rows else 0)
        self.rref_max_cells = max(self.rref_max_cells, cells)
        return (rows,) + tuple(args[1:])

    def _nf_before(self, args):
        alg, word = args[0], tuple(args[1])
        if word in alg._nf_cache:
            self.nf_hits += 1
        return args

    def _nf_after(self, args, result):
        self.nf_max_entries = max(self.nf_max_entries, len(args[0]._nf_cache))

    def _counting_mul(self, fn):
        def wrapper(a, b):
            self.polyexpr_mul += 1
            return fn(a, b)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_truncate(self, fn):
        def wrapper(p, n):
            out = fn(p, n)
            self.trunc_in += len(p.terms)
            self.trunc_out += len(out.terms)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore -----------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        wrappers = {}                         # id(original) -> (orig, wrapper)

        def add(orig, wrapper):
            wrappers.setdefault(id(orig), (orig, wrapper))

        for prefix, mod, attr in SPANS + TOTALS:
            owner = mods[mod]
            for part in attr.split("."):
                owner = getattr(owner, part)
            before = after = None
            if attr == "rref":
                before = self._rref_shape
            elif attr == "DeformedAlgebra.nf_word":
                before, after = self._nf_before, self._nf_after
            add(owner, self._span(prefix, owner, total=(mod == "verify"),
                                  before=before, after=after))
        poly = mods["symkernel"].PolyExpr
        add(poly.__mul__, self._counting_mul(poly.__mul__))
        add(poly.truncate_degree, self._counting_truncate(poly.truncate_degree))

        for m in _modules():
            for key, value in list(vars(m).items()):
                new = _rebind(value, wrappers)
                if new is not value:
                    self._saved.append((m, key, value))
                    setattr(m, key, new)
                if isinstance(value, type) and value.__module__ == m.__name__:
                    for ckey, cvalue in list(vars(value).items()):
                        if id(cvalue) in wrappers and \
                                wrappers[id(cvalue)][0] is cvalue:
                            self._saved.append((value, ckey, cvalue))
                            setattr(value, ckey, wrappers[id(cvalue)][1])

    def restore(self):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved = []

    # -- sidecar ---------------------------------------------------------
    def write_sidecar(self, path, extra):
        doc = dict(extra)
        doc["span_names"] = self.names
        doc["span_fields"] = ["name", "parent", "job", "start_s", "end_s"]
        doc["spans"] = [
            [n, p, j, round(s, 7), round(e, 7)] for n, p, j, s, e in zip(
                self.span_name, self.span_parent, self.span_job,
                self.span_start, self.span_end)]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rebind(value, wrappers):
    """`value` with every wrapped function replaced, or `value` itself."""
    hit = wrappers.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if isinstance(value, tuple):
        items = tuple(_rebind(v, wrappers) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


def _modules():
    """Every loaded module of the package."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def bindings():
    """Snapshot of every module attribute and class attribute of the
    package, to prove by identity that nothing stays wrapped."""
    snap = {}
    for m in _modules():
        for key, value in vars(m).items():
            snap[(m.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == m.__name__:
                for ckey, cvalue in vars(value).items():
                    snap[(m.__name__, key + "." + ckey)] = cvalue
    return snap


def same_bindings(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)
