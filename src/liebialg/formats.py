"""Text formats: algebra files, r-matrix files, cocommutator tables,
equation sets, generator maps, substitutions and Poisson tables.

One small line-oriented language covers all of them; every diagnostic carries
a line and column.  Parsing then re-serializing an algebra is the identity.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from itertools import combinations

from .symkernel import PolyExpr, Symbol
from .liealg import LieAlgebra, WedgeElement, jacobi_residual
from .bialgebra import Cocommutator

__all__ = [
    "ParseError", "parse_algebra", "serialize_algebra", "parse_rmatrix",
    "parse_delta", "parse_eqs", "parse_map", "parse_subs", "parse_ptable",
    "parse_bindings_arg", "load_table", "table_path",
]


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = f" (line {line}" + (f", column {col})" if col else ")") \
            if line else ""
        super().__init__(message + where)


# ---------------------------------------------------------------------------
# tokenizer / expression parser
# ---------------------------------------------------------------------------

_PUNCT = ("->", "+", "-", "*", "/", "^", "(", ")", ",", "=", "[", "]",
          "{", "}", ":")


def _tokenize(text, lineno):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i + 1))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, i + 1))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", lineno, i + 1)
    return tokens


class _Wedge(dict):
    """Intermediate wedge value: {(name, name): PolyExpr}."""


class _ExprParser:
    def __init__(self, tokens, lineno, invertible=frozenset()):
        self.toks = tokens
        self.pos = 0
        self.lineno = lineno
        self.invertible = invertible

    def error(self, msg):
        col = self.toks[self.pos][2] if self.pos < len(self.toks) else None
        raise ParseError(msg, self.lineno, col)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, None)

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok[0] is None:
            self.error("unexpected end of line")
        if kind and tok[0] != kind or value and tok[1] != value:
            self.error(f"expected {value or kind}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def at_end(self):
        return self.pos >= len(self.toks)

    # expr := term (('+'|'-') term)*
    def expr(self):
        val = self.term()
        while self.peek()[:2] in (("punct", "+"), ("punct", "-")):
            op = self.take()[1]
            rhs = self.term()
            val = self._combine(val, rhs, 1 if op == "+" else -1)
        return val

    def _combine(self, a, b, sign):
        if isinstance(a, _Wedge) != isinstance(b, _Wedge):
            if isinstance(b, _Wedge) and isinstance(a, PolyExpr) and not a:
                a = _Wedge()
            elif isinstance(a, _Wedge) and isinstance(b, PolyExpr) and not b:
                b = _Wedge()
            else:
                self.error("cannot add a scalar and a wedge term")
        if isinstance(a, _Wedge):
            out = _Wedge(a)
            for key, c in b.items():
                out[key] = out.get(key, PolyExpr.zero()) + sign * c
            return out
        return a + sign * b

    # term := factor (('*'|'/') factor)*
    def term(self):
        val = self.factor()
        while self.peek()[:2] in (("punct", "*"), ("punct", "/")):
            op = self.take()[1]
            col = self.peek()[2]
            rhs = self.factor()
            if isinstance(val, _Wedge) and isinstance(rhs, _Wedge):
                self.error("cannot multiply two wedge terms")
            if op == "/":
                if isinstance(rhs, _Wedge):
                    self.error("cannot divide by a wedge term")
                if not rhs:
                    raise ParseError("division by zero", self.lineno, col)
                if isinstance(val, _Wedge):
                    val = _Wedge({k: c / rhs for k, c in val.items()})
                else:
                    val = val / rhs
            elif isinstance(val, _Wedge):
                val = _Wedge({k: c * rhs for k, c in val.items()})
            elif isinstance(rhs, _Wedge):
                val = _Wedge({k: val * c for k, c in rhs.items()})
            else:
                val = val * rhs
        return val

    # factor := '-' factor | atom ['^' (int | '-' int | name)]
    def factor(self):
        if self.peek()[:2] == ("punct", "-"):
            self.take()
            val = self.factor()
            if isinstance(val, _Wedge):
                return _Wedge({k: -c for k, c in val.items()})
            return -val
        val = self.atom()
        if self.peek()[:2] == ("punct", "^"):
            self.take()
            tok = self.peek()
            if tok[0] == "name":
                other = self.take()[1]
                if not isinstance(val, PolyExpr) or len(val.terms) != 1:
                    self.error("wedge base must be a single generator")
                ((mono, c),) = val.terms.items()
                if len(mono) != 1 or mono[0][1] != 1 or c != 1:
                    self.error("wedge base must be a single generator")
                return _Wedge({(mono[0][0], other): PolyExpr.const(1)})
            neg = False
            if tok[:2] == ("punct", "-"):
                self.take()
                neg = True
            e = self.take("int")[1]
            if isinstance(val, _Wedge):
                self.error("cannot raise a wedge term to a power")
            return val ** (-e if neg else e)
        return val

    def atom(self):
        tok = self.peek()
        if tok[0] is None:
            self.error("unexpected end of line, expected a value")
        if tok[0] == "int":
            self.take()
            return PolyExpr.const(tok[1])
        if tok[0] == "name":
            self.take()
            name = tok[1]
            return PolyExpr.var(Symbol(name, name in self.invertible))
        if tok[:2] == ("punct", "("):
            self.take()
            val = self.expr()
            self.take("punct", ")")
            return val
        self.error(f"expected a value, found {tok[1]!r}")


def _parse_expr_line(line, lineno, invertible=frozenset()):
    p = _ExprParser(_tokenize(line, lineno), lineno, invertible)
    val = p.expr()
    if not p.at_end():
        p.error("trailing input")
    return val


def _split_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header(lines, key):
    """Pop a 'key: ...' line from the parsed line list, if present."""
    for idx, (lineno, line) in enumerate(lines):
        if line.startswith(key + ":"):
            del lines[idx]
            return lineno, line[len(key) + 1:].strip()
    return None, None


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _linear_combination(value, names, lineno):
    """Interpret a PolyExpr as a linear combination of the given names."""
    combo = {}
    if isinstance(value, _Wedge):
        raise ParseError("expected a linear combination, found a wedge",
                         lineno)
    for mono, c in value.terms.items():
        if mono == ():
            raise ParseError("constant term in a bracket", lineno)
        if len(mono) != 1 or mono[0][1] != 1 or mono[0][0] not in names:
            raise ParseError(
                f"not a linear combination of generators: {value}", lineno)
        combo[mono[0][0]] = c
    return combo


def parse_algebra(text, check_jacobi=True):
    """Parse an algebra file: a 'generators:' header plus bracket lines."""
    lines = list(_split_lines(text))
    lineno, gens = _header(lines, "generators")
    if gens is None:
        raise ParseError("missing 'generators:' header", 1)
    names = gens.split()
    if not names:
        raise ParseError("empty generator list", lineno)
    for k, g in enumerate(names):
        if not g.isidentifier():
            raise ParseError(f"generator name {g!r} is not an identifier",
                             lineno)
        if g in names[:k]:
            raise ParseError(f"duplicate generator {g!r}", lineno)
    _, inv = _header(lines, "invertible")
    brackets = {}
    seen = set()
    for lineno, line in lines:
        toks = _tokenize(line, lineno)
        if not (len(toks) > 5 and toks[0][:2] == ("punct", "[")):
            raise ParseError("expected a bracket line '[X,Y] = ...'", lineno)
        p = _ExprParser(toks, lineno)
        p.take("punct", "[")
        x = p.take("name")[1]
        p.take("punct", ",")
        y = p.take("name")[1]
        p.take("punct", "]")
        p.take("punct", "=")
        for g in (x, y):
            if g not in names:
                raise ParseError(f"unknown generator {g!r}", lineno)
        if x == y:
            raise ParseError("bracket of a generator with itself", lineno)
        key = frozenset((x, y))
        if key in seen:
            raise ParseError(
                f"duplicate bracket definition for [{x},{y}]", lineno)
        seen.add(key)
        rhs = p.expr()
        if not p.at_end():
            p.error("trailing input")
        combo = {} if isinstance(rhs, PolyExpr) and not rhs else \
            _linear_combination(rhs, set(names), lineno)
        for g, c in combo.items():
            if not isinstance(c, Fraction):
                raise ParseError("structure constants must be rational", lineno)
        if combo:
            brackets[(x, y)] = combo
    L = LieAlgebra(names, brackets)
    if check_jacobi:
        bad = jacobi_residual(L)
        if bad:
            triple = bad[0][0]
            raise ParseError(
                "Jacobi identity fails on the triple "
                f"({triple[0]}, {triple[1]}, {triple[2]})")
    return L


def serialize_algebra(L):
    lines = ["generators: " + " ".join(L.names)]
    for i, j in combinations(range(L.dim), 2):
        sc = L.sc(i, j)
        if not sc:
            continue
        parts = []
        for k in sorted(sc):
            c = sc[k]
            g = L.names[k]
            if c == 1:
                term = g
            elif c == -1:
                term = "-" + g
            else:
                term = f"{c}*{g}"
            parts.append(term if not parts or term.startswith("-")
                         else "+ " + term)
        rhs = " ".join(parts).replace("+ -", "- ")
        lines.append(f"[{L.names[i]},{L.names[j]}] = {rhs}")
    return "\n".join(lines) + "\n"


def _wedge_from_value(val, L, lineno):
    if isinstance(val, PolyExpr):
        if not val:
            return WedgeElement(L, 2, {})
        raise ParseError("expected wedge terms", lineno)
    pairs = []
    for (x, y), c in val.items():
        for g in (x, y):
            if g not in L.names:
                raise ParseError(f"unknown generator {g!r}", lineno)
        pairs.append((c, x, y))
    return WedgeElement.from_pairs(L, pairs)


def parse_rmatrix(text, L):
    """Parse an r-matrix file: one wedge term (or sum of terms) per line."""
    lines = list(_split_lines(text))
    _, inv = _header(lines, "invertible")
    invset = frozenset(inv.split()) if inv else frozenset()
    total = WedgeElement(L, 2, {})
    for lineno, line in lines:
        val = _parse_expr_line(line, lineno, invset)
        total = total + _wedge_from_value(val, L, lineno)
    return total


def parse_delta(text, L=None):
    """Parse a cocommutator table; self-contained files embed their algebra.

    Returns (algebra, Cocommutator).  If ``L`` is given the file needs only
    delta lines; otherwise it must carry 'generators:' plus bracket lines.
    """
    lines = list(_split_lines(text))
    _, inv = _header(lines, "invertible")
    invset = frozenset(inv.split()) if inv else frozenset()
    delta_lines = []
    other = []
    for lineno, line in lines:
        if line.startswith("delta"):
            delta_lines.append((lineno, line))
        else:
            other.append((lineno, line))
    if L is None:
        src = "\n".join(line for _, line in other)
        L = parse_algebra(src)
    elif other:
        raise ParseError("unexpected non-delta line", other[0][0])
    rows = {g: WedgeElement(L, 2, {}) for g in L.names}
    for lineno, line in delta_lines:
        p = _ExprParser(_tokenize(line, lineno), lineno, invset)
        p.take("name", "delta")
        p.take("punct", "(")
        g = p.take("name")[1]
        p.take("punct", ")")
        p.take("punct", "=")
        if g not in rows:
            raise ParseError(f"unknown generator {g!r}", lineno)
        val = p.expr()
        if not p.at_end():
            p.error("trailing input")
        rows[g] = rows[g] + _wedge_from_value(val, L, lineno)
    return L, Cocommutator(L, [rows[g] for g in L.names])


def parse_eqs(text):
    """Parse an equation-set file: one polynomial per line."""
    lines = list(_split_lines(text))
    _, inv = _header(lines, "invertible")
    invset = frozenset(inv.split()) if inv else frozenset()
    out = []
    for lineno, line in lines:
        val = _parse_expr_line(line, lineno, invset)
        if isinstance(val, _Wedge):
            raise ParseError("wedge term in an equation file", lineno)
        out.append(val)
    return out


def parse_map(text, L):
    """Parse a generator map file: 'name -> linear combination' lines.

    Returns a dict mapping source names to AlgElements of ``L``.
    """
    out = {}
    for lineno, line in _split_lines(text):
        toks = _tokenize(line, lineno)
        p = _ExprParser(toks, lineno)
        src = p.take("name")[1]
        p.take("punct", "->")
        val = p.expr()
        if not p.at_end():
            p.error("trailing input")
        combo = _linear_combination(val, set(L.names), lineno) if val else {}
        out[src] = L.element(combo)
    return out


def parse_subs(text):
    """Parse a substitution file: 'name -> expression' lines."""
    out = {}
    for lineno, line in _split_lines(text):
        toks = _tokenize(line, lineno)
        p = _ExprParser(toks, lineno, frozenset())
        src = p.take("name")[1]
        p.take("punct", "->")
        val = p.expr()
        if not p.at_end():
            p.error("trailing input")
        if isinstance(val, _Wedge):
            raise ParseError("wedge term in a substitution", lineno)
        out[src] = val
    return out


def parse_ptable(text):
    """Parse a Poisson bracket table: '{x,y} = expression' lines.

    E is always treated as invertible (it stands for e^d).
    """
    from .sklyanin import PoissonTable
    lines = list(_split_lines(text))
    _, inv = _header(lines, "invertible")
    invset = frozenset(inv.split()) | {"E"} if inv else frozenset(("E",))
    entries = {}
    for lineno, line in lines:
        toks = _tokenize(line, lineno)
        p = _ExprParser(toks, lineno, invset)
        p.take("punct", "{")
        x = p.take("name")[1]
        p.take("punct", ",")
        y = p.take("name")[1]
        p.take("punct", "}")
        p.take("punct", "=")
        val = p.expr()
        if not p.at_end():
            p.error("trailing input")
        if isinstance(val, _Wedge):
            raise ParseError("wedge term in a Poisson table", lineno)
        if (x, y) in entries or (y, x) in entries:
            raise ParseError(f"duplicate bracket {{{x},{y}}}", lineno)
        entries[(x, y)] = val
    return PoissonTable(entries)


def parse_bindings_arg(arg, invertible=frozenset()):
    """Parse a CLI binding list 'name=expr,name=expr'."""
    out = {}
    if not arg:
        return out
    for part in arg.split(","):
        if "=" not in part:
            raise ParseError(f"bad binding {part!r}, expected name=value")
        name, val = part.split("=", 1)
        out[name.strip()] = _parse_expr_line(val.strip(), 1, invertible)
    return out


# ---------------------------------------------------------------------------
# packaged tables
# ---------------------------------------------------------------------------

def load_table(filename):
    """Text of a packaged reference table."""
    return resources.files("liebialg.tables").joinpath(filename).read_text()


def table_path(filename):
    return str(resources.files("liebialg.tables").joinpath(filename))
