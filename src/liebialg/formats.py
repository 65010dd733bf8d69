"""Text formats: algebra files, r-matrix files, cocommutator tables,
equation sets, generator maps, substitutions and Poisson tables.

One small line-oriented language covers all of them; every diagnostic carries
a line and column.

Every value the parser builds is a ``PolyExpr``: a wedge term ``X^Y`` is the
symbol named ``X^Y``, and a wedge value is a sum of coefficients times wedge
symbols.  An r-matrix file and each cocommutator row become one
``WedgeElement.from_pairs`` call over all their terms; every other entry
point rejects a line that read a wedge term, so no wedge symbol leaves this
module.
"""

from __future__ import annotations

import re
from functools import cache
from importlib import resources
from types import MappingProxyType

from .symkernel import PolyExpr, UnitError
from .liealg import LieAlgebra, WedgeElement, jacobi_residual
from .bialgebra import Cocommutator

__all__ = [
    "ParseError", "parse_algebra", "parse_rmatrix",
    "parse_delta", "parse_eqs", "parse_map", "parse_subs", "parse_ptable",
    "parse_bindings_arg", "read_text", "load_table", "table",
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
# an integer or a name, in ASCII only: any other character is unexpected
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_WORD = re.compile(rf"(?P<int>[0-9]+)|(?P<name>{_NAME})")


def _is_name(text):
    """Whether ``text`` is one name token: generator and binding names
    follow the tokenizer's rule."""
    return re.fullmatch(_NAME, text) is not None


def _tokenize(text, lineno, start=0):
    """The tokens of ``text``, each ``(kind, value, column)``.  ``text``
    begins at index ``start`` of its line or argument, and a column counts
    from the start of that line or argument."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        word = _WORD.match(text, i)
        if word:
            kind, value = word.lastgroup, word.group()
            tokens.append((kind, int(value) if kind == "int" else value,
                           start + i + 1))
            i = word.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, start + i + 1))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", lineno,
                             start + i + 1)
    return tokens


class _ExprParser:
    """One line's expression parser.  A wedge term ``X^Y`` reads as the
    symbol named ``X^Y`` (no name token contains ``^``).  Each rule returns
    ``(value, wedge)``, ``wedge`` true when the value read a wedge term, so
    a wedge that cancels (``D^P - D^P``) is still a wedge; ``wedges`` lists
    the wedge terms the line read, in order.  Only the names of
    ``invertible`` (a file's ``invertible:`` header) may take a negative
    power."""

    def __init__(self, line, lineno, invertible=frozenset(), start=0):
        self.toks = _tokenize(line, lineno, start)
        self.pos = 0
        self.lineno = lineno
        self.invertible = invertible
        self.wedges = []

    def undeclared(self, val):
        """The first name ``val`` holds to a negative power that is not in
        ``invertible``, or None."""
        return next((name for mono in val.terms for name, e in mono
                     if e < 0 and name not in self.invertible), None)

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

    def expr_to_end(self):
        """An expression that must run to the end of the line.  A power or
        quotient the kernel cannot form exactly is an error of this line."""
        try:
            val, _ = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deeply",
                             self.lineno) from None
        except UnitError as err:
            raise ParseError(str(err), self.lineno) from None
        if self.pos < len(self.toks):
            self.error("trailing input")
        return val

    def scalar_to_end(self, message):
        """An expression that runs to the end of the line and reads no
        wedge term; ``message`` rejects a line that does."""
        val = self.expr_to_end()
        if self.wedges:
            raise ParseError(message, self.lineno)
        return val

    # expr := term (('+'|'-') term)*
    def expr(self):
        val, wedge = self.term()
        while self.peek()[:2] in (("punct", "+"), ("punct", "-")):
            op = self.take()[1]
            rhs, rhs_wedge = self.term()
            # a value is all wedge or all scalar terms; a zero scalar joins
            # either
            if wedge != rhs_wedge and (rhs if wedge else val):
                self.error("cannot add a scalar and a wedge term")
            val = val + rhs if op == "+" else val - rhs
            wedge = wedge or rhs_wedge
        return val, wedge

    # term := factor (('*'|'/') factor)*
    def term(self):
        val, wedge = self.factor()
        while self.peek()[:2] in (("punct", "*"), ("punct", "/")):
            op = self.take()[1]
            col = self.peek()[2]
            rhs, rhs_wedge = self.factor()
            if rhs_wedge:
                if op == "/":
                    self.error("cannot divide by a wedge term")
                if wedge:
                    self.error("cannot multiply two wedge terms")
            if op == "*":
                val = val * rhs
            elif not rhs:
                raise ParseError("division by zero", self.lineno, col)
            else:
                quotient = val / rhs
                name = self.undeclared(quotient)
                if name:
                    raise ParseError(f"{rhs} does not divide {val} exactly "
                                     f"(negative power of {name!r})",
                                     self.lineno)
                val = quotient
            wedge = wedge or rhs_wedge
        return val, wedge

    # factor := '-' factor | atom ['^' (int | '-' int | name)]
    def factor(self):
        if self.peek()[:2] == ("punct", "-"):
            self.take()
            val, wedge = self.factor()
            return -val, wedge
        val, wedge = self.atom()
        if self.peek()[:2] == ("punct", "^"):
            self.take()
            tok = self.peek()
            if tok[0] == "name":
                other = self.take()[1]
                if len(val.terms) != 1 or wedge:
                    self.error("wedge base must be a single generator")
                ((mono, c),) = val.terms.items()
                if len(mono) != 1 or mono[0][1] != 1 or c != 1:
                    self.error("wedge base must be a single generator")
                name = f"{mono[0][0]}^{other}"
                self.wedges.append(name)
                return PolyExpr.var(name), True
            neg = False
            if tok[:2] == ("punct", "-"):
                self.take()
                neg = True
            e = self.take("int")[1]
            if wedge:
                self.error("cannot raise a wedge term to a power")
            val = val ** (-e if neg else e)
            if neg and self.undeclared(val):
                raise ParseError("negative power of a non-unit", self.lineno)
            return val, False
        return val, wedge

    def atom(self):
        tok = self.peek()
        if tok[0] is None:
            self.error("unexpected end of line, expected a value")
        if tok[0] == "int":
            self.take()
            return PolyExpr.const(tok[1]), False
        if tok[0] == "name":
            self.take()
            return PolyExpr.var(tok[1]), False
        if tok[:2] == ("punct", "("):
            self.take()
            val = self.expr()
            self.take("punct", ")")
            return val
        self.error(f"expected a value, found {tok[1]!r}")


def _split_lines(text):
    """``(lineno, line)`` of each line that holds more than a comment, the
    comment cut off and the indentation kept, so that a token's column is
    its column in the file."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def _header(lines, key):
    """Pop a 'key: ...' line from the parsed line list, if present."""
    for idx, (lineno, line) in enumerate(lines):
        line = line.lstrip()
        if line.startswith(key + ":"):
            del lines[idx]
            return lineno, line[len(key) + 1:].strip()
    return None, None


def _invertible(lines):
    """Pop the 'invertible:' header: the names it declares invertible."""
    _, inv = _header(lines, "invertible")
    return frozenset(inv.split()) if inv else frozenset()


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_NOT_LINEAR = "expected a linear combination, found a wedge"


def _linear_combination(value, names, lineno):
    """Interpret a PolyExpr as a linear combination of the given names."""
    combo = {}
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
    return _algebra(list(_split_lines(text)), check_jacobi)


def _algebra(lines, check_jacobi=True):
    """The algebra of the ``(lineno, line)`` pairs of an algebra file, so
    that a file embedding one names its own lines."""
    lineno, gens = _header(lines, "generators")
    if gens is None:
        raise ParseError("missing 'generators:' header", 1)
    names = gens.split()
    if not names:
        raise ParseError("empty generator list", lineno)
    for k, g in enumerate(names):
        if not _is_name(g):
            raise ParseError(f"generator name {g!r} is not an identifier",
                             lineno)
        if g in names[:k]:
            raise ParseError(f"duplicate generator {g!r}", lineno)
    brackets = {}
    seen = set()
    for lineno, line in lines:
        p = _ExprParser(line, lineno)
        if not (len(p.toks) > 5 and p.peek()[:2] == ("punct", "[")):
            raise ParseError("expected a bracket line '[X,Y] = ...'", lineno)
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
        rhs = p.scalar_to_end(_NOT_LINEAR)
        combo = _linear_combination(rhs, set(names), lineno) if rhs else {}
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


def _wedge_pairs(p, L):
    """The ``(coefficient, name, name)`` terms of the wedge expression that
    runs to the end of the line of parser ``p``, on the generators of
    ``L``: each term of the value is a coefficient times one wedge
    symbol."""
    val = p.expr_to_end()
    if not p.wedges:
        if val:
            raise ParseError("expected wedge terms", p.lineno)
        return []
    for name in p.wedges:
        for g in name.split("^"):
            if g not in L.names:
                raise ParseError(f"unknown generator {g!r}", p.lineno)
    pairs = []
    for mono, c in val.terms.items():
        rest = tuple(f for f in mono if "^" not in f[0])
        (name, _), = (f for f in mono if "^" in f[0])
        pairs.append((PolyExpr._trusted({rest: c}), *name.split("^")))
    return pairs


def parse_rmatrix(text, L):
    """Parse an r-matrix file: one wedge term (or sum of terms) per line."""
    lines = list(_split_lines(text))
    invset = _invertible(lines)
    return WedgeElement.from_pairs(L, [
        pair for lineno, line in lines
        for pair in _wedge_pairs(_ExprParser(line, lineno, invset), L)])


def parse_delta(text, L=None):
    """Parse a cocommutator table into its Cocommutator; self-contained
    files embed their algebra.

    If ``L`` is given the file needs only delta lines; otherwise it must
    carry 'generators:' plus bracket lines.
    """
    lines = list(_split_lines(text))
    invset = _invertible(lines)
    delta_lines = []
    other = []
    for lineno, line in lines:
        if line.lstrip().startswith("delta"):
            delta_lines.append((lineno, line))
        else:
            other.append((lineno, line))
    if L is None:
        L = _algebra(other)
    elif other:
        raise ParseError("unexpected non-delta line", other[0][0])
    pairs = {}
    for lineno, line in delta_lines:
        p = _ExprParser(line, lineno, invset)
        p.take("name", "delta")
        p.take("punct", "(")
        g = p.take("name")[1]
        p.take("punct", ")")
        p.take("punct", "=")
        if g not in L.names:
            raise ParseError(f"unknown generator {g!r}", lineno)
        if g in pairs:
            raise ParseError(f"duplicate row for delta({g})", lineno)
        pairs[g] = _wedge_pairs(p, L)
    return Cocommutator(L, [WedgeElement.from_pairs(L, pairs.get(g, ()))
                            for g in L.names])


def parse_eqs(text):
    """Parse an equation-set file: one polynomial per line."""
    lines = list(_split_lines(text))
    invset = _invertible(lines)
    return [_ExprParser(line, lineno, invset).scalar_to_end(
        "wedge term in an equation file") for lineno, line in lines]


def _arrow_lines(lines, message):
    """``(lineno, name, value)`` of every 'name -> expression' line of the
    ``(lineno, line)`` pairs; a line that reads a wedge term is rejected
    with ``message``, and a line that repeats an earlier line's name as a
    duplicate."""
    seen = set()
    for lineno, line in lines:
        p = _ExprParser(line, lineno)
        src = p.take("name")[1]
        if src in seen:
            raise ParseError(f"duplicate line for {src!r}", lineno)
        seen.add(src)
        p.take("punct", "->")
        yield lineno, src, p.scalar_to_end(message)


def parse_map(text, L):
    """Parse a generator map file: 'name -> linear combination' lines.

    Returns a dict mapping source names to AlgElements of ``L``: in the
    source's generator order, the images that ``push_wedge2`` and
    ``automorphism_transform`` take.  An optional 'onto: NAME.alg' header
    names the packaged algebra table the combinations are read on
    (``table`` follows it; without one it reads the built-in algebra);
    ``L`` must be that algebra.
    """
    lines = list(_split_lines(text))
    lineno, onto = _header(lines, "onto")
    names = set(L.names)
    out = {src: L.element(_linear_combination(val, names, n) if val else {})
           for n, src, val in _arrow_lines(lines, _NOT_LINEAR)}
    if onto is not None:
        try:
            target = table(onto) if onto.endswith(".alg") else None
        except FileNotFoundError:
            target = None
        if target is None:
            raise ParseError(f"'onto:' names no packaged .alg table: {onto}",
                             lineno)
        if L != target:
            raise ParseError(f"the map is onto {onto}, not onto the algebra "
                             f"it is read on", lineno)
    return out


def parse_subs(text):
    """Parse a substitution file: 'name -> expression' lines."""
    return {src: val for _, src, val in _arrow_lines(
        _split_lines(text), "wedge term in a substitution")}


def parse_ptable(text):
    """Parse a Poisson bracket table: '{x,y} = expression' lines, each
    bracket of two different coordinates.

    E is always treated as invertible (it stands for e^d).
    """
    from .sklyanin import COORDS, PoissonTable
    lines = list(_split_lines(text))
    invset = _invertible(lines) | {"E"}
    entries = {}
    for lineno, line in lines:
        p = _ExprParser(line, lineno, invset)
        p.take("punct", "{")
        x = p.take("name")[1]
        p.take("punct", ",")
        y = p.take("name")[1]
        p.take("punct", "}")
        p.take("punct", "=")
        for q in (x, y):
            if q not in COORDS:
                raise ParseError(f"unknown coordinate {q!r}", lineno)
        if x == y:
            raise ParseError("diagonal bracket", lineno)
        val = p.scalar_to_end("wedge term in a Poisson table")
        if (x, y) in entries or (y, x) in entries:
            raise ParseError(f"duplicate bracket {{{x},{y}}}", lineno)
        entries[(x, y)] = val
    return PoissonTable(entries)


def parse_bindings_arg(arg):
    """Parse a CLI binding list 'name=expr,name=expr': each name an
    identifier bound once, each value free of wedge terms."""
    out = {}
    if not arg:
        return out
    start = 0                   # index of ``part`` in ``arg``
    for part in arg.split(","):
        if "=" not in part:
            raise ParseError(f"bad binding {part!r}, expected name=value")
        name, val = part.split("=", 1)
        name = name.strip()
        if not _is_name(name):
            raise ParseError(f"binding name {name!r} is not an identifier", 1)
        if name in out:
            raise ParseError(f"duplicate binding for {name!r}", 1)
        out[name] = _ExprParser(val, 1, start=start + len(part) - len(val)
                                ).scalar_to_end("wedge term in a binding")
        start += len(part) + 1
    return out


# ---------------------------------------------------------------------------
# packaged tables
# ---------------------------------------------------------------------------

def read_text(path):
    """The text of the file ``path`` (a path or a packaged resource) read
    as UTF-8.  A byte that is not UTF-8 is a ParseError naming its line
    and column."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # lines as ``_split_lines`` counts them, "?" standing for the byte
        lines = (data[:err.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"byte 0x{data[err.start]:02x} is not UTF-8",
                         len(lines), len(lines[-1])) from None


def load_table(filename):
    """Text of a packaged reference table, named by its bare file name.

    Only a file inside ``tables/`` is a table: an empty name, ``.``, ``..``,
    a name with a path separator or one that names no file there raises
    FileNotFoundError.  (Python 3.12 raises StopIteration when ``""`` or
    ``.`` is joined onto a namespace package, so they are refused first.)"""
    if filename not in ("", ".", "..") and not {"/", "\\"} & set(filename):
        path = resources.files("liebialg.tables").joinpath(filename)
        if path.is_file():
            return read_text(path)
    raise FileNotFoundError(f"no packaged table {filename!r}")


@cache
def table(filename):
    """A packaged table, parsed by its suffix once per process and shared
    read-only by every caller: ``.eqs`` a tuple, ``.subs`` and ``.map`` a
    read-only mapping, ``.delta`` the Cocommutator of ``parse_delta``.
    ``.rmat``, ``.map`` and ``.delta`` tables are read on the built-in
    Schrodinger algebra, unless a ``.delta`` table carries its own
    ``generators:`` header or a ``.map`` table an ``onto:`` header."""
    text = load_table(filename)
    kind = filename.rsplit(".", 1)[-1]
    if kind == "alg":
        return parse_algebra(text)
    if kind == "eqs":
        return tuple(parse_eqs(text))
    if kind == "subs":
        return MappingProxyType(parse_subs(text))
    if kind == "ptable":
        return parse_ptable(text)
    L = table("schrodinger.alg")
    if kind == "rmat":
        return parse_rmatrix(text, L)
    if kind == "map":
        _, onto = _header(list(_split_lines(text)), "onto")
        return MappingProxyType(parse_map(text, table(onto) if onto else L))
    if kind == "delta":
        return parse_delta(text, None if "generators:" in text else L)
    raise ValueError(f"unknown table kind: {filename}")
