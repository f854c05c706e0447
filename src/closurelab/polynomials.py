"""Sparse multivariate polynomials over a pluggable exact coefficient domain.

Monomials are plain exponent tuples indexed by the ring's variable list.
There is one monomial order, ``WeightedGrevlex``: graded reverse
lexicographic by weighted degree with ties broken by reverse lex on the
declared variable order, optionally preceded by a block of leading
variables that it eliminates.  Weights are exact Fractions so towers with
weights 3^-n stay exact; the order key compares them scaled to integers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul

from .coefficients import CYCLO, CycloNum


def mono_mul(a, b):
    return tuple(i + j for i, j in zip(a, b))


def mono_divides(a, b):
    """True when a divides b componentwise."""
    return all(i <= j for i, j in zip(a, b))


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return tuple(i - j for i, j in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(i, j) for i, j in zip(a, b))


def mono_coprime(a, b):
    return all(i == 0 or j == 0 for i, j in zip(a, b))


class WeightedGrevlex:
    """Weighted grevlex order with an optional leading elimination block.

    The first ``block`` variables are compared first by their total degree,
    then by their exponent tuple; the remaining variables by weighted degree
    with ties broken by reverse lex.  Sort keys increase with the order.
    The key sums weights scaled to integers by the lcm of their
    denominators; ``degree`` stays an exact Fraction.
    """

    def __init__(self, weights, block: int = 0):
        self.weights = tuple(Fraction(w) for w in weights)
        self.block = block
        self._scale = math.lcm(*(w.denominator for w in self.weights))
        self._int_weights = tuple(int(w * self._scale) for w in self.weights)

    def degree(self, exps) -> Fraction:
        return Fraction(sum(map(mul, self._int_weights, exps)), self._scale)

    def key(self, exps):
        b = self.block
        if not b:
            return (sum(map(mul, self._int_weights, exps)), tuple(-e for e in reversed(exps)))
        head, tail = exps[:b], exps[b:]
        inner = (sum(map(mul, self._int_weights[b:], tail)), tuple(-e for e in reversed(tail)))
        return (sum(head), head, inner)


class RingPresentation:
    """Coefficient domain + ordered variables + weights + relation ideal.

    Relations may be given as polynomial text; they are parsed against this
    ring and must be homogeneous for the declared weights.  Quotient-ring
    semantics: every ideal computation appends the relations internally.
    """

    def __init__(self, domain, variables, weights=None, relations=()):
        self.domain = domain
        self.variables = tuple(variables)
        if weights is None:
            weights = (Fraction(1),) * len(self.variables)
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.weights) != len(self.variables):
            raise ValueError("one weight per variable required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self.order = WeightedGrevlex(self.weights)
        self._index = {v: i for i, v in enumerate(self.variables)}
        rels = []
        for r in relations:
            poly = self.parse(r) if isinstance(r, str) else r
            if poly.ring is not self:
                poly = Poly(self, dict(poly.terms))
            if not poly.is_homogeneous():
                raise ValueError(f"relation {poly} is not weighted-homogeneous")
            rels.append(poly)
        self.relations = tuple(rels)

    # -- construction helpers ------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(self.domain.one)

    def const(self, c) -> "Poly":
        return Poly(self, {(0,) * len(self.variables): self.domain.coerce(c)})

    def var(self, name: str) -> "Poly":
        e = [0] * len(self.variables)
        e[self._index[name]] = 1
        return Poly(self, {tuple(e): self.domain.one})

    def monomial(self, exps, coeff=None) -> "Poly":
        c = self.domain.one if coeff is None else self.domain.coerce(coeff)
        return Poly(self, {tuple(exps): c})

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)

    def compatible(self, other: "RingPresentation") -> bool:
        return (
            self.domain == other.domain
            and self.variables == other.variables
            and self.weights == other.weights
        )

    def __repr__(self):
        rel = f" / ({', '.join(format_poly(r) for r in self.relations)})" if self.relations else ""
        return f"{self.domain.name}[{', '.join(self.variables)}]{rel}"


class Poly:
    """Immutable sparse polynomial: terms sorted strictly decreasing in the
    ring's order, no zero coefficients, zero polynomial is the empty tuple."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingPresentation, terms: dict):
        self.ring = ring
        key = ring.order.key
        self.terms = tuple(
            (m, c) for m, c in sorted(terms.items(), key=lambda t: key(t[0]), reverse=True) if c
        )

    # -- basic queries -------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def lm(self):
        """Leading monomial (exponent tuple)."""
        return self.terms[0][0]

    def lc(self):
        return self.terms[0][1]

    def lt(self):
        return self.terms[0]

    def degree(self) -> Fraction:
        """Maximal weighted degree among terms; -1 for the zero polynomial."""
        if not self.terms:
            return Fraction(-1)
        return max(self.ring.order.degree(m) for m, _ in self.terms)

    def min_degree(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no minimal degree")
        return min(self.ring.order.degree(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {self.ring.order.degree(m) for m, _ in self.terms}
        return len(degs) == 1

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring.compatible(other.ring) and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if not self.ring.compatible(other.ring):
                raise ValueError("polynomials from incompatible rings")
            return other
        return self.ring.const(other)

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms:
            s = out.get(m)
            out[m] = c if s is None else s + c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms:
            s = out.get(m)
            out[m] = -c if s is None else s - c
        return Poly(self.ring, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly) or not self.terms:
            other = self._coerce(other)
            out = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    m = mono_mul(m1, m2)
                    s = out.get(m)
                    prod = c1 * c2
                    out[m] = prod if s is None else s + prod
            return Poly(self.ring, out)
        c = self.ring.domain.coerce(other)
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {m: cc * c for m, cc in self.terms})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_term(self, mono, coeff) -> "Poly":
        return Poly(self.ring, {mono_mul(m, mono): c * coeff for m, c in self.terms})

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        inv = self.ring.domain.inv(self.lc())
        return Poly(self.ring, {m: c * inv for m, c in self.terms})

    def substitute(self, images: dict, target: RingPresentation | None = None) -> "Poly":
        """Ring-map style substitution: each variable goes to its image Poly
        (missing variables map to the same-named variable of the target)."""
        ring = target or next(iter(images.values())).ring
        out = ring.zero()
        cache: dict[tuple[str, int], Poly] = {}
        for m, c in self.terms:
            term = ring.const(c)
            for v, e in zip(self.ring.variables, m):
                if e == 0:
                    continue
                img = cache.get((v, e))
                if img is None:
                    base = images.get(v)
                    if base is None:
                        base = ring.var(v)
                    img = base ** e
                    cache[(v, e)] = img
                term = term * img
            out = out + term
        return out

    def __repr__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# text format: terms like (t^3 + 1)*x1^2*y1, scalars per coefficient domain


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    ring = p.ring
    parts = []
    for m, c in p.terms:
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(ring.variables, m) if e
        )
        ctext = ring.domain.format(c, parenthesize=bool(mono))
        if not mono:
            term = ctext
        elif ctext == "1":
            term = mono
        elif ctext == "-1":
            term = f"-{mono}"
        else:
            term = f"{ctext}*{mono}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append("- " + term[1:])
        else:
            parts.append("+ " + term)
    return " ".join(parts)


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[()+\-*^]))"
)


class PolyParseError(ValueError):
    pass


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected character {text[pos]!r} at {pos}")
            break
        if m.group("number"):
            out.append(("num", m.group("number")))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over + - * ^ ( ); `t` denotes the cyclotomic
    generator when the coefficient domain is Q(zeta_9)."""

    def __init__(self, ring: RingPresentation, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}, found {val!r}")

    def parse_expr(self) -> Poly:
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                result = result - rhs if val == "-" else result + rhs
            else:
                return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k, v = self.take()
            if k != "num" or "/" in v:
                raise PolyParseError("exponent must be a nonnegative integer")
            return base ** int(v)
        return base

    def parse_atom(self) -> Poly:
        kind, val = self.take()
        if kind == "num":
            if "/" in val:
                n, d = val.split("/")
                return self.ring.const(Fraction(int(n), int(d)))
            return self.ring.const(Fraction(int(val)))
        if kind == "name":
            if val in self.ring._index:
                return self.ring.var(val)
            if val == "t" and self.ring.domain == CYCLO:
                return self.ring.const(CycloNum.zeta_power(1))
            raise PolyParseError(f"unknown variable {val!r} (ring has {self.ring.variables})")
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.parse_atom()
        raise PolyParseError(f"unexpected token {val!r}")


def parse_poly(ring: RingPresentation, text: str) -> Poly:
    parser = _Parser(ring, _tokenize(text))
    result = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise PolyParseError(f"trailing input near token {parser.pos}")
    return result


def parse_cyclo(text: str) -> CycloNum:
    """Parse a cyclotomic scalar given as a polynomial expression in t."""
    scratch = RingPresentation(CYCLO, ())
    poly = parse_poly(scratch, text)
    if not poly.terms:
        return CYCLO.zero
    return poly.terms[0][1]
