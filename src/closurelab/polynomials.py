"""Sparse multivariate polynomials over a pluggable exact coefficient domain.

Monomials are plain exponent tuples indexed by the ring's variable list.
There is one monomial order, ``WeightedGrevlex``: graded reverse
lexicographic by weighted degree with ties broken by reverse lex on the
declared variable order, optionally preceded by a block of leading
variables that it eliminates.  Weights are exact Fractions so towers with
weights 3^-n stay exact; the order key compares them scaled to integers.

Products of two factors with at least ``LIFT_MIN_TERMS`` terms each run on
Python ints: the coefficient domain's ``lift_pair`` lifts both coefficient
lists, the product loop does one big-int multiply-add per term pair, and
each output term is lowered back once.  Over Q(zeta_9) each coordinate
vector is packed at t = 2^B with B at least ``bits(max|a|) + bits(max|b|) +
bits(6 * min(len a, len b)) + 1``, computed from the operands, so that no
accumulated coordinate leaves its digit.  The threshold is where the
lifted product starts to beat term-by-term arithmetic on dense
homogeneous factors at tower coefficient sizes; smaller products, and
products with a one-term factor, take the term-by-term paths.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, itemgetter, le, mul, sub

from .coefficients import CYCLO, CycloNum


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True when a divides b componentwise."""
    return all(map(le, a, b))


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_coprime(a, b):
    """No variable divides both; exponents are >= 0, so a product is 0 iff
    one factor is."""
    return not any(map(mul, a, b))


class WeightedGrevlex:
    """Weighted grevlex order with an optional leading elimination block.

    The first ``block`` variables are compared first by their total degree,
    then by their exponent tuple; the remaining variables by weighted degree
    with ties broken by reverse lex.  ``key`` maps a monomial to a flat
    tuple of ints that decreases with the order, so the smallest key is the
    leading monomial; it orders the terms of every ``Poly``, the division
    heap and the Groebner basis sorts.  Weights are summed scaled to
    integers by the lcm of their denominators; ``degree`` stays an exact
    Fraction.
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
            return (-sum(map(mul, self._int_weights, exps)),) + exps[::-1]
        head, tail = exps[:b], exps[b:]
        return (
            (-sum(head),)
            + tuple(-e for e in head)
            + (-sum(map(mul, self._int_weights[b:], tail)),)
            + tail[::-1]
        )


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


_coefficient = itemgetter(1)

# Poly.__mul__ lifts both factors to ints when each has at least this many
# terms; below it the packing costs more than the per-term arithmetic saves
LIFT_MIN_TERMS = 6


class Poly:
    """Immutable sparse polynomial: terms sorted strictly decreasing in the
    ring's order, no zero coefficients, zero polynomial is the empty tuple.

    The constructor takes a dict monomial -> coefficient, keys each monomial
    once with the order's ``key`` (ascending keys are descending monomials)
    and drops zero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingPresentation, terms: dict):
        self.ring = ring
        monos = sorted(terms, key=ring.order.key)
        self.terms = tuple(filter(_coefficient, zip(monos, map(terms.__getitem__, monos))))

    @classmethod
    def _presorted(cls, ring: RingPresentation, terms: tuple) -> "Poly":
        """Wrap (monomial, coefficient) pairs that are already strictly
        decreasing in the ring's order with no zero coefficient, without
        keying them again."""
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

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
        """The product in ``self.ring``, by one of three paths.

        - A constant or one-term factor scales and shifts the other
          factor's terms (``mul_term``); no term is keyed again.
        - Factors of at least ``LIFT_MIN_TERMS`` terms each are multiplied
          on ints from the domain's ``lift_pair``: one big-int multiply-add
          per term pair, one ``lower`` per output term.  Over Q(zeta_9) the
          ints pack each coordinate vector at t = 2^B, with B a bit above
          ``bits(max|a|) + bits(max|b|) + bits(6 * min(len a, len b))``
          so no accumulated coordinate overflows its digit.
        - Smaller products multiply and add the coefficients term by term.
        """
        ring = self.ring
        if not isinstance(other, Poly):
            c = ring.domain.coerce(other)
            return Poly._presorted(
                ring, tuple(filter(_coefficient, [(m, cc * c) for m, cc in self.terms]))
            )
        a, b = self.terms, self._coerce(other).terms
        if len(b) == 1:
            return self.mul_term(*b[0])
        if len(a) == 1 and other.ring is ring:
            return other.mul_term(*a[0])
        out = {}
        get = out.get
        if len(a) < LIFT_MIN_TERMS or len(b) < LIFT_MIN_TERMS:
            for m1, c1 in a:
                for m2, c2 in b:
                    m = mono_mul(m1, m2)
                    s = get(m)
                    prod = c1 * c2
                    out[m] = prod if s is None else s + prod
            return Poly(ring, out)
        xs, ys, lower = ring.domain.lift_pair([c for _, c in a], [c for _, c in b])
        mb = [m for m, _ in b]
        for (m1, _), x in zip(a, xs):
            for m2, y in zip(mb, ys):
                m = mono_mul(m1, m2)
                out[m] = get(m, 0) + x * y
        return Poly(ring, dict(zip(out, map(lower, out.values()))))

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
        """self * coeff * x^mono in ``self.ring``.  The order key is linear
        in the exponents, so shifting every monomial by ``mono`` keeps the
        terms in order; products that vanish (zero divisors of Z/p^N) are
        dropped."""
        return Poly._presorted(
            self.ring,
            tuple(filter(_coefficient, [(mono_mul(m, mono), c * coeff) for m, c in self.terms])),
        )

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

