"""Sparse multivariate polynomials over a pluggable exact coefficient domain.

There is one monomial order, ``WeightedGrevlex``: graded reverse
lexicographic by weighted degree with ties broken by reverse lex on the
declared variable order, optionally preceded by a one-variable block that
it eliminates.  Weights are exact Fractions so towers with weights 3^-n stay
exact; the order compares them scaled to integers.

Inside a ``Poly`` each monomial is one packed int, its order key: one
``FIELD_BITS``-bit field per exponent below a signed top digit that holds
the negated (scaled) weighted degree.  The key is linear in the exponents,
so a product of monomials is the sum of their keys, a quotient the
difference, and ascending ints are descending monomials.  The top bit of
every field is a guard bit that is clear in every monomial, so one mask
test decides divisibility and detects a product whose exponent leaves its
field (``OverflowError``).  Only this module knows the layout: exponent
tuples are the public form, and ``WeightedGrevlex.key`` and
``WeightedGrevlex.exponents`` convert at the boundary (``ring.var``,
``ring.poly``, parsing, formatting, substitution and the domain modules
that read single exponents).

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

Residues mod p^N are plain ints, reduced modulo the domain's ``modulus``
once per output coefficient: in the constructor, in ``mul_term`` (scalar
and one-term products) and in the division step.  Over QQ and Q(zeta_9)
``modulus`` is None and nothing is reduced.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce
from operator import itemgetter, mul, or_

from .coefficients import CYCLO, CycloNum

# bits per exponent field of a packed monomial; the top one is the guard
# bit, so exponents run below EXP_LIMIT = 2^19, nine times the z^(2 * 13^4)
# that charp reaches at e_max = 4 (a narrower field was no faster)
FIELD_BITS = 20
EXP_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1


class WeightedGrevlex:
    """Weighted grevlex order with an optional leading elimination block.

    With ``block=1`` the first variable is compared first by its degree; the
    rest, and every variable without a block, by weighted degree with ties
    broken by reverse lex.  ``key`` packs an exponent tuple into one int
    that decreases with the order, so the smallest key is the leading
    monomial: base-2^FIELD_BITS digits ``e_(n-1) ... e_0`` below a signed top
    digit ``-wdeg`` (``-(M * e_0 + wdeg(tail))`` with a block, M above any
    tail degree).  The key is a linear form in the exponents, so products
    add keys and quotients subtract them; ``divides`` is a guard-bit mask
    test, and ``exponents`` decodes a key.  Weights are summed scaled to
    integers by the lcm of their denominators; ``degree`` stays an exact
    Fraction.  Two orders are equal when their weights and block are.
    """

    def __init__(self, weights, block: int = 0):
        self.weights = tuple(Fraction(w) for w in weights)
        if block not in (0, 1) or block > len(self.weights):
            raise ValueError("the elimination block holds at most one variable")
        self.block = block
        self._scale = math.lcm(*(w.denominator for w in self.weights))
        top = [int(w * self._scale) for w in self.weights]
        self._head_excess = 0
        if block:
            # the top digit counts the head variable M times, its degree once
            head = EXP_LIMIT * sum(top[1:]) + 1
            self._head_excess = head - top[0]
            top[0] = head
        n = len(top)
        self._top_shift = FIELD_BITS * n
        self._shifts = tuple(FIELD_BITS * i for i in range(n))
        self._units = tuple((1 << s) - (w << self._top_shift) for s, w in zip(self._shifts, top))
        self._guard = sum(EXP_LIMIT << s for s in self._shifts)

    def __eq__(self, other):
        if isinstance(other, WeightedGrevlex):
            return self.weights == other.weights and self.block == other.block
        return NotImplemented

    def key(self, exps) -> int:
        """The packed key of an exponent tuple; raises ``ValueError`` for a
        tuple of the wrong length and ``OverflowError`` for an exponent
        outside [0, EXP_LIMIT)."""
        if len(exps) != len(self._units):
            raise ValueError(f"exponents {tuple(exps)} need one entry per variable ({len(self._units)})")
        if exps and (min(exps) < 0 or max(exps) >= EXP_LIMIT):
            raise OverflowError(f"exponents {tuple(exps)} outside [0, {EXP_LIMIT})")
        return sum(map(mul, self._units, exps))

    def exponents(self, key: int) -> tuple:
        return tuple((key >> s) & _FIELD_MASK for s in self._shifts)

    def degree(self, key: int) -> Fraction:
        wdeg = -(key >> self._top_shift) - self._head_excess * (key & _FIELD_MASK)
        return Fraction(wdeg, self._scale)

    def divides(self, a: int, b: int) -> bool:
        """True when monomial a divides b: b - a borrows into a guard bit
        exactly when some exponent of a exceeds b's."""
        return not (b - a) & self._guard

    def lcm(self, a: int, b: int) -> int:
        return sum(map(mul, self._units, map(max, self.exponents(a), self.exponents(b))))

    def check_fields(self, key: int):
        """Raise ``OverflowError`` when an exponent field of ``key``, or of an
        OR of keys, has reached its guard bit: a product left the range."""
        if key & self._guard:
            raise OverflowError(f"a monomial exponent reached {EXP_LIMIT}")


class RingPresentation:
    """Coefficient domain + ordered variables + weights + relation ideal.

    Relations may be given as polynomial text; they are parsed against this
    ring and must be homogeneous for the declared weights.  Quotient-ring
    semantics: every ideal computation appends the relations internally.
    ``block=1`` orders by a leading elimination block of the first variable.
    """

    def __init__(self, domain, variables, weights=None, relations=(), block: int = 0):
        self.domain = domain
        self.variables = tuple(variables)
        if weights is None:
            weights = (Fraction(1),) * len(self.variables)
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.weights) != len(self.variables):
            raise ValueError("one weight per variable required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self.order = WeightedGrevlex(self.weights, block)
        n = len(self.variables)
        self._var_keys = {
            v: self.order.key(tuple(int(j == i) for j in range(n))) for i, v in enumerate(self.variables)
        }
        rels = []
        for r in relations:
            poly = self.parse(r) if isinstance(r, str) else r
            if poly.ring is not self:
                order = poly.ring.order
                poly = self.poly({order.exponents(m): c for m, c in poly.terms})
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
        # every exponent of a constant is 0, and so is its packed key
        return Poly(self, {0: self.domain.coerce(c)})

    def var(self, name: str) -> "Poly":
        return Poly._presorted(self, ((self._var_keys[name], self.domain.one),))

    def poly(self, terms: dict) -> "Poly":
        """The polynomial with the given exponent tuple -> coefficient terms;
        each coefficient is coerced into the domain."""
        key, coerce = self.order.key, self.domain.coerce
        return Poly(self, {key(tuple(e)): coerce(c) for e, c in terms.items()})

    def monomial(self, exps, coeff=None) -> "Poly":
        return self.poly({tuple(exps): self.domain.one if coeff is None else coeff})

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)

    def compatible(self, other: "RingPresentation") -> bool:
        """Same domain, variables and order: packed monomials mean the same
        thing in both rings."""
        return self is other or (
            self.domain == other.domain
            and self.variables == other.variables
            and self.order == other.order
        )

    def __repr__(self):
        rel = f" / ({', '.join(format_poly(r) for r in self.relations)})" if self.relations else ""
        return f"{self.domain.name}[{', '.join(self.variables)}]{rel}"


_monomial = itemgetter(0)
_coefficient = itemgetter(1)

# Poly.__mul__ lifts both factors to ints when each has at least this many
# terms; below it the packing costs more than the per-term arithmetic saves
LIFT_MIN_TERMS = 6


class Poly:
    """Immutable sparse polynomial: ``terms`` is a tuple of (packed monomial,
    coefficient) pairs, strictly decreasing in the ring's order (ascending
    as ints), with no zero coefficient; the zero polynomial is the empty
    tuple.

    The constructor takes a dict packed monomial -> coefficient, sorts the
    ints, reduces each coefficient modulo the domain's ``modulus`` when it
    has one (residues arrive as raw int sums and products) and drops zero
    coefficients; ``RingPresentation.poly`` builds one from exponent
    tuples."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingPresentation, terms: dict):
        self.ring = ring
        monos = sorted(terms)
        mod = ring.domain.modulus
        if mod:
            coeffs = [terms[m] % mod for m in monos]
        else:
            coeffs = map(terms.__getitem__, monos)
        self.terms = tuple(filter(_coefficient, zip(monos, coeffs)))

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

    def lm(self) -> int:
        """Leading monomial (packed key)."""
        return self.terms[0][0]

    def lc(self):
        return self.terms[0][1]

    def degree(self) -> Fraction:
        """Maximal weighted degree among terms; -1 for the zero polynomial."""
        if not self.terms:
            return Fraction(-1)
        return max(map(self.ring.order.degree, map(_monomial, self.terms)))

    def min_degree(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no minimal degree")
        return min(map(self.ring.order.degree, map(_monomial, self.terms)))

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        return len(set(map(self.ring.order.degree, map(_monomial, self.terms)))) == 1

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring.compatible(other.ring) and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and not self.ring.compatible(other.ring):
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
          factor's terms (``mul_term``); nothing is sorted again.
        - Factors of at least ``LIFT_MIN_TERMS`` terms each are multiplied
          on ints from the domain's ``lift_pair``: one big-int multiply-add
          per term pair, one ``lower`` per output term.  Over Q(zeta_9) the
          ints pack each coordinate vector at t = 2^B, with B a bit above
          ``bits(max|a|) + bits(max|b|) + bits(6 * min(len a, len b))``
          so no accumulated coordinate overflows its digit.
        - Smaller products multiply and add the coefficients term by term.

        A product monomial is the sum of the packed keys.  One OR over the
        output keys checks every exponent field (``OverflowError``).
        """
        ring = self.ring
        if not isinstance(other, Poly):
            return self.mul_term(0, ring.domain.coerce(other))
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
                    m = m1 + m2
                    s = get(m)
                    prod = c1 * c2
                    out[m] = prod if s is None else s + prod
            ring.order.check_fields(reduce(or_, out, 0))
            return Poly(ring, out)
        xs, ys, lower = ring.domain.lift_pair([c for _, c in a], [c for _, c in b])
        mb = [m for m, _ in b]
        for (m1, _), x in zip(a, xs):
            for m2, y in zip(mb, ys):
                m = m1 + m2
                out[m] = get(m, 0) + x * y
        ring.order.check_fields(reduce(or_, out, 0))
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

    def mul_term(self, mono: int, coeff) -> "Poly":
        """self * coeff * x^mono in ``self.ring``, for a packed ``mono``.  The
        packed key is linear in the exponents, so adding ``mono`` to every
        key keeps the terms in order; residues are reduced modulo p^N and
        products that vanish (zero divisors of Z/p^N) are dropped."""
        ring = self.ring
        mod = ring.domain.modulus
        if mod:
            terms = [(m + mono, c * coeff % mod) for m, c in self.terms]
        else:
            terms = [(m + mono, c * coeff) for m, c in self.terms]
        terms = tuple(filter(_coefficient, terms))
        if mono:  # a constant factor moves no exponent
            ring.order.check_fields(reduce(or_, map(_monomial, terms), 0))
        return Poly._presorted(ring, terms)

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
        exponents = self.ring.order.exponents
        for m, c in self.terms:
            term = ring.const(c)
            for v, e in zip(self.ring.variables, exponents(m)):
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
            v if e == 1 else f"{v}^{e}" for v, e in zip(ring.variables, ring.order.exponents(m)) if e
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


# the parser refuses a product or power of factors with at least two terms
# each whose total degree would pass this: such a product in three
# variables can have thousands of terms, and its cost grows with their
# square.  A one-term factor only shifts the other factor's terms.
PRODUCT_DEGREE_LIMIT = 32


def _total_degree(f: Poly) -> int:
    exponents = f.ring.order.exponents
    return max((sum(exponents(m)) for m, _ in f.terms), default=0)


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
                factor = self.parse_factor()
                if len(result.terms) > 1 and len(factor.terms) > 1:
                    self.check_degree(_total_degree(result) + _total_degree(factor))
                result = result * factor
            else:
                return result

    def parse_factor(self) -> Poly:
        kind, val = self.peek()
        if kind == "op" and val == "-":
            # unary minus negates the whole factor: x*-y^2 is x*(-(y^2))
            self.take()
            return -self.parse_factor()
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k, v = self.take()
            if k != "num" or "/" in v:
                raise PolyParseError("exponent must be a nonnegative integer")
            n = int(v)
            if n >= EXP_LIMIT:
                raise PolyParseError(f"exponent {n} is not below {EXP_LIMIT}")
            if len(base.terms) > 1:
                self.check_degree(n * _total_degree(base))
            return base ** n
        return base

    @staticmethod
    def check_degree(degree: int):
        if degree > PRODUCT_DEGREE_LIMIT:
            raise PolyParseError(
                f"a product of sums of degree {degree} passes the limit {PRODUCT_DEGREE_LIMIT}"
            )

    def parse_atom(self) -> Poly:
        kind, val = self.take()
        if kind == "num":
            n, _, d = val.partition("/")
            if d and int(d) == 0:
                raise PolyParseError(f"zero denominator in {val}")
            try:
                return self.ring.const(Fraction(int(n), int(d or 1)))
            except TypeError as exc:
                # a fraction the domain does not hold, as in Z/p^N
                raise PolyParseError(str(exc)) from exc
        if kind == "name":
            if val in self.ring._var_keys:
                return self.ring.var(val)
            if val == "t" and self.ring.domain == CYCLO:
                return self.ring.const(CycloNum.zeta_power(1))
            raise PolyParseError(f"unknown variable {val!r} (ring has {self.ring.variables})")
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolyParseError(f"unexpected token {val!r}")


def parse_poly(ring: RingPresentation, text: str) -> Poly:
    """The polynomial the text denotes; ``PolyParseError`` for bad text,
    including a product whose exponent reaches ``EXP_LIMIT``, a product or
    power of sums whose total degree passes ``PRODUCT_DEGREE_LIMIT`` and
    nesting deeper than the interpreter's recursion limit."""
    parser = _Parser(ring, _tokenize(text))
    try:
        result = parser.parse_expr()
    except OverflowError as exc:
        raise PolyParseError(str(exc)) from exc
    except RecursionError as exc:
        raise PolyParseError("parentheses or signs nested too deeply") from exc
    if parser.pos != len(parser.tokens):
        raise PolyParseError(f"trailing input near token {parser.pos}")
    return result

