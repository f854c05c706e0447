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
that read single exponents).  ``Poly.moved`` carries keys unchanged into
another ring only after checking that its order packs alike
(``WeightedGrevlex.packs_like``).

A product of two factors with at least ``LIFT_MIN_TERMS`` terms each whose
key lists are arithmetic progressions with one step, as for a homogeneous
form in (x^3, y^3) times a monomial, is the convolution of the two
coefficient lists when the coefficient domain's ``convolve`` lifts them:
output j has key a0 + b0 + j * step and is entry j of that convolution.
This module names no domain: which lists lift is the domain's decision.
Only Q(zeta_9) lifts any, two lists whose coefficients lie in
t^r * Q(theta), r per list, on Kronecker substitution (``convolve`` in
``coefficients``): the int coordinates r and r + 3 of each list packed into
one int apiece at a whole number of bytes per entry, three big-int
products of those ints and their sums (a square ``p * p``, as
``cached_power`` forms, makes three squarings), and the two output
coordinates, sums of those products, read back.  CPython's Karatsuba multiply
makes this faster than a sum per output term at every tower level (D.
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44 (2009); R. Fateman, "Can you save
time in multiplying polynomials by encoding them as integers?", 2010).
Every other product, including every product over QQ, ZZ or a residue
ring and every product with fewer terms, another key shape or lists the
domain does not lift, is multiplied term by term.  The threshold is where
the lifted product starts to beat term-by-term arithmetic on dense
homogeneous factors at tower coefficient sizes.

``Poly.linear_combination`` is the one accumulator: a sum, a difference,
a term-by-term product and Buchberger's S-polynomials and cofactor rows
are each one linear combination, summed into one dict and sorted once.
``cached_power`` is the one powering routine, for ``**``, the parser's
``^`` and the power tables of substitution.  Outside the lifted products,
every coefficient product is the domain's own ``*``: this module skips a
product only for ``one`` (the shared object, or in ``mul_term`` any
coefficient equal to it) and the shared ``minus_one``, and never picks
among products, so a unit +-t^k of Q(zeta_9) is a coordinate shift
inside ``CycloNum.__mul__`` wherever it is multiplied.  The parser too
asks the domain: a name that is not a variable is the domain's
``constant`` of that name (``t`` over Q(zeta_9)).

Residues mod p^N are plain ints, reduced modulo the domain's ``modulus``
once per output coefficient: in the constructor, in negation, in
``mul_term`` (scalar and one-term products, ``monic``) and in the
division step.  Over QQ and Q(zeta_9)
``modulus`` is None and nothing is reduced.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce
from operator import itemgetter, mul, or_

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
    add keys and quotients subtract them; ``divides`` is a mask test on
    the guard bits (``guard``), and ``exponents`` decodes a key.  Weights
    are summed scaled to integers by the lcm of their denominators
    (``scale``): ``wdeg`` is that int, the weighted degree times ``scale``,
    and ``degree`` the exact Fraction.  Two orders are equal when their
    weights and block are.
    """

    def __init__(self, weights, block: int = 0):
        self.weights = tuple(Fraction(w) for w in weights)
        if block not in (0, 1) or block > len(self.weights):
            raise ValueError("the elimination block holds at most one variable")
        self.block = block
        self.scale = math.lcm(*(w.denominator for w in self.weights))
        top = [int(w * self.scale) for w in self.weights]
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
        self.guard = sum(EXP_LIMIT << s for s in self._shifts)

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

    def wdeg(self, key: int) -> int:
        """The weighted degree of a monomial times ``scale``."""
        return -(key >> self._top_shift) - self._head_excess * (key & _FIELD_MASK)

    def degree(self, key: int) -> Fraction:
        return Fraction(self.wdeg(key), self.scale)

    def divides(self, a: int, b: int) -> bool:
        """True when monomial a divides b: b - a borrows into a guard bit
        exactly when some exponent of a exceeds b's."""
        return not (b - a) & self.guard

    def lcm_of_exponents(self, a: tuple, b: tuple) -> int:
        """The key of the lcm of two monomials given as exponent tuples."""
        return sum(map(mul, self._units, map(max, a, b)))

    def packs_like(self, other: "WeightedGrevlex") -> bool:
        """True when both orders pack every exponent tuple into the same
        key and decode it back the same way: weights (1/3, 1/3, 1/3) and
        (1/9, 1/9, 1/9) scale to the same ints, and so pack alike."""
        return self._units == other._units and self._head_excess == other._head_excess

    def check_fields(self, key: int):
        """Raise ``OverflowError`` when an exponent field of ``key``, or of an
        OR of keys, has reached its guard bit: a product left the range."""
        if key & self.guard:
            raise OverflowError(f"a monomial exponent reached {EXP_LIMIT}")


class RingPresentation:
    """Coefficient domain + ordered variables + weights + at most one relation.

    The relation may be given as polynomial text, parsed against this ring,
    or as a Poly of a ring that packs monomials alike, moved into this one
    (``Poly.moved``); it must be homogeneous for the declared weights.  A
    second relation is refused (``ValueError``), so ``relations`` is itself a
    Groebner basis of the relation ideal: one polynomial with a unit leading
    coefficient always is, and every reduction modulo the relation divides
    by it.  Quotient-ring semantics: every ideal computation appends the
    relation internally.  ``block=1`` orders by a leading elimination block
    of the first variable.
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
        self._zero = Poly._presorted(self, ())
        self._one = Poly._presorted(self, ((0, domain.one),))
        n = len(self.variables)
        self._var_keys = {
            v: self.order.key(tuple(int(j == i) for j in range(n))) for i, v in enumerate(self.variables)
        }
        if len(relations) > 1:
            raise ValueError("a ring takes at most one relation")
        self.relations = ()
        for r in relations:
            poly = self.parse(r) if isinstance(r, str) else r.moved(self)
            if not poly.is_homogeneous():
                raise ValueError(f"relation {poly} is not weighted-homogeneous")
            self.relations = (poly,)

    # -- construction helpers ------------------------------------------------

    def zero(self) -> "Poly":
        """The ring's one zero polynomial, shared: a Poly never changes."""
        return self._zero

    def one(self) -> "Poly":
        """The ring's one constant polynomial 1, shared like the zero."""
        return self._one

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

    def parse(self, text: str, budget: "ParseBudget | None" = None) -> "Poly":
        return parse_poly(self, text, budget)

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

# Poly.__mul__ lifts two progressions to ints only when each has at least
# this many terms; below it the packing costs more than the per-term
# arithmetic saves
LIFT_MIN_TERMS = 6


class Poly:
    """Immutable sparse polynomial: ``terms`` is a tuple of (packed monomial,
    coefficient) pairs, strictly decreasing in the ring's order (ascending
    as ints), with no zero coefficient; the zero polynomial is the empty
    tuple.

    The constructor takes a dict packed monomial -> coefficient and builds
    the terms in one pass over the sorted ints: it reduces each coefficient
    modulo the domain's ``modulus`` when it has one (residues arrive as raw
    int sums and products) and drops zero coefficients; an empty dict is
    the empty tuple at once.  ``RingPresentation.poly`` builds one from
    exponent tuples, and ``RingPresentation.zero`` is one shared zero per
    ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingPresentation, terms: dict):
        self.ring = ring
        if not terms:
            self.terms = ()
            return
        mod = ring.domain.modulus
        if mod:
            self.terms = tuple([(m, c) for m in sorted(terms) if (c := terms[m] % mod)])
        else:
            self.terms = tuple([(m, c) for m in sorted(terms) if (c := terms[m])])

    @classmethod
    def _presorted(cls, ring: RingPresentation, terms: tuple) -> "Poly":
        """Wrap (monomial, coefficient) pairs that are already strictly
        decreasing in the ring's order with no zero coefficient, without
        keying them again."""
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    @classmethod
    def linear_combination(cls, ring: RingPresentation, parts) -> "Poly":
        """sum(c * x^m * f for c, m, f in parts) in ``ring``, for scalars
        ``c`` of its domain, packed monomials ``m`` (0 for no shift) and
        Polys ``f`` of compatible rings.  The key is linear, so the term of
        ``f`` with key k lands at k + m.  Every term is summed into one dict
        and sorted once, where a loop ``out = out + c * (f * x^m)`` builds
        each multiple and copies and sorts the partial sum at each step
        (S. C. Johnson, "Sparse polynomial arithmetic", 1974).  A scalar
        that is the domain's shared ``one`` or ``minus_one`` adds or
        subtracts with no product (an equal copy is scaled like any other
        scalar, to the same sum), and every other scalar multiplies each
        coefficient as ``c * a``, the domain's one product (a unit +-t^k of
        Q(zeta_9) shifts coordinates there); residues are reduced once, by
        the constructor.  When some part moves its keys (m != 0), one OR
        over the output keys checks every exponent field, as ``mul_term``
        does (``OverflowError``).  A part with no terms adds nothing once its
        ring is checked, and a sum of such parts is the ring's shared
        zero."""
        out = {}
        get = out.get
        one, minus_one = ring.domain.one, ring.domain.minus_one
        shifted = 0
        for c, m, f in parts:
            if f.ring is not ring and not ring.compatible(f.ring):
                raise ValueError("polynomials from incompatible rings")
            terms = f.terms
            if not terms:
                continue
            shifted |= m
            if c is one:
                for k, a in terms:
                    k += m
                    s = get(k)
                    out[k] = a if s is None else s + a
            elif c is minus_one:
                for k, a in terms:
                    k += m
                    s = get(k)
                    out[k] = -a if s is None else s - a
            else:
                for k, a in terms:
                    k += m
                    s = get(k)
                    out[k] = c * a if s is None else s + c * a
        if not out:
            return ring.zero()
        if shifted:
            ring.order.check_fields(reduce(or_, out, 0))
        return cls(ring, out)

    def moved(self, ring: RingPresentation) -> "Poly":
        """The same packed terms read in ``ring``: variable i of
        ``self.ring`` becomes variable i of ``ring``.  Nothing is keyed or
        sorted again, so ``ring`` must have the same domain and number of
        variables and an order that packs like this one's
        (``WeightedGrevlex.packs_like``); otherwise ``ValueError``."""
        src = self.ring
        if ring is not src and not (
            ring.domain == src.domain
            and len(ring.variables) == len(src.variables)
            and ring.order.packs_like(src.order)
        ):
            raise ValueError(f"{src!r} and {ring!r} do not pack monomials alike")
        return Poly._presorted(ring, self.terms)

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
        # the negative of a nonzero coefficient is nonzero: the order stays
        mod = self.ring.domain.modulus
        if mod:
            return Poly._presorted(self.ring, tuple([(m, -c % mod) for m, c in self.terms]))
        return Poly._presorted(self.ring, tuple([(m, -c) for m, c in self.terms]))

    def __add__(self, other):
        one = self.ring.domain.one
        return Poly.linear_combination(self.ring, ((one, 0, self), (one, 0, self._coerce(other))))

    __radd__ = __add__

    def __sub__(self, other):
        dom = self.ring.domain
        return Poly.linear_combination(self.ring, ((dom.one, 0, self), (dom.minus_one, 0, self._coerce(other))))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """The product in ``self.ring``, by one of three paths.

        - A constant or one-term factor scales and shifts the other
          factor's terms (``mul_term``); nothing is sorted again.
        - Factors of at least ``LIFT_MIN_TERMS`` terms each whose key
          lists are arithmetic progressions with one step, as a form in
          (x^3, y^3) times a monomial is, are the convolution of their
          coefficient lists when the domain's ``convolve`` lifts them
          (only Q(zeta_9) does, for lists in some t^r * Q(theta)): output
          j has key a0 + b0 + j * step and is entry j of that convolution
          (Kronecker substitution; D. Harvey 2009, R. Fateman 2010), which
          for ``p * p`` passes one list twice.
        - Every other product is the linear combination of ``other``
          shifted by each term of ``self`` and scaled by its coefficient
          (``linear_combination``): one dict, the coefficient products
          formed as ``c1 * c2`` with the factor of ``self`` first.

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
        if len(a) >= LIFT_MIN_TERMS and len(b) >= LIFT_MIN_TERMS:
            square = a is b
            a0, b0 = a[0][0], b[0][0]
            step = a[1][0] - a0
            if [m for m, _ in a] == list(range(a0, a0 + len(a) * step, step)) and (
                square or [m for m, _ in b] == list(range(b0, b0 + len(b) * step, step))
            ):
                ca = [c for _, c in a]
                cs = ring.domain.convolve(ca, ca if square else [c for _, c in b])
                if cs is not None:
                    keys = range(a0 + b0, a0 + b0 + (len(a) + len(b) - 1) * step, step)
                    ring.order.check_fields(reduce(or_, keys, 0))
                    # ascending keys and canonical coefficients
                    return Poly._presorted(ring, tuple(filter(_coefficient, zip(keys, cs))))
        return Poly.linear_combination(ring, [(c, m, other) for m, c in a])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        return cached_power({}, None, self, n) if n else self.ring.one()

    def mul_term(self, mono: int, coeff) -> "Poly":
        """self * coeff * x^mono in ``self.ring``, for a packed ``mono``.  The
        packed key is linear in the exponents, so adding ``mono`` to every
        key keeps the terms in order.  A coefficient that is the domain's
        ``one``, or equals it, only moves keys.  Any other coefficient
        multiplies each term's as ``c * coeff``, the domain's one product
        (a unit +-t^k of Q(zeta_9) shifts coordinates there).
        Residues are reduced modulo p^N and the products that vanish (zero
        divisors of Z/p^N) are dropped; QQ, ZZ and Q(zeta_9) have no zero
        divisors, so there a nonzero ``coeff`` drops nothing and a zero one
        gives the ring's shared zero."""
        ring = self.ring
        dom = ring.domain
        one = dom.one
        if coeff is one or coeff == one:
            if not mono:
                return self
            terms = tuple([(m + mono, c) for m, c in self.terms])
        elif mod := dom.modulus:
            terms = tuple(filter(_coefficient, [(m + mono, c * coeff % mod) for m, c in self.terms]))
        elif not coeff:
            return ring.zero()
        else:
            terms = tuple([(m + mono, c * coeff) for m, c in self.terms])
        if mono:  # a constant factor moves no exponent
            ring.order.check_fields(reduce(or_, map(_monomial, terms), 0))
        return Poly._presorted(ring, terms)

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        # a unit factor keeps the terms in order (``mul_term``)
        return self.mul_term(0, self.ring.domain.inv(self.lc()))

    def substitute(
        self, images: dict | None = None, target: RingPresentation | None = None, power=None
    ) -> "Poly":
        """Ring-map style substitution: each variable goes to its image Poly
        (missing variables map to the same-named variable of the target).

        ``power(v, e)`` returns the image of variable ``v`` to the power e.
        A caller that keeps the powers of the images across calls passes
        its own accessor and the target ring, and then needs no
        ``images``, as the tower does for one table per depth; by default
        ``cached_power`` forms the powers of ``images`` for this call only.
        The terms are summed by ``linear_combination``."""
        ring = target or next(iter(images.values())).ring
        if power is None:
            powers = {}

            def power(v, e):
                return cached_power(powers, v, images[v] if v in images else ring.var(v), e)

        one, coerce = ring.one(), ring.domain.coerce
        exponents = self.ring.order.exponents
        variables = self.ring.variables
        parts = []
        for m, c in self.terms:
            term = one
            for v, e in zip(variables, exponents(m)):
                if e:
                    term = term * power(v, e)
            parts.append((coerce(c), 0, term))
        return Poly.linear_combination(ring, parts)

    def __repr__(self):
        return format_poly(self)


def cached_power(powers: dict, v, base: Poly, e: int, multiply=mul) -> Poly:
    """``base ** e`` for e >= 1 through ``powers``, which maps (v, exponent)
    to that power of ``base`` and is filled on the way: an odd power is the
    ``e - 1`` entry times ``base`` and an even one the ``e / 2`` entry
    squared, each product formed by ``multiply``, so every power below
    ``e`` that it passes through is kept.  It is the one powering routine:
    ``Poly.__pow__`` and the parser's ``^`` pass a fresh table."""
    p = powers.get((v, e))
    if p is None:
        if e == 1:
            p = base
        elif e & 1:
            p = multiply(cached_power(powers, v, base, e - 1, multiply), base)
        else:
            p = cached_power(powers, v, base, e >> 1, multiply)
            p = multiply(p, p)
        powers[v, e] = p
    return p


# ---------------------------------------------------------------------------
# text format: terms like (t^3 + 1)*x1^2*y1, scalars per coefficient domain


def format_poly(p: Poly) -> str:
    """Canonical text form, e.g. ``x^2*y - 3/2*z + 1`` over QQ or
    ``(t^3 + 1)*x1^2*y1 + (-1)*z1`` over Q(zeta_9): the terms in order, each coefficient as the domain formats it (parenthesized
    before a monomial where it needs it), a coefficient 1 left out and -1
    written as a sign, each later term joined by its sign.  Each term is
    printed in one pass, its exponents read straight off the packed key."""
    terms = p.terms
    if not terms:
        return "0"
    ring = p.ring
    fmt = ring.domain.format
    fields = tuple(zip(ring.order._shifts, ring.variables))
    out = []
    for m, c in terms:
        factors = []
        for s, v in fields:
            e = m >> s & _FIELD_MASK
            if e:
                factors.append(v if e == 1 else f"{v}^{e}")
        if factors:
            mono = "*".join(factors)
            ctext = fmt(c, True)
            if ctext == "1":
                term = mono
            elif ctext == "-1":
                term = "-" + mono
            else:
                term = f"{ctext}*{mono}"
        else:
            term = fmt(c)
        if not out:
            out.append(term)
        elif term[0] == "-":
            out.append(" - ")
            out.append(term[1:])
        else:
            out.append(" + ")
            out.append(term)
    return "".join(out)


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


# what the parses of one text, or of the texts of one document, may do:
# read PARSE_TEXT_LIMIT characters and PARSE_WORK_LIMIT term operations.  A
# term operation is one term pair of a product or power, or one term read
# by a sum or a negation.  (1+x+y+z)^32, the costliest factor that
# PRODUCT_DEGREE_LIMIT admits, takes 967 527 of them in its five squarings
# (``cached_power``), so a text holds one such factor and not two
PARSE_TEXT_LIMIT = 1 << 14
PARSE_WORK_LIMIT = 1_000_000


class ParseBudget:
    """The characters and term operations left to the parses that share
    this budget; past either limit they raise ``PolyParseError``.  A parse
    given no budget gets a fresh one."""

    def __init__(self):
        self.text_left = PARSE_TEXT_LIMIT
        self.work_left = PARSE_WORK_LIMIT

    def read(self, text: str):
        self.text_left -= len(text)
        if self.text_left < 0:
            raise PolyParseError(f"the texts pass {PARSE_TEXT_LIMIT} characters")

    def spend(self, ops: int):
        self.work_left -= ops
        if self.work_left < 0:
            raise PolyParseError(f"the texts ask for more than {PARSE_WORK_LIMIT} term operations")


def _total_degree(f: Poly) -> int:
    exponents = f.ring.order.exponents
    return max((sum(exponents(m)) for m, _ in f.terms), default=0)


class _Parser:
    """Recursive descent over + - * ^ ( ); a name that is not a variable
    is the domain's ``constant`` of that name, if it has one (``t`` over
    Q(zeta_9)).  Each product, sum and negation is charged to the budget
    before it is formed, and a sum of several terms is one
    ``linear_combination``."""

    def __init__(self, ring: RingPresentation, tokens, budget: ParseBudget):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0
        self.budget = budget

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

    def multiply(self, a: Poly, b: Poly) -> Poly:
        self.budget.spend(len(a.terms) * len(b.terms))
        return a * b

    def parse_expr(self) -> Poly:
        one, minus_one = self.ring.domain.one, self.ring.domain.minus_one
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        parts = [(minus_one if negate else one, 0, self.parse_term())]
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                parts.append((minus_one if val == "-" else one, 0, self.parse_term()))
            else:
                break
        if len(parts) == 1 and not negate:
            return parts[0][2]
        self.budget.spend(sum(len(f.terms) for _, _, f in parts))
        return Poly.linear_combination(self.ring, parts)

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                factor = self.parse_factor()
                if len(result.terms) > 1 and len(factor.terms) > 1:
                    self.check_degree(_total_degree(result) + _total_degree(factor))
                result = self.multiply(result, factor)
            else:
                return result

    def parse_factor(self) -> Poly:
        kind, val = self.peek()
        if kind == "op" and val == "-":
            # unary minus negates the whole factor: x*-y^2 is x*(-(y^2))
            self.take()
            factor = self.parse_factor()
            self.budget.spend(len(factor.terms))
            return -factor
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
            return cached_power({}, None, base, n, self.multiply) if n else self.ring.one()
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
            if (c := self.ring.domain.constant(val)) is not None:
                return self.ring.const(c)
            raise PolyParseError(f"unknown variable {val!r} (ring has {self.ring.variables})")
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolyParseError(f"unexpected token {val!r}")


def parse_poly(ring: RingPresentation, text: str, budget: ParseBudget | None = None) -> Poly:
    """The polynomial the text denotes; ``PolyParseError`` for bad text,
    including a product whose exponent reaches ``EXP_LIMIT``, a product or
    power of sums whose total degree passes ``PRODUCT_DEGREE_LIMIT``, more
    characters or term operations than ``budget`` has left (a fresh
    ``ParseBudget`` when none is given) and nesting deeper than the
    interpreter's recursion limit."""
    budget = budget or ParseBudget()
    budget.read(text)
    parser = _Parser(ring, _tokenize(text), budget)
    try:
        result = parser.parse_expr()
    except OverflowError as exc:
        raise PolyParseError(str(exc)) from exc
    except RecursionError as exc:
        raise PolyParseError("parentheses or signs nested too deeply") from exc
    if parser.pos != len(parser.tokens):
        raise PolyParseError(f"trailing input near token {parser.pos}")
    return result
