"""Exact coefficient domains: rationals, the degree-6 cyclotomic field
generated by a primitive ninth root of unity, and residues mod p^N (F_p is
N = 1).

A cyclotomic element is stored fraction-free, as six ints over one positive
common denominator; products fold t^6 + t^3 + 1 inline and cancel with one
gcd.  The 18 units +-t^k are inverted by table lookup and every other
element by the norm (Cohen, *A Course in Computational Algebraic Number
Theory*, 4.2).

A residue mod p^N is a plain int in [0, p^N), not a wrapper object, and
``Poly`` reduces each output coefficient modulo the domain's ``modulus``
once; QQ and Q(zeta_9) have ``modulus = None``.  Every domain exposes
``zero``, ``one``, ``inv``, ``coerce``, ``is_field``, ``modulus``,
``lift_pair`` and ``format``; residue rings add ``val``.  An int or a
Fraction becomes a coefficient only through ``coerce``: ``CycloNum``
arithmetic takes ``CycloNum`` operands alone.

``lift_pair`` serves multi-term polynomial products: it maps two
coefficient lists to Python ints whose products and sums stand for the
products and sums of the coefficients, plus a ``lower`` function that maps
an accumulated int back to one domain element.  Rationals are cleared to
one denominator per list and residues are their own ints.  A cyclotomic
coordinate vector is evaluated at t = 2^B (Kronecker substitution; Harvey,
J. Symb. Comput. 44, 2009), so one big-int product is one 6x6 convolution;
B is chosen from the actual operand sizes so that every accumulated
coordinate stays a balanced base-2^B digit, and ``lower`` unpacks the 11
digits, folds t^6 + t^3 + 1 and cancels with one gcd once per output term
(delayed reduction; Monagan and Pearce, J. Symb. Comput. 46, 2011).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Minimal polynomial of the generator zeta (a primitive 9th root of unity):
# t^6 + t^3 + 1.  Reduction of t^(6+j) is the two-term rewrite
# t^(6+j) -> -t^(3+j) - t^j.
CYCLO_DEGREE = 6

# deterministic Miller-Rabin with the first thirteen primes as bases is
# exact below PRIME_TEST_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n below ``PRIME_TEST_LIMIT`` (about 3.3e24);
    raises ``ValueError`` at or above it rather than guess."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is past the exact primality test's limit {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class DomainError(ValueError):
    """Unsupported coefficient domain for the requested operation."""


class CycloNum:
    """Element of Q(zeta_9) in the power basis 1, t, ..., t^5 (t = zeta_9).

    theta, the primitive cube root of unity used throughout, is t^3; the
    cube roots theta^(k/3) are the basis monomials t^k.

    Stored fraction-free: ``num`` is a tuple of six ints and ``den`` one
    positive int, always in lowest terms (``gcd(den, *num) == 1``), so each
    element has exactly one stored form.  The coordinates are ``num[k] / den``.
    """

    __slots__ = ("num", "den")

    def __init__(self, coords):
        """Coordinates in powers of t: ints or Fractions, any length (powers
        t^6 and above are folded into the basis); any other coordinate
        raises ``TypeError``."""
        cs = list(coords)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"a CycloNum coordinate must be an int or a Fraction, got {c!r}")
        den = lcm(*(c.denominator for c in cs))
        x = _reduced(_fold([c.numerator * (den // c.denominator) for c in cs]), den)
        self.num = x.num
        self.den = x.den

    @property
    def coords(self) -> tuple:
        """The six coordinates as Fractions (derived, not stored)."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @classmethod
    def zeta_power(cls, k: int) -> "CycloNum":
        """t^k reduced into the power basis (k may be any integer >= 0)."""
        k %= 9
        return cls([0] * k + [1])

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNum):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "CycloNum":
        return _make(tuple([-c for c in self.num]), self.den)

    def __add__(self, other) -> "CycloNum":
        if isinstance(other, CycloNum):
            a0, a1, a2, a3, a4, a5 = self.num
            b0, b1, b2, b3, b4, b5 = other.num
            da, db = self.den, other.den
            if da == db:
                num = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)
                return _make(num, 1) if da == 1 else _reduced(num, da)
            num = (a0 * db + b0 * da, a1 * db + b1 * da, a2 * db + b2 * da,
                   a3 * db + b3 * da, a4 * db + b4 * da, a5 * db + b5 * da)
            return _reduced(num, da * db)
        return NotImplemented

    # __radd__ and __rmul__ stay as aliases: perfbench/layers.py binds them by name
    __radd__ = __add__

    def __sub__(self, other) -> "CycloNum":
        if isinstance(other, CycloNum):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other) -> "CycloNum":
        if isinstance(other, CycloNum):
            a0, a1, a2, a3, a4, a5 = self.num
            b0, b1, b2, b3, b4, b5 = other.num
            # coefficients of t^6 .. t^10 of the 6x6 convolution, folded by
            # t^(6+j) -> -t^(3+j) - t^j (highest first)
            c6 = a1 * b5 + a2 * b4 + a3 * b3 + a4 * b2 + a5 * b1
            c7 = a2 * b5 + a3 * b4 + a4 * b3 + a5 * b2
            c8 = a3 * b5 + a4 * b4 + a5 * b3
            c9 = a4 * b5 + a5 * b4
            c10 = a5 * b5
            num = (
                a0 * b0 - c6 + c9,
                a0 * b1 + a1 * b0 - c7 + c10,
                a0 * b2 + a1 * b1 + a2 * b0 - c8,
                a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - c6,
                a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0 - c7,
                a0 * b5 + a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1 + a5 * b0 - c8,
            )
            den = self.den * other.den
            return _make(num, 1) if den == 1 else _reduced(num, den)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """1/a: a unit +-t^k is looked up (its inverse is +-t^(9-k)), and
        any other element goes through the norm formula."""
        if self.den == 1:
            inv = _UNIT_INVERSES.get(self.num)
            if inv is not None:
                return inv
        return _norm_inverse(self)

    def __repr__(self) -> str:
        return f"CycloNum({format_cyclo(self)!r})"

    def __str__(self) -> str:
        return format_cyclo(self)


def _norm_inverse(a: CycloNum) -> CycloNum:
    """The norm formula: 1/a is the product of the other five Galois
    conjugates t -> t^k divided by the rational norm a * (that product)."""
    if not a:
        raise ZeroDivisionError("inverse of zero in Q(zeta_9)")
    num, den = a.num, a.den
    others = None
    for k in (2, 4, 5, 7, 8):
        cs = [0] * 9
        for i, c in enumerate(num):
            cs[i * k % 9] = c
        conj = _make(_fold(cs), den)
        others = conj if others is None else others * conj
    norm = a * others
    n, d = norm.num[0], norm.den
    return _reduced(tuple([c * d for c in others.num]), others.den * n)


def _make(num: tuple, den: int) -> CycloNum:
    """A CycloNum from a form already in lowest terms (no normalisation)."""
    x = object.__new__(CycloNum)
    x.num = num
    x.den = den
    return x


def _reduced(num: tuple, den: int) -> CycloNum:
    """The CycloNum num/den (den > 0), cancelling the common content."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple([c // g for c in num])
        den //= g
    return _make(num, den)


def _common_denominator(xs) -> tuple:
    """The numerators of CycloNums over their lcm denominator, and that
    denominator."""
    den = lcm(*[x.den for x in xs])
    return [x.num if x.den == den else [c * (den // x.den) for c in x.num] for x in xs], den


def _abs_bits(vectors) -> int:
    """Bit length of the largest absolute value among the coordinates."""
    return max(max(map(max, vectors)), -min(map(min, vectors))).bit_length()


def _fold(cs: list) -> tuple:
    """Six ints: an int coefficient list in t reduced modulo t^6 + t^3 + 1."""
    for k in range(len(cs) - 1, CYCLO_DEGREE - 1, -1):
        c = cs[k]
        if c:
            cs[k - 3] -= c
            cs[k - 6] -= c
    cs += [0] * (CYCLO_DEGREE - len(cs))
    return tuple(cs[:CYCLO_DEGREE])


# the 18 units +-t^k (k = 0..8), keyed on their stored numerators (den 1,
# and each element has one stored form), mapped to their inverses +-t^(9-k)
_UNIT_INVERSES = {
    sign(CycloNum.zeta_power(k)).num: sign(CycloNum.zeta_power(9 - k))
    for k in range(9)
    for sign in (lambda u: u, CycloNum.__neg__)
}


# the text of t^k in format_cyclo, k = 1..5
_T_POWERS = ("", "t", "t^2", "t^3", "t^4", "t^5")


def format_cyclo(value: CycloNum) -> str:
    """Canonical text form, e.g. ``-t^5 - t^2`` or ``1/2``: each coordinate
    ``num[k] / den`` in lowest terms, as ``str`` of a Fraction writes it,
    from one gcd and no Fraction."""
    num, den = value.num, value.den
    parts = []
    for k in range(CYCLO_DEGREE - 1, -1, -1):
        a = num[k]
        if not a:
            continue
        g = gcd(a, den)
        d = den // g
        c = f"{a // g}/{d}" if d != 1 else str(a // g)
        if k == 0:
            term = c
        elif c == "1":
            term = _T_POWERS[k]
        elif c == "-1":
            term = "-" + _T_POWERS[k]
        else:
            term = f"{c}*{_T_POWERS[k]}"
        if not parts:
            parts.append(term)
        elif term[0] == "-":
            parts.append("- " + term[1:])
        else:
            parts.append("+ " + term)
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# coefficient domains


class RationalField:
    name = "QQ"
    is_field = True
    modulus = None  # not a residue ring: Poly reduces nothing

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def inv(self, x: Fraction) -> Fraction:
        if not x:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / x

    def lift_pair(self, xs, ys):
        """Numerators over one lcm denominator per list; ``lower`` divides
        a sum of products by the product of the two denominators."""
        dx = lcm(*[c.denominator for c in xs])
        dy = lcm(*[c.denominator for c in ys])
        den = dx * dy
        return (
            [c.numerator * (dx // c.denominator) for c in xs],
            [c.numerator * (dy // c.denominator) for c in ys],
            lambda s: Fraction(s, den),
        )

    def format(self, x: Fraction, parenthesize: bool = False) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.name)


class CyclotomicField9:
    """Q(zeta_9); scalars are parsed and printed as polynomials in t."""

    name = "Q(zeta9)"
    is_field = True
    modulus = None

    zero = CycloNum([])
    one = CycloNum([1])

    def coerce(self, x) -> CycloNum:
        if isinstance(x, CycloNum):
            return x
        if isinstance(x, (int, Fraction)):
            return _make((x.numerator, 0, 0, 0, 0, 0), x.denominator)
        raise TypeError(f"cannot coerce {x!r} into Q(zeta9)")

    def inv(self, x: CycloNum) -> CycloNum:
        return x.inverse()

    def lift_pair(self, xs, ys):
        """Each list over one denominator, each coordinate vector packed
        as its value at t = 2^B.

        An output coordinate sums at most ``min(len xs, len ys)``
        convolution coefficients of six products each, so its size is
        below ``6 * min(len) * max|x| * max|y|``; B one bit above that
        bound keeps it a balanced digit in [-2^(B-1), 2^(B-1))."""
        vx, dx = _common_denominator(xs)
        vy, dy = _common_denominator(ys)
        bits = _abs_bits(vx) + _abs_bits(vy) + (6 * min(len(xs), len(ys))).bit_length() + 1
        half = 1 << (bits - 1)
        mask = (1 << bits) - 1
        shifts = tuple(range(0, 11 * bits, bits))
        _, s1, s2, s3, s4, s5 = shifts[:6]
        # half in every digit: the 11 digits of s + offset are nonnegative
        offset = sum([half << k for k in shifts])
        den = dx * dy

        def pack(vectors):
            return [
                a0 + (a1 << s1) + (a2 << s2) + (a3 << s3) + (a4 << s4) + (a5 << s5)
                for a0, a1, a2, a3, a4, a5 in vectors
            ]

        def lower(s):
            u = s + offset
            c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = [
                ((u >> k) & mask) - half for k in shifts
            ]
            # the fold of CycloNum.__mul__
            num = (c0 - c6 + c9, c1 - c7 + c10, c2 - c8, c3 - c6, c4 - c7, c5 - c8)
            return _make(num, 1) if den == 1 else _reduced(num, den)

        return pack(vx), pack(vy), lower

    def format(self, x: CycloNum, parenthesize: bool = False) -> str:
        text = format_cyclo(x)
        needs_parens = any(ch in text for ch in "+- ") or "t" in text
        if parenthesize and needs_parens:
            return f"({text})"
        return text

    def __eq__(self, other):
        return isinstance(other, CyclotomicField9)

    def __hash__(self):
        return hash(self.name)


class TruncatedPadicRing:
    """Z/p^N.  Its elements are plain ints in [0, p^N), and ``Poly`` reduces
    each output coefficient modulo ``modulus`` once.  Not a field: the
    Groebner engine rejects it and the digit-wise machinery in the p-adic
    module is used instead.  Equal rings share type, p and N, so
    ``PrimeField(p)`` differs from ``TruncatedPadicRing(p, 1)``."""

    is_field = False
    zero = 0
    one = 1

    def __init__(self, p: int, precision: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 3:
            raise ValueError("p = 3 is rejected: the Fermat cubic degenerates in characteristic 3")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.precision = precision
        self.modulus = p ** precision
        self.name = f"Z/{p}^{precision}"

    def coerce(self, x) -> int:
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        if isinstance(x, int):
            return x % self.modulus
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError(f"{x % self.modulus} is not a unit in {self.name}")
        return pow(x, -1, self.modulus)

    def val(self, x: int) -> int:
        """Largest k with p^k dividing the residue x; raises on zero."""
        x %= self.modulus
        if x == 0:
            raise ZeroDivisionError("valuation of zero is unbounded")
        k = 0
        while x % self.p == 0:
            x //= self.p
            k += 1
        return k

    def lift_pair(self, xs, ys):
        """The residues themselves; ``lower`` reduces modulo p^N once."""
        return xs, ys, self.coerce

    def format(self, x: int, parenthesize: bool = False) -> str:
        return str(x)

    def __eq__(self, other):
        return type(other) is type(self) and (other.p, other.precision) == (self.p, self.precision)

    def __hash__(self):
        return hash(self.name)


class PrimeField(TruncatedPadicRing):
    """F_p = Z/p^1, the residue ring that is a field."""

    is_field = True

    def __init__(self, p: int):
        super().__init__(p, 1)
        self.name = f"F_{p}"


QQ = RationalField()
CYCLO = CyclotomicField9()

THETA = CycloNum.zeta_power(3)
