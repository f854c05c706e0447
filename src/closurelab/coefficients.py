"""Exact coefficient domains: rationals, the degree-6 cyclotomic field
generated by a primitive ninth root of unity, integers, and residues mod p^N
(F_p is N = 1).

A cyclotomic element is stored fraction-free, as six ints over one positive
common denominator.  ``CycloNum.__mul__`` is its one product: when either
factor is one of the 18 units +-t^k, the product is a signed coordinate
shift of the other with no gcd, and every other product folds
t^6 + t^3 + 1 inline and cancels with one gcd.  The same table of units
inverts them; every other element is inverted by the norm (Cohen, *A
Course in Computational Algebraic Number Theory*, 4.2), cached.

An integer is a plain int, and so is a residue mod p^N, in [0, p^N): ZZ is
the residue ring with no modulus.  ``Poly`` reduces each output coefficient
modulo the domain's ``modulus`` once; ZZ, QQ and Q(zeta_9) have ``modulus =
None``.  Every domain subclasses ``Domain`` and exposes ``zero``, ``one``,
``minus_one``, ``inv``, ``coerce``, ``is_field``, ``modulus``, ``convolve``,
``constant`` and ``format``; residue rings add ``val``.  Two domains are
equal exactly when their type and ``modulus`` are.  An int or a Fraction
becomes a coefficient only through ``coerce``: ``CycloNum`` arithmetic
takes ``CycloNum`` operands alone.  ``constant`` gives the parser the one
name a domain reads that is not a variable: ``t``, zeta_9, over Q(zeta_9);
the other domains name none.

``convolve`` serves the lifted products of ``Poly.__mul__``: it returns the
product of two coefficient lists as one list of domain elements, or None
when the domain does not lift them and the product goes term by term.
Q(zeta_9) is the one domain that lifts; QQ, ZZ and the residue rings keep
``Domain``'s None.  It lifts two lists when every vector of each is zero
outside coordinates r and r + 3 for some r per list: the list is t^r times
a + b*T, T = t^3, with a and b int lists over one denominator.  The product
(a + b*T)(c + d*T) packs a, b, c and d once each into one big int apiece
at one width (``_pack``, the one place that packs ints: Kronecker
substitution; D. Harvey, J. Symb. Comput. 44, 2009), makes the three
big-int products a*c, b*d and (a + b)(c + d) in ``_karatsuba`` (Karatsuba
and Ofman, Doklady 145, 1962) and folds T^2 = -T - 1 in sums of those big
ints, so only the two live coordinates are read back (``_unpack``); each
output entry cancels with one gcd (delayed reduction; Monagan and Pearce,
J. Symb. Comput. 46, 2011).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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
        """The product: a unit +-t^k times x is a signed coordinate shift of
        x (``_UNITS``, at most one lookup per operand with ``den == 1``),
        and every other product the 6x6 convolution folded inline and
        cancelled with one gcd."""
        if isinstance(other, CycloNum):
            if self.den == 1 and (unit := _UNITS.get(self.num)):
                return unit[1](other)
            if other.den == 1 and (unit := _UNITS.get(other.num)):
                return unit[1](self)
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
            unit = _UNITS.get(self.num)
            if unit is not None:
                return unit[0]
        return _norm_inverse(self)

    def __repr__(self) -> str:
        return f"CycloNum({format_cyclo(self)!r})"

    def __str__(self) -> str:
        return format_cyclo(self)


@lru_cache(maxsize=256)
def _norm_inverse(a: CycloNum) -> CycloNum:
    """The norm formula: 1/a is the product of the other five Galois
    conjugates t -> t^k divided by the rational norm a * (that product).
    Cached: the tower inverts the same few leading coefficients again and
    again."""
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


def _coset(vectors):
    """The r in 0..2 such that the vectors are nonzero only at coordinates
    r and r + 3 (the vectors of t^r * Q(theta)), or None if there is none."""
    live = {k % 3 for k, column in enumerate(zip(*vectors)) if any(column)}
    return live.pop() if len(live) == 1 else None


def _split(xs, r: int) -> tuple:
    """Coordinates r and r + 3 of the CycloNums xs as two int lists over
    their lcm denominator, and that denominator: a list in t^r * Q(theta)
    is t^r * (a + b*T)/den, T = t^3."""
    den = lcm(*{x.den for x in xs})
    scales = [den // x.den for x in xs]
    return [x.num[r] * s for x, s in zip(xs, scales)], [x.num[r + 3] * s for x, s in zip(xs, scales)], den


def _pack(zs: list, k: int) -> int:
    """The int list zs as one int, entry i the balanced digit of 2^(W*i),
    W = 8k bits (Kronecker substitution); an entry outside [-2^(W-1),
    2^(W-1)) raises ``OverflowError``.  The entries go through one byte
    string in W-bit two's complement, and one XOR with 2^(W-1) per digit
    turns each into its offset form z + 2^(W-1), which is non-negative,
    so the offsets come off in one subtraction: packing is linear in the
    size, with no shift per digit."""
    offset = int.from_bytes((bytes(k - 1) + b"\x80") * len(zs), "little")  # 2^(W-1) per digit
    raw = b"".join([z.to_bytes(k, "little", signed=True) for z in zs])
    return (int.from_bytes(raw, "little") ^ offset) - offset


def _unpack(x: int, n: int, k: int) -> list:
    """The n balanced digits of x at 2^W, W = 8k bits: the inverse of
    ``_pack`` for an x whose digits each lie in [-2^(W-1), 2^(W-1)).  The
    same offset and XOR turn them into two's complement digits, read back
    from one byte string."""
    offset = int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")
    raw = ((x + offset) ^ offset).to_bytes(n * k, "little")
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + k], "little", signed=True) for i in range(0, n * k, k)]


def _karatsuba(a: int, b: int, c: int, d: int) -> tuple:
    """The three big-int products of a lifted product of packed ints:
    a*c, b*d and (a + b)(c + d), three squarings when c is a and d is b."""
    if c is a and d is b:
        s = a + b
        return a * a, b * b, s * s
    return a * c, b * d, (a + b) * (c + d)


def _fold(cs: list) -> tuple:
    """Six ints: an int coefficient list in t reduced modulo t^6 + t^3 + 1."""
    for k in range(len(cs) - 1, CYCLO_DEGREE - 1, -1):
        c = cs[k]
        if c:
            cs[k - 3] -= c
            cs[k - 6] -= c
    cs += [0] * (CYCLO_DEGREE - len(cs))
    return tuple(cs[:CYCLO_DEGREE])


# a stored numerator padded to the nine coordinates of Z[t]/(t^9 - 1)
_PAD = (0, 0, 0)


def _times_unit(k: int, negate: bool):
    """x -> x * t^k, or x * -t^k when ``negate``: the numerator of x padded
    to the nine coordinates r of Z[t]/(t^9 - 1) is rotated by k, and
    t^(6+j) -> -t^(3+j) - t^j folds the rotation back, so coordinate i of
    x * t^k is r[i] - r[6 + i % 3], and -t^k swaps the two."""
    cut = 9 - k
    new = object.__new__

    def shift(x: CycloNum) -> CycloNum:
        e = x.num + _PAD
        r0, r1, r2, r3, r4, r5, r6, r7, r8 = e[cut:] + e[:cut]
        y = new(CycloNum)
        if negate:
            y.num = (r6 - r0, r7 - r1, r8 - r2, r6 - r3, r7 - r4, r8 - r5)
        else:
            y.num = (r0 - r6, r1 - r7, r2 - r8, r3 - r6, r4 - r7, r5 - r8)
        y.den = x.den
        return y

    return shift


def _unit_table() -> dict:
    """The 18 units +-t^k (k = 0..8), keyed on their stored numerators
    (den 1, and each element has one stored form), mapped to their
    inverses +-t^(9-k), which ``inverse`` returns, and to the shift
    x -> x * (+-t^k) (``_times_unit``), which ``__mul__`` applies and which
    is unimodular, so a numerator in lowest terms over ``den`` stays
    so: no gcd.  Each unit is built once, so 1 and -1 invert to the very
    objects they are: the field's shared ``one`` and ``minus_one``."""
    powers = [CycloNum.zeta_power(k) for k in range(9)]
    negatives = [-u for u in powers]
    table = {}
    for k in range(9):
        table[powers[k].num] = (powers[-k % 9], _times_unit(k, False))
        table[negatives[k].num] = (negatives[-k % 9], _times_unit(k, True))
    return table


_UNITS = _unit_table()


# the text of t^k in format_cyclo, k = 1..5
_T_POWERS = ("", "t", "t^2", "t^3", "t^4", "t^5")


def format_cyclo(value: CycloNum, parenthesize: bool = False) -> str:
    """Canonical text form, e.g. ``-t^5 - t^2`` or ``1/2``: each coordinate
    ``num[k] / den`` in lowest terms, as ``str`` of a Fraction writes it,
    from one gcd and no Fraction, its sign written as the separator.  With
    ``parenthesize``, every form but a positive rational (the one with no
    sign, space or t) is wrapped in parentheses, as a coefficient before a
    monomial is."""
    num, den = value.num, value.den
    out = []
    for k in (5, 4, 3, 2, 1, 0):
        a = num[k]
        if not a:
            continue
        if a < 0:
            out.append(" - " if out else "-")
            a = -a
        elif out:
            out.append(" + ")
        g = gcd(a, den)
        d = den // g
        c = str(a // g) if d == 1 else f"{a // g}/{d}"
        if not k:
            out.append(c)
        elif c == "1":
            out.append(_T_POWERS[k])
        else:
            out.append(f"{c}*{_T_POWERS[k]}")
    if not out:
        return "0"
    # one piece with no sign is a positive rational unless it holds t
    if parenthesize and (len(out) > 1 or not num[0]):
        return f"({''.join(out)})"
    return "".join(out)


# ---------------------------------------------------------------------------
# coefficient domains


class Domain:
    """What the coefficient domains share: a field with no modulus, whose
    products go term by term, which names no constant and prints its
    elements with ``str``.  Equal domains share type and ``modulus``, so
    ``PrimeField(5) != Z/5^1`` and ``ZZ == IntegerRing()``."""

    is_field = True
    modulus = None  # not a residue ring: Poly reduces nothing

    def convolve(self, xs, ys):
        """None: the product of two coefficient lists goes term by term."""
        return None

    def constant(self, name: str):
        """The element the parser reads for ``name`` when it is not a
        variable of the ring, or None when the domain names none."""
        return None

    def format(self, x, parenthesize: bool = False) -> str:
        return str(x)

    def __eq__(self, other):
        return type(other) is type(self) and other.modulus == self.modulus

    def __hash__(self):
        return hash((type(self), self.modulus))


class RationalField(Domain):
    name = "QQ"

    zero = Fraction(0)
    one = Fraction(1)
    minus_one = Fraction(-1)

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


class CyclotomicField9(Domain):
    """Q(zeta_9); scalars are parsed and printed as polynomials in t."""

    name = "Q(zeta9)"

    zero = CycloNum([])
    # the unit table's 1 and -1, which ``inverse`` returns for them
    one = _UNITS[(1, 0, 0, 0, 0, 0)][0]
    minus_one = _UNITS[(-1, 0, 0, 0, 0, 0)][0]

    def coerce(self, x) -> CycloNum:
        if isinstance(x, CycloNum):
            return x
        if isinstance(x, (int, Fraction)):
            return _make((x.numerator, 0, 0, 0, 0, 0), x.denominator)
        raise TypeError(f"cannot coerce {x!r} into Q(zeta9)")

    def inv(self, x: CycloNum) -> CycloNum:
        return x.inverse()

    def convolve(self, xs, ys):
        """The product of two coefficient lists that each lie in some
        t^r * Q(theta) (coordinates r and r + 3 only; r per list), else
        None, and the product goes term by term.

        The lists are t^rx * (a + b*T)/dx and t^ry * (c + d*T)/dy, T = t^3
        (``_split``); a square (``ys is xs``) is split and packed once.
        With p = a*c, q = b*d and m = (a + b)(c + d), T^2 = -T - 1 makes
        the product t^(rx+ry) * (u + v*T) with u = p - q and v = m - p - 2q,
        and when rx + ry >= 3, t^(rx+ry) is t^(rx+ry-3) * T and
        T * (u + v*T) = -v + (u - v)*T.  All of it runs on the packed ints
        (``_pack``): a, b, c and d are packed once each at one width W,
        ``_karatsuba`` makes the three big-int products (three squarings
        for a square), and u, v and the wrap are sums of them; packing is
        linear, so only u and v are read back (``_unpack``), and p, q, m
        and a + b may carry past their digits.  Every entry of u, v, -v and
        u - v is at most 3 n A C in size, n the shorter length and A, C
        the largest |a|, |b| and |c|, |d|, so W >= bits(A) + bits(C) +
        bits(n) + 3, in whole bytes, holds it as a balanced digit.  The
        two values go straight to coordinates (rx + ry) % 3 and that + 3
        of a CycloNum built in place, and cancel against dx * dy with one
        gcd."""
        rx = _coset([x.num for x in xs])
        square = ys is xs
        ry = rx if square else _coset([y.num for y in ys])
        if rx is None or ry is None:
            return None
        a, b, dx = _split(xs, rx)
        c, d, dy = (a, b, dx) if square else _split(ys, ry)
        bits = max(max(a), -min(a), max(b), -min(b)).bit_length()
        bits += bits if square else max(max(c), -min(c), max(d), -min(d)).bit_length()
        k = (bits + min(len(a), len(c)).bit_length() + 10) >> 3  # W / 8 bytes per digit
        pa, pb = _pack(a, k), _pack(b, k)
        pc, pd = (pa, pb) if square else (_pack(c, k), _pack(d, k))
        p, q, m = _karatsuba(pa, pb, pc, pd)
        pu, pv = p - q, m - p - 2 * q
        low = rx + ry
        if low >= 3:
            pu, pv = -pv, pu - pv
        n = len(a) + len(c) - 1
        r, den = low % 3, dx * dy
        new = object.__new__
        out = []
        for u, v in zip(_unpack(pu, n, k), _unpack(pv, n, k)):
            e = den
            if e != 1:
                g = gcd(e, u, v)
                if g != 1:
                    u //= g
                    v //= g
                    e //= g
            x = new(CycloNum)
            x.num = (u, 0, 0, v, 0, 0) if r == 0 else (0, u, 0, 0, v, 0) if r == 1 else (0, 0, u, 0, 0, v)
            x.den = e
            out.append(x)
        return out

    def constant(self, name: str):
        """t, the generator zeta_9, for the name ``t``."""
        return CycloNum.zeta_power(1) if name == "t" else None

    # format(x, parenthesize=False) is format_cyclo
    format = staticmethod(format_cyclo)


class IntegerRing(Domain):
    """Z as plain ints, and the base of the residue rings Z/p^N, which hold
    the same ints reduced modulo ``modulus``: Z is the one with no modulus.
    Not a field, so the Groebner engine rejects it; only +-1 is a unit."""

    name = "ZZ"
    is_field = False
    zero = 0
    one = 1
    minus_one = -1

    def coerce(self, x) -> int:
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        if isinstance(x, int):
            mod = self.modulus
            return x if mod is None else x % mod
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def inv(self, x: int) -> int:
        if x == 1 or x == -1:
            return x
        raise ZeroDivisionError(f"{x} is not a unit in {self.name}")


class TruncatedPadicRing(IntegerRing):
    """Z/p^N: the ints in [0, p^N), with ``modulus`` p^N.  The digit-wise
    machinery of the p-adic module stands in for Groebner bases."""

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


class PrimeField(TruncatedPadicRing):
    """F_p = Z/p^1, the residue ring that is a field."""

    is_field = True

    def __init__(self, p: int):
        super().__init__(p, 1)
        self.name = f"F_{p}"


QQ = RationalField()
ZZ = IntegerRing()
CYCLO = CyclotomicField9()

THETA = CycloNum.zeta_power(3)
