"""Exact coefficient domains: rationals, the degree-6 cyclotomic field
generated by a primitive ninth root of unity, and residues mod p^N (F_p is
N = 1).

Every domain exposes the same small interface (``zero``, ``one``,
``from_int``, ``inv``, ``coerce``, ``is_field``) and its elements are
immutable, hashable, and support ``+ - * ==`` and truth testing.
"""

from __future__ import annotations

from fractions import Fraction

# Minimal polynomial of the generator zeta (a primitive 9th root of unity):
# t^6 + t^3 + 1.  Reduction of t^(6+j) is the two-term rewrite
# t^(6+j) -> -t^(3+j) - t^j.
CYCLO_DEGREE = 6

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = 41
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class DomainError(ValueError):
    """Unsupported coefficient domain for the requested operation."""


class CycloNum:
    """Element of Q(zeta_9) in the power basis 1, t, ..., t^5 (t = zeta_9).

    theta, the primitive cube root of unity used throughout, is t^3; the
    cube roots theta^(k/3) are the basis monomials t^k.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coords]
        if len(cs) > CYCLO_DEGREE:
            # reduce high powers t^(6+j) -> -t^(3+j) - t^j, highest first
            for k in range(len(cs) - 1, CYCLO_DEGREE - 1, -1):
                c = cs[k]
                if c:
                    cs[k - 3] -= c
                    cs[k - 6] -= c
                cs[k] = Fraction(0)
            cs = cs[:CYCLO_DEGREE]
        elif len(cs) < CYCLO_DEGREE:
            cs = cs + [Fraction(0)] * (CYCLO_DEGREE - len(cs))
        self.coords = tuple(cs)

    @classmethod
    def from_rational(cls, r) -> "CycloNum":
        return cls([Fraction(r)])

    @classmethod
    def zeta_power(cls, k: int) -> "CycloNum":
        """t^k reduced into the power basis (k may be any integer >= 0)."""
        k %= 9
        cs = [Fraction(0)] * (k + 1)
        cs[k] = Fraction(1)
        return cls(cs)

    @classmethod
    def theta_power(cls, numerator: int, denominator: int = 1) -> "CycloNum":
        """theta^(numerator/denominator) with denominator dividing 3."""
        if denominator not in (1, 3):
            raise ValueError("only integral or third powers of theta exist here")
        exp = numerator * 3 if denominator == 1 else numerator
        return cls.zeta_power(exp)

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNum):
            return self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self == CycloNum.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __neg__(self) -> "CycloNum":
        return CycloNum([-c for c in self.coords])

    def __add__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return CycloNum([a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __sub__(self, other) -> "CycloNum":
        return self + (-other if isinstance(other, CycloNum) else CycloNum.from_rational(-Fraction(other)))

    def __rsub__(self, other) -> "CycloNum":
        return (-self) + other

    def __mul__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycloNum([c * f for c in self.coords])
        if not isinstance(other, CycloNum):
            return NotImplemented
        # sparse convolution; most tower scalars are single basis monomials
        out = [Fraction(0)] * (2 * CYCLO_DEGREE - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    out[i + j] += a * b
        return CycloNum(out)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Extended Euclid in Q[t] modulo t^6 + t^3 + 1."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_9)")
        modulus = [Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(1)]
        r0, r1 = modulus, _trim(list(self.coords))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r1 is a nonzero constant: gcd with the irreducible modulus
        c = r1[0]
        return CycloNum([x / c for x in s1])

    def __truediv__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def __pow__(self, n: int) -> "CycloNum":
        if n < 0:
            return self.inverse() ** (-n)
        result = CycloNum([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        return f"CycloNum({format_cyclo(self)!r})"

    def __str__(self) -> str:
        return format_cyclo(self)


def _trim(cs):
    while len(cs) > 1 and not cs[-1]:
        cs.pop()
    return cs


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if not a[-1]:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] / b[-1]
        q[shift] += c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        a.pop()
    return _trim(q), _trim(a if a else [Fraction(0)])


def format_cyclo(value: CycloNum) -> str:
    """Canonical text form, e.g. ``-t^5 - t^2`` or ``1/2``."""
    parts = []
    for k in range(CYCLO_DEGREE - 1, -1, -1):
        c = value.coords[k]
        if not c:
            continue
        mono = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if k == 0:
            term = str(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = f"-{mono}"
        else:
            term = f"{c}*{mono}"
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


class TruncatedPadic:
    """Residue mod p^N, an element of a ``TruncatedPadicRing`` (F_p is
    N = 1); the p-adic valuation of a nonzero residue is < N."""

    __slots__ = ("ring", "residue")

    def __init__(self, ring: "TruncatedPadicRing", residue: int):
        self.ring = ring
        self.residue = residue % ring.modulus

    def _residue_of(self, other):
        """Residue of an int or of an element of an equal ring; None for
        any other type.  Elements of different rings never mix."""
        if isinstance(other, int):
            return other
        if not isinstance(other, TruncatedPadic):
            return None
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(f"mixed residue rings {self.ring.name} and {other.ring.name}")
        return other.residue

    def __bool__(self):
        return self.residue != 0

    def __eq__(self, other):
        if isinstance(other, TruncatedPadic):
            return self.residue == other.residue and (other.ring is self.ring or other.ring == self.ring)
        if isinstance(other, int):
            return self.residue == other % self.ring.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.p, self.ring.precision, self.residue))

    def __neg__(self):
        return TruncatedPadic(self.ring, -self.residue)

    def __add__(self, other):
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        return TruncatedPadic(self.ring, self.residue + r)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        return TruncatedPadic(self.ring, self.residue - r)

    def __mul__(self, other):
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        return TruncatedPadic(self.ring, self.residue * r)

    __rmul__ = __mul__

    def val(self) -> int:
        """Largest k with p^k dividing the residue; raises on zero."""
        if self.residue == 0:
            raise ZeroDivisionError("valuation of zero is unbounded")
        p = self.ring.p
        k, r = 0, self.residue
        while r % p == 0:
            r //= p
            k += 1
        return k

    def inverse(self):
        if self.residue % self.ring.p == 0:
            raise ZeroDivisionError(f"{self.residue} is not a unit in {self.ring.name}")
        return TruncatedPadic(self.ring, pow(self.residue, -1, self.ring.modulus))

    def reduce_to(self, precision: int) -> "TruncatedPadic":
        if precision > self.ring.precision:
            raise ValueError("cannot increase precision")
        return TruncatedPadicRing(self.ring.p, precision).from_int(self.residue)

    def __repr__(self):
        return f"{self.residue}"


# ---------------------------------------------------------------------------
# coefficient domains


class RationalField:
    name = "QQ"
    is_field = True

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

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

    zero = CycloNum([])
    one = CycloNum([1])

    def from_int(self, n: int) -> CycloNum:
        return CycloNum([n])

    def coerce(self, x) -> CycloNum:
        if isinstance(x, CycloNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloNum([Fraction(x)])
        raise TypeError(f"cannot coerce {x!r} into Q(zeta9)")

    def inv(self, x: CycloNum) -> CycloNum:
        return x.inverse()

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
    """Z/p^N.  Not a field: the Groebner engine rejects it and the digit-wise
    machinery in the p-adic module is used instead.  Equal rings share type,
    p and N, so ``PrimeField(p)`` differs from ``TruncatedPadicRing(p, 1)``."""

    is_field = False

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
        self.zero = TruncatedPadic(self, 0)
        self.one = TruncatedPadic(self, 1)

    def from_int(self, n: int) -> TruncatedPadic:
        return TruncatedPadic(self, n)

    def coerce(self, x) -> TruncatedPadic:
        if isinstance(x, TruncatedPadic):
            if x.ring is not self and x.ring != self:
                raise TypeError(f"cannot coerce an element of {x.ring.name} into {self.name}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction) and x.denominator == 1:
            return self.from_int(x.numerator)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def inv(self, x: TruncatedPadic) -> TruncatedPadic:
        return x.inverse()

    def format(self, x: TruncatedPadic, parenthesize: bool = False) -> str:
        return str(x.residue)

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
