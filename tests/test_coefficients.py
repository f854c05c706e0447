import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab.coefficients import (
    CYCLO,
    PRIME_TEST_LIMIT,
    CycloNum,
    PrimeField,
    TruncatedPadicRing,
    format_cyclo,
    is_prime,
)
from closurelab.groebner import normal_form
from closurelab.polynomials import RingPresentation

THETA = CycloNum.zeta_power(3)


def rand_cyclo(rng, span=9):
    return CycloNum([Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4)) for _ in range(6)])


def brute_force_inverse(a: CycloNum) -> CycloNum:
    """Independent oracle: solve the 6x6 linear system (multiplication by a)
    * v = 1 by Gaussian elimination over Q."""
    cols = [(a * CycloNum.zeta_power(j)).coords for j in range(6)]
    m = [[Fraction(cols[j][i]) for j in range(6)] for i in range(6)]
    rhs = [Fraction(1)] + [Fraction(0)] * 5
    for col in range(6):
        pivot = next(r for r in range(col, 6) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        rhs[col] *= inv
        for r in range(6):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
                rhs[r] -= f * rhs[col]
    return CycloNum(rhs)


class TestCycloExamples:
    def test_theta_cube_is_one(self):
        assert THETA * THETA * THETA == CYCLO.one

    def test_theta_sum_vanishes(self):
        assert CYCLO.one + THETA + THETA * THETA == CYCLO.zero

    def test_zeta_cubed_squared_reduces(self):
        prod = CycloNum.zeta_power(3) * CycloNum.zeta_power(3)
        assert prod == CycloNum([-1, 0, 0, -1, 0, 0])

    def test_inverse_of_one(self):
        assert CYCLO.one.inverse() == CYCLO.one

    def test_inverse_of_theta(self):
        assert THETA.inverse() == THETA * THETA

    def test_inverse_of_zeta(self):
        z = CycloNum.zeta_power(1)
        assert z.inverse() == CycloNum([0, 0, -1, 0, 0, -1])

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            CYCLO.zero.inverse()

    def test_theta_fractional_powers_are_basis_monomials(self):
        # theta^(k/3) is t^k: its cube is theta^k
        for k in (1, 8):
            root = CycloNum.zeta_power(k)
            power = CYCLO.one
            for _ in range(k):
                power = power * THETA
            assert root * root * root == power


class TestCycloFieldAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(42)
        for _ in range(60):
            a, b, c = (rand_cyclo(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_inverse_round_trip(self):
        rng = random.Random(7)
        for _ in range(40):
            a = rand_cyclo(rng)
            if not a:
                continue
            assert a * a.inverse() == CYCLO.one

    def test_inverse_matches_brute_force_solve(self):
        rng = random.Random(13)
        for _ in range(25):
            a = rand_cyclo(rng)
            if not a:
                continue
            assert a.inverse() == brute_force_inverse(a)

    def test_eisenstein_embedding_is_ring_hom(self):
        # a + b*theta with theta^2 = -1 - theta maps through theta -> zeta^3
        rng = random.Random(3)

        def embed(pair):
            return CycloNum([pair[0]]) + THETA * pair[1]

        def eis_mul(u, v):
            # (a + b th)(c + d th) = ac - bd + (ad + bc - bd) th
            a, b = u
            c, d = v
            return (a * c - b * d, a * d + b * c - b * d)

        for _ in range(40):
            u = (Fraction(rng.randrange(-9, 10)), Fraction(rng.randrange(-9, 10)))
            v = (Fraction(rng.randrange(-9, 10)), Fraction(rng.randrange(-9, 10)))
            assert embed(eis_mul(u, v)) == embed(u) * embed(v)
            assert embed((u[0] + v[0], u[1] + v[1])) == embed(u) + embed(v)


class TestCycloContract:
    def test_sub_defers_to_the_other_operand(self):
        x1 = RingPresentation(CYCLO, ("x1",)).var("x1")
        assert THETA - x1 == -(x1 - THETA)
        assert 1 - THETA == CycloNum([1, 0, 0, -1])
        assert THETA - Fraction(1, 2) == CycloNum([Fraction(-1, 2), 0, 0, 1])

    def test_truediv_defers_to_the_other_operand(self):
        x1 = RingPresentation(CYCLO, ("x1",)).var("x1")
        for other in (x1, "a"):
            with pytest.raises(TypeError):
                THETA / other
        assert THETA / THETA == CYCLO.one
        assert THETA / 2 == CycloNum([0, 0, 0, Fraction(1, 2)])
        assert THETA / Fraction(2, 3) == CycloNum([0, 0, 0, Fraction(3, 2)])
        zeta = CycloNum.zeta_power(1)
        assert zeta / THETA == zeta * THETA.inverse() == CycloNum.zeta_power(-2)

    def test_equal_elements_hash_equal(self):
        assert len({CYCLO.one, 1}) == 1
        assert hash(CycloNum([Fraction(1, 2)])) == hash(Fraction(1, 2))
        halves = CycloNum([Fraction(1, 2), Fraction(3, 2), 0, Fraction(-5, 2), 0, Fraction(7, 2)])
        whole = CycloNum([1, 3, 0, -5, 0, 7])
        for doubled in (halves * 2, halves + halves, halves * Fraction(2)):
            assert doubled == whole
            assert hash(doubled) == hash(whole)


# Reference arithmetic on six Fractions: the convolution and the fold by
# t^6 + t^3 + 1 exactly as CycloNum did them before it went fraction-free.
def _ref_fold(cs):
    cs = [Fraction(c) for c in cs]
    for k in range(len(cs) - 1, 5, -1):
        c = cs[k]
        if c:
            cs[k - 3] -= c
            cs[k - 6] -= c
        cs[k] = Fraction(0)
    return tuple(cs[:6] + [Fraction(0)] * (6 - len(cs)))


def _ref_mul(a, b):
    out = [Fraction(0)] * 11
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_fold(out)


def _ref_pow(a, n):
    out = _ref_fold([1])
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _assert_canonical(result):
    assert isinstance(result, CycloNum)
    assert all(type(c) is int for c in result.num) and type(result.den) is int
    assert result.den >= 1 and gcd(result.den, *result.num) == 1


def _assert_matches(result, ref):
    _assert_canonical(result)
    assert result.coords == ref
    assert format_cyclo(result) == format_cyclo(SimpleNamespace(coords=ref))


_RATIONALS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)
_ELEMENTS = st.lists(_RATIONALS, min_size=0, max_size=13)


@settings(max_examples=150, deadline=None)
@given(xs=_ELEMENTS, ys=_ELEMENTS, s=_RATIONALS, n=st.integers(-3, 4))
def test_arithmetic_matches_the_fraction_reference(xs, ys, s, n):
    a, b = CycloNum(xs), CycloNum(ys)
    ra, rb = _ref_fold(xs), _ref_fold(ys)
    fs = Fraction(s)
    one = _ref_fold([1])
    _assert_matches(a, ra)
    _assert_matches(a + b, tuple(x + y for x, y in zip(ra, rb)))
    _assert_matches(a - b, tuple(x - y for x, y in zip(ra, rb)))
    _assert_matches(a * b, _ref_mul(ra, rb))
    _assert_matches(-a, tuple(-x for x in ra))
    _assert_matches(a * s, tuple(x * fs for x in ra))
    _assert_matches(s * a, tuple(x * fs for x in ra))
    _assert_matches(a + s, (ra[0] + fs,) + ra[1:])
    _assert_matches(s + a, (ra[0] + fs,) + ra[1:])
    _assert_matches(a - s, (ra[0] - fs,) + ra[1:])
    _assert_matches(s - a, (fs - ra[0],) + tuple(-x for x in ra[1:]))
    if n >= 0:
        _assert_matches(a ** n, _ref_pow(ra, n))
    if a:
        inv = a.inverse()
        _assert_canonical(inv)
        assert _ref_mul(inv.coords, ra) == one
        if n < 0:
            power = a ** n
            _assert_canonical(power)
            assert _ref_mul(power.coords, _ref_pow(ra, -n)) == one
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


def test_is_prime_is_exact_below_its_limit():
    """Trial division below 5000; Carmichael numbers and strong
    pseudoprimes to the bases 2..23 and 2..37 are composite; Mersenne
    primes 2^61 - 1 and 2^31 - 1 are prime; at the limit it refuses."""
    trial = [n for n in range(5000) if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(5000) if is_prime(n)] == trial
    assert not any(is_prime(n) for n in (-7, 0, 1, 561, 41041, 3215031751))
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert not is_prime(2 ** 61 + 1)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    for n in (PRIME_TEST_LIMIT, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="limit"):
            is_prime(n)


class TestPrimeField:
    def test_basic_arithmetic(self):
        """Elements are ints in [0, p); sums and products of them are raw
        ints until the domain reduces them."""
        f = PrimeField(7)
        a, b = f.from_int(5), f.from_int(4)
        assert (a, b) == (5, 4)
        assert f.from_int(a + b) == 2
        assert f.coerce(a * b) == 6
        assert f.from_int(a - b) == 1
        assert f.from_int(b - a) == 6
        assert f.from_int(f.inv(a) * a) == f.one
        assert f.coerce(Fraction(-8)) == 6

    def test_char_three_rejected(self):
        with pytest.raises(ValueError, match="degenerates"):
            PrimeField(3)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(6)

    def test_two_is_allowed(self):
        f = PrimeField(2)
        assert f.from_int(3) == f.one


class TestTruncatedPadic:
    def test_arithmetic_and_valuation(self):
        r = TruncatedPadicRing(5, 3)
        assert r.from_int(-1) == 124
        assert r.from_int(126 * 3) == 3
        assert r.val(r.from_int(50)) == 2
        assert r.val(r.from_int(7)) == 0
        # val reduces first: 250 is 0 in Z/5^3, 255 is 5 times a unit
        assert r.val(255) == 1
        for zero in (r.zero, 125, -250):
            with pytest.raises(ZeroDivisionError):
                r.val(zero)

    def test_unit_inverse(self):
        r = TruncatedPadicRing(2, 5)
        a = r.from_int(7)
        assert r.from_int(a * r.inv(a)) == r.one
        assert r.inv(-1) == 31
        for non_unit in (4, 0, 32):
            with pytest.raises(ZeroDivisionError):
                r.inv(non_unit)

    def test_reduction_maps_are_ring_homs(self):
        rng = random.Random(99)
        r = TruncatedPadicRing(5, 4)
        for m in (1, 2, 3):
            low = TruncatedPadicRing(5, m)
            reduce = low.from_int

            for _ in range(40):
                a = r.from_int(rng.randrange(0, 5 ** 4))
                b = r.from_int(rng.randrange(0, 5 ** 4))
                assert reduce(r.from_int(a + b)) == low.from_int(reduce(a) + reduce(b))
                assert reduce(r.from_int(a * b)) == low.from_int(reduce(a) * reduce(b))
            assert reduce(r.one) == low.one

    def test_char_three_rejected(self):
        with pytest.raises(ValueError, match="degenerates"):
            TruncatedPadicRing(3, 2)


class TestResidueRingContract:
    """F_p is Z/p^1 with the field flag.  Residues are plain ints, so rings
    are told apart at the ``Poly`` level: polynomials over different
    residue rings never mix, in either operand order."""

    @staticmethod
    def _rings():
        return [
            RingPresentation(domain, ("x", "y"))
            for domain in (PrimeField(5), TruncatedPadicRing(5, 2), TruncatedPadicRing(5, 1))
        ]

    def test_mixed_rings_raise(self):
        f5, z25, z5 = self._rings()
        ops = (
            lambda u, v: u * v,
            lambda u, v: u + v,
            lambda u, v: u - v,
            lambda u, v: normal_form(u, [v]),
        )
        for a, b in ((f5, z25), (f5, z5), (z25, z5)):
            f = a.parse("2*x*y + 3*y")
            g = b.parse("x + 13")
            for op in ops:
                with pytest.raises(ValueError, match="incompatible rings"):
                    op(f, g)
                with pytest.raises(ValueError, match="incompatible rings"):
                    op(g, f)

    def test_prime_field_is_not_z_mod_p(self):
        assert PrimeField(5) != TruncatedPadicRing(5, 1)
        assert PrimeField(5) == PrimeField(5)
        assert TruncatedPadicRing(5, 1) == TruncatedPadicRing(5, 1)
        f5, _, z5 = self._rings()
        assert f5.const(2) != z5.const(2)
        assert f5.const(2) == RingPresentation(PrimeField(5), ("x", "y")).const(7)

    def test_field_flag(self):
        assert PrimeField(5).is_field
        assert not TruncatedPadicRing(5, 2).is_field
        assert not TruncatedPadicRing(5, 1).is_field
