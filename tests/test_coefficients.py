import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab.coefficients import (
    CYCLO,
    PRIME_TEST_LIMIT,
    CycloNum,
    PrimeField,
    TruncatedPadicRing,
    _norm_inverse,
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


UNITS = [u for k in range(9) for u in (CycloNum.zeta_power(k), -CycloNum.zeta_power(k))]


class TestUnitInverses:
    """The 18 units +-t^k are inverted by table lookup, every other element
    by the norm formula."""

    @pytest.mark.parametrize("u", UNITS, ids=str)
    def test_table_entry_is_the_norm_formula_inverse(self, u):
        inv = u.inverse()
        ref = _norm_inverse(u)
        assert (inv.num, inv.den) == (ref.num, ref.den)
        assert u * inv == CYCLO.one
        assert inv * u == CYCLO.one


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
            return CYCLO.coerce(pair[0]) + THETA * CYCLO.coerce(pair[1])

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
    """``CycloNum`` arithmetic takes ``CycloNum`` operands only: a scalar
    enters through ``CYCLO.coerce``, and any other operand is left to its
    own type (a ``Poly``) or ends in ``TypeError``."""

    def test_sub_defers_to_the_other_operand(self):
        x1 = RingPresentation(CYCLO, ("x1",)).var("x1")
        assert THETA - x1 == -(x1 - THETA)
        assert THETA - CYCLO.coerce(Fraction(1, 2)) == CycloNum([Fraction(-1, 2), 0, 0, 1])

    def test_truediv_defers_to_the_other_operand(self):
        x1 = RingPresentation(CYCLO, ("x1",)).var("x1")
        for other in (x1, "a", THETA, 2):
            with pytest.raises(TypeError):
                THETA / other
        assert THETA * THETA.inverse() == CYCLO.one
        assert THETA * CYCLO.coerce(Fraction(2, 3)).inverse() == CycloNum([0, 0, 0, Fraction(3, 2)])
        zeta = CycloNum.zeta_power(1)
        assert zeta * THETA.inverse() == CycloNum.zeta_power(-2)

    def test_equal_elements_hash_equal(self):
        halves = CycloNum([Fraction(1, 2), Fraction(3, 2), 0, Fraction(-5, 2), 0, Fraction(7, 2)])
        whole = CycloNum([1, 3, 0, -5, 0, 7])
        for doubled in (halves * CYCLO.coerce(2), halves + halves, halves * CycloNum([Fraction(2)])):
            assert doubled == whole
            assert hash(doubled) == hash(whole)

    @pytest.mark.parametrize("scalar", [2, Fraction(1, 2), 0.5, "1/2"], ids=repr)
    def test_scalar_operands_raise(self, scalar):
        ops = (
            lambda u, v: u + v,
            lambda u, v: u - v,
            lambda u, v: u * v,
            lambda u, v: u / v,
            lambda u, v: u ** v,
        )
        for op in ops:
            with pytest.raises(TypeError):
                op(THETA, scalar)
            with pytest.raises(TypeError):
                op(scalar, THETA)
        # no scalar equals an element, not even 1 the unit
        assert CYCLO.one != 1 and CYCLO.one != Fraction(1) and THETA != scalar

    @pytest.mark.parametrize("coord", [0.1, "1/2", None, 1j, CycloNum([1])], ids=repr)
    def test_constructor_refuses_other_coordinates(self, coord):
        with pytest.raises(TypeError, match="coordinate"):
            CycloNum([coord])
        with pytest.raises(TypeError, match="coordinate"):
            CycloNum([1, 0, coord])

    def test_coerce_takes_ints_and_fractions_only(self):
        assert CYCLO.coerce(-3) == CycloNum([-3])
        assert CYCLO.coerce(Fraction(-6, 4)) == CycloNum([Fraction(-3, 2)])
        assert CYCLO.coerce(THETA) is THETA
        for bad in (0.5, "1/2", None):
            with pytest.raises(TypeError):
                CYCLO.coerce(bad)


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


def _assert_canonical(result):
    assert isinstance(result, CycloNum)
    assert all(type(c) is int for c in result.num) and type(result.den) is int
    assert result.den >= 1 and gcd(result.den, *result.num) == 1


def _ref_format(coords):
    """The text of six Fraction coordinates, written term by term with
    ``str`` of each Fraction: the reference for ``format_cyclo``, which
    reads ``num`` and ``den`` instead."""
    parts = []
    for k in range(5, -1, -1):
        c = coords[k]
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


def _assert_matches(result, ref):
    _assert_canonical(result)
    assert result.coords == ref
    assert format_cyclo(result) == _ref_format(ref)


_RATIONALS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)
_ELEMENTS = st.lists(_RATIONALS, min_size=0, max_size=13)


@settings(max_examples=150, deadline=None)
@given(xs=_ELEMENTS, ys=_ELEMENTS, s=_RATIONALS)
def test_arithmetic_matches_the_fraction_reference(xs, ys, s):
    a, b = CycloNum(xs), CycloNum(ys)
    ra, rb = _ref_fold(xs), _ref_fold(ys)
    fs = Fraction(s)
    cs = CYCLO.coerce(s)
    _assert_matches(a, ra)
    _assert_matches(cs, (fs,) + (Fraction(0),) * 5)
    _assert_matches(a + b, tuple(x + y for x, y in zip(ra, rb)))
    _assert_matches(a - b, tuple(x - y for x, y in zip(ra, rb)))
    _assert_matches(a * b, _ref_mul(ra, rb))
    _assert_matches(-a, tuple(-x for x in ra))
    _assert_matches(a * cs, tuple(x * fs for x in ra))
    _assert_matches(cs * a, tuple(x * fs for x in ra))
    _assert_matches(a + cs, (ra[0] + fs,) + ra[1:])
    _assert_matches(cs + a, (ra[0] + fs,) + ra[1:])
    _assert_matches(a - cs, (ra[0] - fs,) + ra[1:])
    _assert_matches(cs - a, (fs - ra[0],) + tuple(-x for x in ra[1:]))
    if a:
        inv = a.inverse()
        _assert_canonical(inv)
        assert _ref_mul(inv.coords, ra) == _ref_fold([1])
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@settings(max_examples=150, deadline=None)
@given(xs=_ELEMENTS, ys=_ELEMENTS, zs=st.lists(st.integers(-1, 1), max_size=2))
def test_hash_respects_equality(xs, ys, zs):
    """``a == b`` implies ``hash(a) == hash(b)``, on pairs that are equal by
    another route (a sum and difference, a scaled coordinate list, folded
    powers t^6 and above) and on pairs drawn small enough to collide."""
    a, b, c = CycloNum(xs), CycloNum(ys), CycloNum(zs)
    halves = CycloNum([Fraction(x, 2) for x in xs])
    folded = CycloNum(list(zs) + [0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1])
    pairs = [(a, (a + b) - b), (a, halves + halves), (a, b), (c, folded), (c, CycloNum(zs[:1]))]
    assert all(u == v for u, v in pairs[:2]) and c == folded
    for u, v in pairs:
        if u == v:
            assert hash(u) == hash(v)


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
        a, b = f.coerce(5), f.coerce(4)
        assert (a, b) == (5, 4)
        assert f.coerce(a + b) == 2
        assert f.coerce(a * b) == 6
        assert f.coerce(a - b) == 1
        assert f.coerce(b - a) == 6
        assert f.coerce(f.inv(a) * a) == f.one
        assert f.coerce(Fraction(-8)) == 6

    def test_char_three_rejected(self):
        with pytest.raises(ValueError, match="degenerates"):
            PrimeField(3)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(6)

    def test_two_is_allowed(self):
        f = PrimeField(2)
        assert f.coerce(3) == f.one


class TestTruncatedPadic:
    def test_arithmetic_and_valuation(self):
        r = TruncatedPadicRing(5, 3)
        assert r.coerce(-1) == 124
        assert r.coerce(126 * 3) == 3
        assert r.val(r.coerce(50)) == 2
        assert r.val(r.coerce(7)) == 0
        # val reduces first: 250 is 0 in Z/5^3, 255 is 5 times a unit
        assert r.val(255) == 1
        for zero in (r.zero, 125, -250):
            with pytest.raises(ZeroDivisionError):
                r.val(zero)

    def test_unit_inverse(self):
        r = TruncatedPadicRing(2, 5)
        a = r.coerce(7)
        assert r.coerce(a * r.inv(a)) == r.one
        assert r.inv(-1) == 31
        for non_unit in (4, 0, 32):
            with pytest.raises(ZeroDivisionError):
                r.inv(non_unit)

    def test_reduction_maps_are_ring_homs(self):
        rng = random.Random(99)
        r = TruncatedPadicRing(5, 4)
        for m in (1, 2, 3):
            low = TruncatedPadicRing(5, m)
            reduce = low.coerce

            for _ in range(40):
                a = r.coerce(rng.randrange(0, 5 ** 4))
                b = r.coerce(rng.randrange(0, 5 ** 4))
                assert reduce(r.coerce(a + b)) == low.coerce(reduce(a) + reduce(b))
                assert reduce(r.coerce(a * b)) == low.coerce(reduce(a) * reduce(b))
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
