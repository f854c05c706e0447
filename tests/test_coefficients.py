import random
from fractions import Fraction

import pytest

from closurelab.coefficients import (
    CYCLO,
    CycloNum,
    PrimeField,
    TruncatedPadicRing,
)

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
        assert CycloNum.theta_power(1, 3) == CycloNum.zeta_power(1)
        assert CycloNum.theta_power(8, 3) == CycloNum.zeta_power(8)


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


class TestPrimeField:
    def test_basic_arithmetic(self):
        f = PrimeField(7)
        a, b = f.from_int(5), f.from_int(4)
        assert a + b == 2
        assert a * b == 6
        assert (a - b) == 1
        assert a.inverse() * a == f.one

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
        a = r.from_int(50)
        assert a.val() == 2
        assert r.from_int(7).val() == 0
        with pytest.raises(ZeroDivisionError):
            r.zero.val()

    def test_unit_inverse(self):
        r = TruncatedPadicRing(2, 5)
        a = r.from_int(7)
        assert a * a.inverse() == r.one
        with pytest.raises(ZeroDivisionError):
            r.from_int(4).inverse()

    def test_reduction_maps_are_ring_homs(self):
        rng = random.Random(99)
        r = TruncatedPadicRing(5, 4)
        for m in (1, 2, 3):
            for _ in range(40):
                a = r.from_int(rng.randrange(0, 5 ** 4))
                b = r.from_int(rng.randrange(0, 5 ** 4))
                assert (a + b).reduce_to(m) == a.reduce_to(m) + b.reduce_to(m)
                assert (a * b).reduce_to(m) == a.reduce_to(m) * b.reduce_to(m)
        assert r.one.reduce_to(2) == TruncatedPadicRing(5, 2).one

    def test_char_three_rejected(self):
        with pytest.raises(ValueError, match="degenerates"):
            TruncatedPadicRing(3, 2)


class TestResidueRingContract:
    """F_p is Z/p^1 with the field flag; elements of different residue rings
    never mix, in either operand order."""

    def test_mixed_rings_raise(self):
        a = PrimeField(5).from_int(2)
        b = TruncatedPadicRing(5, 2).from_int(13)
        for op in (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: u - v):
            with pytest.raises(ValueError, match="mixed residue rings"):
                op(a, b)
            with pytest.raises(ValueError, match="mixed residue rings"):
                op(b, a)

    def test_prime_field_is_not_z_mod_p(self):
        assert PrimeField(5) != TruncatedPadicRing(5, 1)
        assert PrimeField(5) == PrimeField(5)
        assert TruncatedPadicRing(5, 1) == TruncatedPadicRing(5, 1)
        assert PrimeField(5).from_int(2) != TruncatedPadicRing(5, 1).from_int(2)

    def test_field_flag(self):
        assert PrimeField(5).is_field
        assert not TruncatedPadicRing(5, 2).is_field
        assert not TruncatedPadicRing(5, 1).is_field
