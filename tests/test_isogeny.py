import random
from fractions import Fraction

import pytest

from closurelab import isogeny
from closurelab.coefficients import QQ, PrimeField


def _identity():
    """The degree-1 endomorphism x, y, z -> x, y, z."""
    ring = isogeny.integral_ring()
    return isogeny.GradedEndo(ring.var("x"), ring.var("y"), ring.var("z"))


class TestVerifyEndo:
    def test_identity_passes(self):
        assert isogeny.verify_endo(_identity()) is True

    def test_coordinate_squares_fail(self):
        ring = isogeny.integral_ring()
        e = isogeny.GradedEndo(ring.var("x") ** 2, ring.var("y") ** 2, ring.var("z") ** 2)
        assert isogeny.verify_endo(e) is False

    def test_doubling_passes(self):
        assert isogeny.verify_endo(isogeny.hesse_double()) is True

    def test_inhomogeneous_images_rejected(self):
        ring = isogeny.integral_ring()
        with pytest.raises(ValueError, match="degree|homogeneous"):
            isogeny.GradedEndo(ring.parse("x + 1"), ring.var("y"), ring.var("z"))

    def test_fractional_coefficients_rejected(self):
        ring = isogeny.integral_ring()
        with pytest.raises(ValueError, match="integer"):
            isogeny.GradedEndo(ring.parse("1/2*x"), ring.var("y"), ring.var("z"))


class TestHesseDouble:
    def test_degree_four(self):
        assert isogeny.hesse_double().degree == 4

    def test_images_homogeneous(self):
        e = isogeny.hesse_double()
        for img in e.images():
            assert img.is_homogeneous()
            assert img.degree() == 4

    def test_inflection_point_fixed(self):
        # inflections are 3-torsion and doubling acts there as negation
        e = isogeny.hesse_double()
        pt = isogeny.apply_endo_to_point(e, (Fraction(1), Fraction(-1), Fraction(0)), QQ)
        assert pt == (Fraction(1), Fraction(-1), Fraction(0))

    def test_rational_inflections_permuted_correctly(self):
        e = isogeny.hesse_double()
        field = QQ
        for pt in ((Fraction(1), Fraction(-1), Fraction(0)),
                   (Fraction(1), Fraction(0), Fraction(-1)),
                   (Fraction(0), Fraction(1), Fraction(-1))):
            doubled = isogeny.apply_endo_to_point(e, pt, field)
            oracle = isogeny.chord_tangent_double(pt, field)
            assert doubled == oracle


class TestChordTangentOracle:
    @pytest.mark.parametrize("p", [7, 13])
    def test_formula_matches_geometry_everywhere(self, p):
        e = isogeny.hesse_double()
        field = PrimeField(p)
        points = isogeny.curve_points(p)
        assert len(points) >= 3
        for pt in points:
            assert isogeny.apply_endo_to_point(e, pt, field) == isogeny.chord_tangent_double(pt, field)

    def test_oracle_rejects_points_off_curve(self):
        with pytest.raises(ValueError, match="not on the curve"):
            isogeny.chord_tangent_double((Fraction(1), Fraction(1), Fraction(1)), QQ)

    def test_doubling_identity_is_identity(self):
        # the group identity doubles to itself
        field = PrimeField(7)
        o = tuple(field.coerce(c) for c in (1, -1, 0))
        assert isogeny.chord_tangent_double(o, field) == isogeny.normalize_point(o, field)


class TestUnreducedCoordinates:
    """Over F_p coordinates are plain ints, and the sums and products the
    chord-tangent code forms are not reduced: every zero test and
    comparison must reduce first, so any representative of a point gives
    the same answers."""

    def test_every_representative_gives_the_same_answers(self):
        field = PrimeField(7)
        e = isogeny.hesse_double()
        rng = random.Random(5)
        for pt in isogeny.curve_points(7):
            lifted = tuple(c + 7 * rng.choice([-2, -1, 1, 2]) for c in pt)
            assert isogeny.on_curve(lifted, field)
            assert isogeny.normalize_point(lifted, field) == isogeny.normalize_point(pt, field)
            assert isogeny.proportional(
                isogeny._tangent_third(lifted, field), isogeny._tangent_third(pt, field), field
            )
            assert isogeny.apply_endo_to_point(e, lifted, field) == isogeny.apply_endo_to_point(e, pt, field)
            assert isogeny.chord_tangent_double(lifted, field) == isogeny.chord_tangent_double(pt, field)
        assert isogeny.normalize_point((7, 3, -2), field) == (0, 1, 4)

    def test_an_image_that_vanishes_mod_p_is_the_zero_vector(self):
        ring = isogeny.integral_ring()
        e = isogeny.GradedEndo(ring.parse("x + 6*y"), ring.parse("6*x + y"), ring.parse("7*z"))
        with pytest.raises(ValueError, match="endomorphism image"):
            isogeny.apply_endo_to_point(e, (1, 1, 3), PrimeField(7))


class TestCompose:
    def test_identity_neutral(self):
        e = isogeny.hesse_double()
        ident = _identity()
        assert isogeny.compose_endo(ident, e).images() == e.images()
        assert isogeny.compose_endo(e, ident).images() == e.images()

    def test_degree_multiplies(self):
        e = isogeny.hesse_double()
        m4 = isogeny.compose_endo(e, e)
        assert m4.degree == 16
        assert isogeny.verify_endo(m4)

    def test_associativity_on_sample(self):
        rng = random.Random(2)
        ring = isogeny.integral_ring()
        pool = [_identity(), isogeny.hesse_double()]
        # a third verified endomorphism: negation (swap x and y)
        neg = isogeny.GradedEndo(ring.var("y"), ring.var("x"), ring.var("z"))
        assert isogeny.verify_endo(neg)
        pool.append(neg)
        for _ in range(6):
            e1, e2, e3 = (pool[rng.randrange(len(pool))] for _ in range(3))
            left = isogeny.compose_endo(isogeny.compose_endo(e1, e2), e3)
            right = isogeny.compose_endo(e1, isogeny.compose_endo(e2, e3))
            assert left.images() == right.images()


class TestMembershipModPn:
    def test_n1(self):
        assert isogeny.membership_digits(isogeny.hesse_double(), 2, 1)[0] is True

    def test_n0_identity(self):
        assert isogeny.membership_digits(_identity(), 2, 0)[0] is True

    def test_n2_via_composition(self):
        e = isogeny.hesse_double()
        m4 = isogeny.compose_endo(e, e)
        ok, obstruction = isogeny.membership_digits(m4, 2, 2)
        assert ok and obstruction is None

    def test_degree_convention_enforced(self):
        with pytest.raises(isogeny.ConventionViolationError):
            isogeny.membership_digits(isogeny.hesse_double(), 2, 2)
        with pytest.raises(isogeny.ConventionViolationError):
            isogeny.membership_digits(_identity(), 2, 1)

    def test_reduction_mod_p_refuses_a_fraction(self):
        """Reduction goes through the prime field's ``coerce``: an integer
        coefficient reduces mod p, and x/2 raises instead of truncating to 0."""
        ring_z, ring_p = isogeny.integral_ring(), isogeny.fermat_ring(5)
        reduced = isogeny._to_prime_field(ring_z.parse("7*x - 3*y"), ring_p)
        assert reduced == ring_p.parse("2*x + 2*y")
        assert isogeny._lift_to_integers(reduced, ring_z) == ring_z.parse("2*x + 2*y")
        with pytest.raises(TypeError):
            isogeny._to_prime_field(ring_z.parse("1/2*x"), ring_p)
