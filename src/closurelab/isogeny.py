"""Graded ring endomorphisms of Z[x, y, z] / (x^3 + y^3 + z^3) lifting the
multiplication-by-2 map of the Hesse cubic, and the digit-lifted membership
m(z^2) in (p^n, m(x), m(y)).

The doubling formula is taken from the Hessian-curve literature but treated
as untrusted input: a candidate is accepted only after the symbolic
relation-preservation check and agreement with the classical chord-tangent
construction on actual curve points.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .charp import fermat_ring
from .coefficients import QQ, PrimeField
from .groebner import groebner, membership_with_basis, normal_form
from .polynomials import Poly, RingPresentation, format_poly


class CandidateRejectedError(RuntimeError):
    """No doubling candidate passed the verification gates."""


class ConventionViolationError(ValueError):
    """Endomorphism degree does not match p^(2n)."""


@lru_cache(maxsize=None)
def integral_ring() -> RingPresentation:
    """The ambient graded ring with integer coefficients (modelled over Q
    with integrality enforced on endomorphism images)."""
    return RingPresentation(QQ, ("z", "x", "y"), relations=["z^3 + x^3 + y^3"])


class GradedEndo(namedtuple("GradedEndo", "x_image y_image z_image")):
    """Images of (x, y, z): homogeneous integer-coefficient polynomials of a
    common degree whose cubes sum into the relation ideal."""

    __slots__ = ()

    def __new__(cls, x_image: Poly, y_image: Poly, z_image: Poly):
        self = super().__new__(cls, x_image, y_image, z_image)
        degs = {p.degree() for p in self.images()}
        if len(degs) != 1:
            raise ValueError("images must share one degree")
        for p in self.images():
            if not p.is_homogeneous():
                raise ValueError(f"image {format_poly(p)} is not homogeneous")
            for _, c in p.terms:
                if Fraction(c).denominator != 1:
                    raise ValueError("images must have integer coefficients")
        return self

    def images(self) -> tuple[Poly, Poly, Poly]:
        return (self.x_image, self.y_image, self.z_image)

    @property
    def degree(self) -> int:
        return int(self.x_image.degree())

    def apply(self, f: Poly) -> Poly:
        """Image of an element of the ambient ring under the endomorphism."""
        return f.substitute(
            {"x": self.x_image, "y": self.y_image, "z": self.z_image},
            self.x_image.ring,
        )

    def to_json(self) -> dict:
        return {
            "x": format_poly(self.x_image),
            "y": format_poly(self.y_image),
            "z": format_poly(self.z_image),
            "degree": self.degree,
        }


def verify_endo(e: GradedEndo) -> bool:
    """True iff e(x)^3 + e(y)^3 + e(z)^3 is an exact multiple of the relation."""
    ring = e.x_image.ring
    total = e.x_image ** 3 + e.y_image ** 3 + e.z_image ** 3
    return normal_form(total, ring.relations).is_zero()


def compose_endo(e1: GradedEndo, e2: GradedEndo) -> GradedEndo:
    """Substitution composition; degrees multiply."""
    images = {"x": e2.x_image, "y": e2.y_image, "z": e2.z_image}
    ring = e1.x_image.ring
    powers = {}  # the three substitutions share the powers of the images
    return GradedEndo(
        e1.x_image.substitute(images, ring, powers),
        e1.y_image.substitute(images, ring, powers),
        e1.z_image.substitute(images, ring, powers),
    )


# ---------------------------------------------------------------------------
# chord-tangent group law: the independent geometric oracle

IDENTITY_POINT = (Fraction(1), Fraction(-1), Fraction(0))


# Over F_p the coordinates are plain ints, and sums and products of them
# are unreduced: every zero test and comparison below goes through
# ``domain.coerce``, which reduces modulo p (and is the identity over QQ).


def _eval(poly: Poly, point, domain):
    acc = domain.zero
    ring = poly.ring
    names = ring.variables
    coords = {"x": point[0], "y": point[1], "z": point[2]}
    for m, c in poly.terms:
        term = domain.coerce(c)
        for name, e in zip(names, ring.order.exponents(m)):
            term = term * coords[name] ** e
        acc = acc + term
    return domain.coerce(acc)


def on_curve(point, domain) -> bool:
    x, y, z = point
    return not domain.coerce(x * x * x + y * y * y + z * z * z)


def normalize_point(point, domain):
    for c in point:
        if domain.coerce(c):
            inv = domain.inv(c)
            return tuple(domain.coerce(v * inv) for v in point)
    raise ValueError("the zero vector is not a projective point")


def proportional(pt1, pt2, domain) -> bool:
    return normalize_point(pt1, domain) == normalize_point(pt2, domain)


def _chord_third(a, b, domain):
    """Third intersection of the line through distinct points a, b with the
    Fermat cubic: parametrize s*a + t*b, the cubic form factors as
    s*t*(c21*s + c12*t)."""
    c21 = sum((ai * ai * bi for ai, bi in zip(a, b)), domain.zero) * 3
    c12 = sum((ai * bi * bi for ai, bi in zip(a, b)), domain.zero) * 3
    return tuple(c12 * ai - c21 * bi for ai, bi in zip(a, b))


def _tangent_third(p, domain):
    """Third intersection of the tangent line at p; equals p at inflections."""
    grad = tuple(domain.coerce(c * c) for c in p)  # (x^2, y^2, z^2), scalar 3 dropped
    i = next(k for k, g in enumerate(grad) if g)
    candidates = []
    for j in range(3):
        if j == i:
            continue
        v = [domain.zero, domain.zero, domain.zero]
        v[j] = grad[i]
        v[i] = -grad[j]
        candidates.append(tuple(v))
    q = next(v for v in candidates if any(v) and not proportional(v, p, domain))
    c12 = sum((pi * qi * qi for pi, qi in zip(p, q)), domain.zero) * 3
    c03 = sum((qi * qi * qi for qi in q), domain.zero)
    return tuple(c03 * pi - c12 * qi for pi, qi in zip(p, q))


def chord_tangent_double(point, domain):
    """[2]P by the classical construction: tangent at P meets the curve at
    P*P, and [2]P is the third intersection of the line through the identity
    (1 : -1 : 0) and P*P."""
    o = tuple(domain.coerce(c) for c in IDENTITY_POINT)
    p = tuple(domain.coerce(c) for c in point)
    if not on_curve(p, domain):
        raise ValueError(f"{point} is not on the curve")
    star = _tangent_third(p, domain)
    if proportional(star, o, domain):
        result = _tangent_third(o, domain)
    else:
        result = _chord_third(o, star, domain)
    return normalize_point(result, domain)


def apply_endo_to_point(e: GradedEndo, point, domain):
    imgs = tuple(_eval(img, point, domain) for img in (e.x_image, e.y_image, e.z_image))
    if not any(imgs):
        raise ValueError("endomorphism image of the point is the zero vector")
    return normalize_point(imgs, domain)


def curve_points(p: int) -> list:
    """All projective points of the Fermat cubic over F_p."""
    field = PrimeField(p)
    pts = []
    one = field.one
    # x = 1 charts, then x = 0, y = 1, then (0 : 0 : 1) never on the curve
    for y in range(p):
        for z in range(p):
            pt = (one, field.coerce(y), field.coerce(z))
            if on_curve(pt, field):
                pts.append(pt)
    for z in range(p):
        pt = (field.zero, one, field.coerce(z))
        if on_curve(pt, field):
            pts.append(pt)
    return pts


# ---------------------------------------------------------------------------
# the doubling endomorphism


def _doubling_candidates(ring: RingPresentation):
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    x3, y3, z3 = x ** 3, y ** 3, z ** 3
    primary = (y * (z3 - x3), x * (y3 - z3), z * (x3 - y3))
    # sign and coordinate-swap variants of the same projective formula; the
    # x <-> y swap composes with inversion, which fixes doubling up to sign
    swapped = (x * (z3 - y3), y * (x3 - z3), z * (y3 - x3))
    variants = []
    for base in (primary, swapped):
        for s in (1, -1):
            variants.append(tuple(img * s for img in base))
    return variants


@lru_cache(maxsize=None)
def hesse_double() -> GradedEndo:
    """Degree-4 lift of multiplication-by-2, pinned to the first candidate
    that preserves the relation and doubles actual points correctly."""
    ring = integral_ring()
    field = PrimeField(7)
    sample = curve_points(7)[:6]
    rejected = []
    for images in _doubling_candidates(ring):
        e = GradedEndo(*images)
        if not verify_endo(e):
            rejected.append("relation check")
            continue
        if all(normal_form(img, ring.relations).is_zero() for img in e.images()):
            rejected.append("images inside relation ideal")
            continue
        ok = True
        for pt in sample:
            if apply_endo_to_point(e, pt, field) != chord_tangent_double(pt, field):
                ok = False
                break
        if not ok:
            rejected.append("point-level doubling mismatch")
            continue
        return e
    raise CandidateRejectedError(f"all doubling candidates failed: {rejected}")


# ---------------------------------------------------------------------------
# membership modulo p^n via digit lifting


# integral_ring and fermat_ring share their variables and order, so packed
# monomials carry over between them as they are


def _to_prime_field(poly: Poly, ring_p: RingPresentation) -> Poly:
    """The reduction mod p of an integral ``poly``; a coefficient that is
    not an integer raises ``TypeError``."""
    coerce = ring_p.domain.coerce
    return Poly(ring_p, {m: coerce(c) for m, c in poly.terms})


def _lift_to_integers(poly: Poly, ring_z: RingPresentation) -> Poly:
    coerce = ring_z.domain.coerce
    return Poly(ring_z, {m: coerce(c) for m, c in poly.terms})


def membership_digits(e: GradedEndo, p: int, n: int):
    """Digit-by-digit test of e(z^2) in (p^n, e(x), e(y)) in the quotient.

    Returns (ok, obstructing_digit): membership modulo p is decided by a
    Groebner certificate, the certificate is lifted to integers, and the
    residual divided by p feeds the next digit.
    """
    if e.degree != p ** (2 * n):
        raise ConventionViolationError(
            f"endomorphism degree {e.degree} does not equal {p}^(2*{n})"
        )
    if n == 0:
        return True, None
    ring_z = integral_ring()
    ring_p = fermat_ring(p)
    (rel_z,) = ring_z.relations
    gens_z = [e.x_image, e.y_image]
    gens_p = [_to_prime_field(g, ring_p) for g in gens_z]
    basis = groebner(gens_p, ring_p, reps=True)
    residual = e.apply(ring_z.parse("z^2"))
    for digit in range(n):
        target_p = _to_prime_field(residual, ring_p)
        member, cert = membership_with_basis(target_p, basis)
        if not member:
            return False, digit
        cofs = [_lift_to_integers(c, ring_z) for c in cert.cofactors]
        consumed = cofs[0] * gens_z[0] + cofs[1] * gens_z[1] + cofs[2] * rel_z
        diff = residual - consumed
        next_terms = {}
        for m, c in diff.terms:
            f = Fraction(c)
            if f.numerator % p != 0:
                raise AssertionError("digit residual is not divisible by p")
            next_terms[m] = f / p
        residual = Poly(ring_z, next_terms)
    return True, None
