"""The cube-root extension tower over the twisted Fermat cubic.

Level n is the ring A_n = Q(zeta_9)[z_n, x_n, y_n] / (z_n^3 + theta*x_n^3 +
theta^2*y_n^3) with every variable of weight 3^-n.  Level n-1 embeds into
level n through the defining system

    x_n^3 = theta^(1/3) x_(n-1) + theta^(2/3) y_(n-1)
    y_n^3 = theta^(1/3) x_(n-1) + theta^(5/3) y_(n-1)
    z_(n-1) = -x_n y_n z_n

where the images of x_(n-1), y_(n-1) come from inverting the 2x2 linear
system over Q(zeta_9).  Levels are materialized independently and embeddings
compose on demand, so every Groebner computation stays in three variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coefficients import CYCLO, THETA, CycloNum
from .groebner import (
    GroebnerBasis,
    MembershipCertificate,
    VerificationError,
    colon,
    groebner,
    normal_form,
)
from .polynomials import Poly, RingPresentation, format_poly

# the three linear forms l_1, l_2, l_3 with l_1*l_2*l_3 = theta*u^3 + theta^2*v^3:
# coefficients (theta^(1/3), theta^(k/3)) for k = 2, 5, 8
_FORM_EXPONENTS = ((1, 2), (1, 5), (1, 8))


def level_variables(n: int) -> tuple[str, str, str]:
    if n == 0:
        return ("z", "x", "y")
    return (f"z{n}", f"x{n}", f"y{n}")


@dataclass(frozen=True)
class TowerLevel:
    """Level-n ring with the images of the previous level's variables."""

    n: int
    ring: RingPresentation
    embed_prev: dict | None  # previous-level variable name -> Poly here

    def var(self, base: str) -> Poly:
        z, x, y = level_variables(self.n)
        return self.ring.var({"z": z, "x": x, "y": y}[base])


@lru_cache(maxsize=None)
def build_level(n: int) -> TowerLevel:
    """Construct A_n; for n >= 1 also solve the embedding of A_(n-1)."""
    if n < 0:
        raise ValueError("level index must be >= 0")
    zv, xv, yv = level_variables(n)
    weight = Fraction(1, 3 ** n)
    ring = RingPresentation(
        CYCLO,
        (zv, xv, yv),
        (weight,) * 3,
        relations=[f"{zv}^3 + t^3*{xv}^3 + t^6*{yv}^3"],
    )
    if n == 0:
        return TowerLevel(0, ring, None)
    # invert [[zeta, zeta^2], [zeta, zeta^5]] acting on (x_(n-1), y_(n-1))
    a = CycloNum.zeta_power(_FORM_EXPONENTS[0][0])
    b = CycloNum.zeta_power(_FORM_EXPONENTS[0][1])
    c = CycloNum.zeta_power(_FORM_EXPONENTS[1][0])
    d = CycloNum.zeta_power(_FORM_EXPONENTS[1][1])
    det = a * d - b * c
    det_inv = det.inverse()
    xcube = ring.var(xv) ** 3
    ycube = ring.var(yv) ** 3
    x_img = xcube * (d * det_inv) - ycube * (b * det_inv)
    y_img = ycube * (a * det_inv) - xcube * (c * det_inv)
    z_img = -(ring.var(xv) * ring.var(yv) * ring.var(zv))
    zp, xp, yp = level_variables(n - 1)
    embed = {xp: x_img, yp: y_img, zp: z_img}
    # the defining system must be recovered exactly
    if ring.var(xv) ** 3 != x_img * a + y_img * b or ring.var(yv) ** 3 != x_img * c + y_img * d:
        raise VerificationError(f"embedding solve failed at level {n}")
    return TowerLevel(n, ring, embed)


@lru_cache(maxsize=None)
def variable_images(k: int, n: int) -> dict:
    """Images of the level-k variables inside the level-n ring (k <= n)."""
    if k > n:
        raise ValueError("can only embed lower levels into higher ones")
    level_n = build_level(n)
    if k == n:
        return {v: level_n.ring.var(v) for v in level_variables(n)}
    one_step = build_level(k + 1).embed_prev
    if k + 1 == n:
        return dict(one_step)
    higher = variable_images(k + 1, n)
    return {v: img.substitute(higher, level_n.ring) for v, img in one_step.items()}


def embed(f: Poly, from_level: int, to_level: int) -> Poly:
    """Image of a level-k element inside the level-n ring."""
    if from_level == to_level:
        return f
    images = variable_images(from_level, to_level)
    return f.substitute(images, build_level(to_level).ring)


@lru_cache(maxsize=None)
def relation_basis(n: int) -> GroebnerBasis:
    return groebner([], build_level(n).ring)


def valuation(f: Poly, level: TowerLevel) -> Fraction | None:
    """Minimal weighted degree of the normal form; None (infinite) iff f is 0
    in A_n."""
    nf = normal_form(f, relation_basis(level.n))
    if nf.is_zero():
        return None
    return nf.min_degree()


# ---------------------------------------------------------------------------
# identity verification


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str


def _linear_forms(x: Poly, y: Poly) -> list[Poly]:
    forms = []
    for ex, ey in _FORM_EXPONENTS:
        forms.append(x * CycloNum.zeta_power(ex) + y * CycloNum.zeta_power(ey))
    return forms


def verify_level(n: int) -> list[IdentityCheck]:
    """The three exact checks behind 'A_(n-1) embeds into A_n':

    (i)   theta*l1 + theta^2*l2 + l3 = 0 for the defining linear forms,
    (ii)  l1*l2*l3 = theta*X^3 + theta^2*Y^3, equivalently
          (x_n y_n z_n)^3 + Z^3 reduces to zero,
    (iii) the image of the level-(n-1) relation reduces to zero.
    """
    if n < 1:
        raise ValueError("verify_level needs n >= 1")
    level = build_level(n)
    ring = level.ring
    zp, xp, yp = level_variables(n - 1)
    X, Y, Z = level.embed_prev[xp], level.embed_prev[yp], level.embed_prev[zp]
    theta = THETA
    checks = []

    l1, l2, l3 = _linear_forms(X, Y)
    combo = l1 * theta + l2 * (theta * theta) + l3
    checks.append(
        IdentityCheck(
            f"level{n}/linear_combination_vanishes",
            combo.is_zero(),
            "theta*l1 + theta^2*l2 + l3 expands to the zero polynomial",
        )
    )

    product = l1 * l2 * l3
    target = X ** 3 * theta + Y ** 3 * (theta * theta)
    exact = product == target
    zv, xv, yv = (ring.var(v) for v in level_variables(n))
    # Z = -x_n y_n z_n exactly, so (x_n y_n z_n)^3 = -Z^3; reducing the
    # difference against the level relation realizes (x_n y_n z_n)^3 = -Z_(n-1)^3
    cube_diff = normal_form((xv * yv * zv) ** 3 - target, relation_basis(n))
    checks.append(
        IdentityCheck(
            f"level{n}/cube_product_identity",
            exact and cube_diff.is_zero(),
            "l1*l2*l3 equals theta*X^3 + theta^2*Y^3 exactly and "
            "(x_n y_n z_n)^3 is congruent to it modulo the relation",
        )
    )

    prev_rel = build_level(n - 1).ring.relations[0]
    rel_image = prev_rel.substitute(variable_images(n - 1, n), ring)
    reduced = normal_form(rel_image, relation_basis(n))
    checks.append(
        IdentityCheck(
            f"level{n}/relation_image_reduces_to_zero",
            reduced.is_zero(),
            "the embedded previous relation reduces to 0 modulo the level relation",
        )
    )

    failed = [c for c in checks if not c.passed]
    if failed:
        raise VerificationError(f"level {n} identity failed: {failed[0].name}")
    return checks


# ---------------------------------------------------------------------------
# colon elements of low valuation


@lru_cache(maxsize=None)
def xy_image_basis(n: int) -> GroebnerBasis:
    """Groebner basis of (embed(x), embed(y)) + relation inside A_n."""
    level = build_level(n)
    images = variable_images(0, n)
    return groebner([images["x"], images["y"]], level.ring)


def z2_image(n: int) -> Poly:
    return embed(build_level(0).ring.parse("z^2"), 0, n)


def z2_not_in_xy(n: int) -> bool:
    """True iff z^2 stays outside (x, y) at level n, by Groebner normal form."""
    return not normal_form(z2_image(n), xy_image_basis(n)).is_zero()


@dataclass(frozen=True)
class ColonProbe:
    n: int
    min_valuation: Fraction
    witness: MembershipCertificate
    witness_element: Poly
    recurrence_lhs: Fraction
    recurrence_rhs: tuple[Fraction, Fraction, Fraction]
    full_colon: tuple | None  # (generator texts, min generator valuation)
    rejected_variant: dict | None  # level 1 only


def _probe_cofactors(n: int):
    """Cofactors (u, v) with x_n * embed(z^2) = u*embed(x) + v*embed(y),
    built by descending through the tower one cube at a time.  Exact at every
    step, so the certificate is checkable by pure expansion."""
    level = build_level(n)
    ring = level.ring
    theta13 = CycloNum.zeta_power(1)
    theta23 = CycloNum.zeta_power(2)
    theta53 = CycloNum.zeta_power(5)
    zn, xn, yn = (ring.var(v) for v in level_variables(n))
    u = yn * yn * zn * zn * theta13
    v = yn * yn * zn * zn * theta23
    for k in range(n - 1, 0, -1):
        imgs = variable_images(k, n)
        zk, xk, yk = level_variables(k)
        Xk, Yk = imgs[xk], imgs[yk]
        Xk2, Yk2 = Xk * Xk, Yk * Yk
        u, v = (
            (u * Yk2 + v * Xk2) * theta13,
            u * Yk2 * theta23 + v * Xk2 * theta53,
        )
    return u, v


def colon_probe(n: int, full_colon_max_level: int = 2) -> ColonProbe:
    """Certify x_n * z^2 in (x, y) inside A_n and report the witness valuation
    3^-n; for small n also compute the whole colon ideal ((x, y) : z^2)."""
    if n < 1:
        raise ValueError("colon_probe needs n >= 1")
    level = build_level(n)
    ring = level.ring
    images = variable_images(0, n)
    X0, Y0 = images["x"], images["y"]
    rel = ring.relations[0]
    xn = level.var("x")
    target = xn * z2_image(n)
    u, v = _probe_cofactors(n)
    witness = MembershipCertificate(target, (X0, Y0, rel), (u, v, ring.zero()))
    witness.check()

    val_x = valuation(xn, level)
    zp = variable_images(n - 1, n)[level_variables(n - 1)[0]]
    lhs = valuation(zp, level)
    rhs = (
        val_x,
        valuation(level.var("y"), level),
        valuation(level.var("z"), level),
    )
    if lhs != sum(rhs):
        raise VerificationError(f"valuation recurrence fails at level {n}")

    full = None
    if n <= full_colon_max_level:
        gens = colon([X0, Y0], z2_image(n), ring)
        # the reduced basis contains relation multiples, which are 0 in A_n
        vals = [valuation(g, level) for g in gens]
        min_val = min((v for v in vals if v is not None), default=None)
        full = (tuple(format_poly(g) for g in gens), min_val)

    rejected = None
    if n == 1:
        # the z1-bearing cofactor is the one that expands; the x1^2 variant
        # (same linear form times y1^2*x1^2) does not reproduce the target
        x1, y1 = level.var("x"), level.var("y")
        bad_u = y1 * y1 * x1 * x1 * CycloNum.zeta_power(1)
        bad_v = y1 * y1 * x1 * x1 * CycloNum.zeta_power(2)
        bad = MembershipCertificate(target, (X0, Y0, rel), (bad_u, bad_v, ring.zero()))
        rejected = {
            "candidate_cofactor_factor": "y1^2*x1^2",
            "expands_to_target": bad.verify(),
            "accepted_cofactor_factor": "y1^2*z1^2",
        }

    return ColonProbe(
        n=n,
        min_valuation=val_x,
        witness=witness,
        witness_element=xn,
        recurrence_lhs=lhs,
        recurrence_rhs=rhs,
        full_colon=full,
        rejected_variant=rejected,
    )


# ---------------------------------------------------------------------------
# splinter retraction A_1 -> A


class NotInImageError(RuntimeError):
    """The averaged element failed to rewrite over the embedded subring."""


def trace_retraction(n: int, s: Poly) -> Poly:
    """Group-average projection pi(s) = (1/9) * sum over the (Z/3)^2 action
    x1 -> theta^a x1, y1 -> theta^b y1, z1 -> theta^(-a-b) z1.

    Averaging a monomial x1^i y1^j z1^k multiplies it by the full character
    sum, which is 1 when i = j = k mod 3 and 0 otherwise; pi therefore keeps
    exactly the invariant monomials.  The result is returned in canonical
    level-1 form after checking it rewrites over the embedded copy of A.
    """
    if n != 1:
        raise ValueError("the retraction is implemented for level 1 only")
    level = build_level(1)
    if not s.ring.compatible(level.ring):
        raise ValueError("element does not live in the level-1 ring")
    nf = normal_form(s, relation_basis(1))
    kept = {}
    for m, c in nf.terms:
        k, i, j = m  # variables are ordered (z1, x1, y1)
        if (i - k) % 3 == 0 and (j - k) % 3 == 0:
            kept[m] = c
    pi = Poly(level.ring, kept)
    preimage = retraction_preimage(pi)
    back = embed(preimage, 0, 1)
    if not normal_form(back - pi, relation_basis(1)).is_zero():
        raise NotInImageError(
            f"pi({format_poly(s)}) = {format_poly(pi)} did not rewrite over the embedded subring"
        )
    return pi


def retraction_preimage(pi: Poly) -> Poly:
    """Element of A whose embedding equals pi modulo the relation.

    Each invariant monomial x1^i y1^j z1^k (i = j = k = r mod 3) factors as
    (x1 y1 z1)^r times cubes; (x1 y1 z1) is -z and the cubes are the images
    of the defining linear forms.
    """
    base = build_level(0)
    ring0 = base.ring
    x0, y0, z0 = ring0.var("x"), ring0.var("y"), ring0.var("z")
    forms = _linear_forms(x0, y0)
    out = ring0.zero()
    for m, c in pi.terms:
        k, i, j = m
        r = i % 3
        if not ((i - k) % 3 == 0 and (j - k) % 3 == 0):
            raise NotInImageError(f"monomial {m} is not invariant")
        term = ring0.const(c) * (-z0) ** r
        term = term * forms[0] ** ((i - r) // 3)
        term = term * forms[1] ** ((j - r) // 3)
        term = term * forms[2] ** ((k - r) // 3)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# the contradiction bound


@dataclass(frozen=True)
class ContradictionBound:
    n: int
    delta: Fraction
    vz: Fraction
    replay: tuple[Fraction, ...]  # lower bounds for v(z_(N-1)), ..., v(z_0)


def contradiction_bound(delta: Fraction, vz: Fraction) -> ContradictionBound:
    """Smallest N >= 1 with (2N+1) * delta > v(z), with the recurrence replay.

    If every v(x_k), v(y_k), v(z_k) were >= delta, the relation
    v(z_(k-1)) = v(x_k) + v(y_k) + v(z_k) would force
    v(z_(N-j)) >= (2j+1) * delta, and after N steps v(z) > (2N+1) * delta.
    """
    delta = Fraction(delta)
    vz = Fraction(vz)
    if delta <= 0 or vz <= 0:
        raise ValueError("delta and v(z) must be positive")
    ratio = (vz / delta - 1) / 2
    n = max(1, int(ratio) + 1)
    # exact boundary: (2N+1) delta must exceed vz strictly
    while (2 * n + 1) * delta <= vz:
        n += 1
    while n > 1 and (2 * (n - 1) + 1) * delta > vz:
        n -= 1
    bounds = []
    current = 3 * delta
    for _ in range(n):
        bounds.append(current)
        current = current + 2 * delta
    if bounds[-1] != (2 * n + 1) * delta or bounds[-1] <= vz:
        raise VerificationError("contradiction bound replay is inconsistent")
    return ContradictionBound(n=n, delta=delta, vz=vz, replay=tuple(bounds))
