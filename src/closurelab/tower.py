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

The tower is self-similar: every step has the same defining system, and the
weights 3^-n of every level scale to (1, 1, 1), so a monomial packs into the
same int at every level.  A_n over A_k is therefore A_(n-k) over A_0 with
the variables renamed, and the engine works by depth d = n - k: A_0 parses
the relation, which every level moves in under its names (``Poly.moved``);
``variable_images(0, 1)`` solves the defining system once; and the images
of depth d, their powers (``power_table``) and the probe's cofactors
(``_probe_cofactors``) are each formed once, in the lowest ring that holds
them, and moved up wherever they are read.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial

from .coefficients import CYCLO, THETA, CycloNum
from .groebner import (
    GroebnerBasis,
    MembershipCertificate,
    VerificationError,
    colon,
    groebner,
    normal_form,
)
from .polynomials import Poly, RingPresentation, cached_power, format_poly

# the three linear forms l_1, l_2, l_3 with l_1*l_2*l_3 = theta*u^3 + theta^2*v^3:
# coefficients (theta^(1/3), theta^(k/3)) for k = 2, 5, 8
_FORM_EXPONENTS = ((1, 2), (1, 5), (1, 8))


def level_variables(n: int) -> tuple[str, str, str]:
    if n == 0:
        return ("z", "x", "y")
    return (f"z{n}", f"x{n}", f"y{n}")


class TowerLevel(namedtuple("TowerLevel", "n ring")):
    """Level-n ring; ``variable_images(n - 1, n)`` embeds the level below."""

    __slots__ = ()

    def var(self, base: str) -> Poly:
        z, x, y = level_variables(self.n)
        return self.ring.var({"z": z, "x": x, "y": y}[base])


@lru_cache(maxsize=None)
def build_level(n: int) -> TowerLevel:
    """A_n: A_0 parses its relation, and every higher level moves it in
    under the level-n names (``Poly.moved``), since every level's weights
    scale to (1, 1, 1)."""
    if n < 0:
        raise ValueError("level index must be >= 0")
    names = level_variables(n)
    relation = build_level(0).ring.relations[0] if n else "z^3 + t^3*x^3 + t^6*y^3"
    ring = RingPresentation(CYCLO, names, (Fraction(1, 3 ** n),) * 3, relations=[relation])
    return TowerLevel(n, ring)


@lru_cache(maxsize=None)
def variable_images(k: int, n: int) -> dict:
    """Images of the level-k variables inside the level-n ring (k <= n).

    A_n over A_k is A_(n-k) over A_0 with the variables renamed, so for
    k > 0 the images are the depth-(n - k) ones, ``variable_images(0, n -
    k)``, moved into A_n under the level-k names.  For k = 0, A_1 solves
    the defining system and checks that the solve recovers it exactly, and
    from n = 2 on the images are A_1's, embedded into A_n."""
    if k > n:
        raise ValueError("can only embed lower levels into higher ones")
    ring = build_level(n).ring
    if k:
        images = variable_images(0, n - k)
        return {vk: images[v].moved(ring) for vk, v in zip(level_variables(k), level_variables(0))}
    if n == 0:
        return {v: ring.var(v) for v in level_variables(0)}
    if n >= 2:
        return {v: embed(img, 1, n) for v, img in variable_images(0, 1).items()}
    # invert [[zeta, zeta^2], [zeta, zeta^5]] acting on (x, y)
    a = CycloNum.zeta_power(_FORM_EXPONENTS[0][0])
    b = CycloNum.zeta_power(_FORM_EXPONENTS[0][1])
    c = CycloNum.zeta_power(_FORM_EXPONENTS[1][0])
    d = CycloNum.zeta_power(_FORM_EXPONENTS[1][1])
    det = a * d - b * c
    det_inv = det.inverse()
    z1, x1, y1 = (ring.var(v) for v in level_variables(1))
    xcube = x1 ** 3
    ycube = y1 ** 3
    x_img = xcube * (d * det_inv) - ycube * (b * det_inv)
    y_img = ycube * (a * det_inv) - xcube * (c * det_inv)
    # the defining system must be recovered exactly
    if xcube != x_img * a + y_img * b or ycube != x_img * c + y_img * d:
        raise VerificationError("embedding solve failed at level 1")
    return {"x": x_img, "y": y_img, "z": -(x1 * y1 * z1)}


@lru_cache(maxsize=None)
def power_table(d: int) -> dict:
    """Powers of the depth-d images, those of x, y, z in A_d, keyed
    (level-0 variable, exponent).  Since A_(k+d) over A_k is A_d over A_0
    renamed, this one table serves every level pair (k, k + d), and each
    power of a depth-d image is formed once per run.  ``image_power``
    fills it on demand through ``cached_power``: an odd power is the
    previous entry times the image, an even one the half entry squared, so
    the square behind each cube that ``variable_images`` forms stays for
    ``_probe_cofactors``.  The table only saves work: every certificate
    built from it is still re-expanded and checked."""
    return {}


def image_power(k: int, n: int, v: str, e: int) -> Poly:
    """The image of the level-k variable ``v`` in A_n, to the power e: the
    depth-(n - k) table's entry for the level-0 variable in v's place,
    moved into A_n."""
    d = n - k
    v = v[0]  # a level-k name is the level-0 name followed by k
    power = cached_power(power_table(d), v, variable_images(0, d)[v], e)
    return power.moved(build_level(n).ring)


def embed(f: Poly, from_level: int, to_level: int) -> Poly:
    """Image of a level-k element inside the level-n ring."""
    if from_level == to_level:
        return f
    power = partial(image_power, from_level, to_level)
    return f.substitute(target=build_level(to_level).ring, power=power)


@lru_cache(maxsize=None)
def relation_basis(n: int) -> tuple[Poly, ...]:
    """The level-n relation, its own Groebner basis."""
    return build_level(n).ring.relations


def valuation(f: Poly) -> Fraction | None:
    """Minimal weighted degree of the normal form modulo f's level
    relation; None (infinite) iff f is 0 in that level."""
    nf = normal_form(f, f.ring.relations)
    if nf.is_zero():
        return None
    return nf.min_degree()


# ---------------------------------------------------------------------------
# identity verification


IdentityCheck = namedtuple("IdentityCheck", "name passed detail")


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
    ring = build_level(n).ring
    _, xp, yp = level_variables(n - 1)
    images = variable_images(n - 1, n)
    X, Y = images[xp], images[yp]
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
    target = image_power(n - 1, n, xp, 3) * theta + image_power(n - 1, n, yp, 3) * (theta * theta)
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
    rel_image = embed(prev_rel, n - 1, n)
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
    return image_power(0, n, "z", 2)


def z2_not_in_xy(n: int) -> bool:
    """True iff z^2 stays outside (x, y) at level n, by Groebner normal form."""
    return not normal_form(z2_image(n), xy_image_basis(n)).is_zero()


# full_colon: (generator texts, min generator valuation) or None;
# rejected_variant: a dict at level 1 only, else None
ColonProbe = namedtuple(
    "ColonProbe",
    "n min_valuation witness witness_element recurrence_lhs recurrence_rhs"
    " full_colon rejected_variant",
)


@lru_cache(maxsize=None)
def _probe_cofactors(n: int):
    """Cofactors (u, v) with x_n * embed(z^2) = u*embed(x) + v*embed(y),
    built by descending through the tower one cube at a time.  Exact at every
    step, so the certificate is checkable by pure expansion.

    The descent at level n starts from y_n^2 z_n^2 and multiplies by the
    squares of the level-k images for k = n - 1, ..., 1, that is of depths
    1, ..., n - 1.  Its first n - 2 steps are level n - 1's descent one
    level up, so (u, v) is ``_probe_cofactors(n - 1)`` moved into A_n and
    then the one step with k = 1, by the depth-(n - 1) squares."""
    ring = build_level(n).ring
    theta13 = CycloNum.zeta_power(1)
    theta23 = CycloNum.zeta_power(2)
    theta53 = CycloNum.zeta_power(5)
    if n == 1:
        z1, _, y1 = (ring.var(v) for v in level_variables(1))
        return y1 * y1 * z1 * z1 * theta13, y1 * y1 * z1 * z1 * theta23
    u, v = (f.moved(ring) for f in _probe_cofactors(n - 1))
    _, x1, y1 = level_variables(1)
    # the squares were formed on the way to the cubes of variable_images
    uy = u * image_power(1, n, y1, 2)
    vx = v * image_power(1, n, x1, 2)
    return (uy + vx) * theta13, uy * theta23 + vx * theta53


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

    val_x = valuation(xn)
    zp = variable_images(n - 1, n)[level_variables(n - 1)[0]]
    lhs = valuation(zp)
    rhs = (val_x, valuation(level.var("y")), valuation(level.var("z")))
    if lhs != sum(rhs):
        raise VerificationError(f"valuation recurrence fails at level {n}")

    full = None
    if n <= full_colon_max_level:
        gens = colon(xy_image_basis(n), z2_image(n))
        # the reduced basis contains relation multiples, which are 0 in A_n
        vals = [valuation(g) for g in gens]
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


def trace_retraction(s: Poly) -> Poly:
    """Group-average projection pi(s) = (1/9) * sum over the (Z/3)^2 action
    x1 -> theta^a x1, y1 -> theta^b y1, z1 -> theta^(-a-b) z1.

    Averaging a monomial x1^i y1^j z1^k multiplies it by the full character
    sum, which is 1 when i = j = k mod 3 and 0 otherwise; pi therefore keeps
    exactly the invariant monomials.  The result is returned in canonical
    level-1 form after checking it rewrites over the embedded copy of A.
    """
    level = build_level(1)
    if not s.ring.compatible(level.ring):
        raise ValueError("element does not live in the level-1 ring")
    nf = normal_form(s, relation_basis(1))
    kept = {}
    exponents = level.ring.order.exponents
    for m, c in nf.terms:
        k, i, j = exponents(m)  # variables are ordered (z1, x1, y1)
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


@lru_cache(maxsize=None)
def _retraction_factors():
    """-z and the linear forms l1, l2, l3 in A, built once, with one table
    of their powers keyed (index, exponent) for ``cached_power``."""
    ring0 = build_level(0).ring
    x0, y0, z0 = ring0.var("x"), ring0.var("y"), ring0.var("z")
    return (-z0, *_linear_forms(x0, y0)), {}


def retraction_preimage(pi: Poly) -> Poly:
    """Element of A whose embedding equals pi modulo the relation.

    Each invariant monomial x1^i y1^j z1^k (i = j = k = r mod 3) factors as
    (x1 y1 z1)^r times cubes; (x1 y1 z1) is -z and the cubes are the images
    of the defining linear forms, so its preimage is (-z)^r l1^((i-r)/3)
    l2^((j-r)/3) l3^((k-r)/3), each power read from one table.
    """
    ring0 = build_level(0).ring
    factors, powers = _retraction_factors()
    one = ring0.one()
    parts = []
    exponents = pi.ring.order.exponents
    for m, c in pi.terms:
        k, i, j = exponents(m)
        r = i % 3
        if not ((i - k) % 3 == 0 and (j - k) % 3 == 0):
            raise NotInImageError(f"monomial {(k, i, j)} is not invariant")
        term = one
        for index, e in enumerate((r, (i - r) // 3, (j - r) // 3, (k - r) // 3)):
            if e:
                term = term * cached_power(powers, index, factors[index], e)
        parts.append((c, 0, term))
    return Poly.linear_combination(ring0, parts)


# ---------------------------------------------------------------------------
# the contradiction bound


# replay: lower bounds for v(z_(N-1)), ..., v(z_0)
ContradictionBound = namedtuple("ContradictionBound", "n delta vz replay")


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
    # ratio >= -1/2 is exact and int() truncates it toward 0, so this is
    # the least N >= 1 above ratio: (2N+1) * delta > v(z) and no smaller N
    n = max(1, int(ratio) + 1)
    bounds = []
    current = 3 * delta
    for _ in range(n):
        bounds.append(current)
        current = current + 2 * delta
    if bounds[-1] != (2 * n + 1) * delta or bounds[-1] <= vz:
        raise VerificationError("contradiction bound replay is inconsistent")
    return ContradictionBound(n=n, delta=delta, vz=vz, replay=tuple(bounds))
