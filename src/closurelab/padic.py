"""Successive approximation on the truncated model T_N =
(Z/p^N)[x, y, z] / (x^3 + y^3 + z^3).

Elements of T_N are kept in canonical form: the normal form modulo the
monic relation, whose leading monomial is z^3, so every z-degree is <= 2
and coefficientwise p-divisibility statements are well defined.  Beyond
that division, coefficient arithmetic never needs Groebner bases over
Z/p^N: every digit is solved over F_p and lifted, mirroring the way the
correction argument itself proceeds one p-power at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .charp import fermat_ring
from .coefficients import TruncatedPadicRing
from .groebner import colon, groebner, membership_with_basis, normal_form
from .polynomials import Poly, RingPresentation, format_poly


class OracleInconsistencyError(ValueError):
    """A supplied step representation fails to expand exactly."""


class LiftingObstructionError(ValueError):
    """A digit equation has no solution: the input is outside (x, y) + p^N."""


class TruncatedModel:
    """T_N with canonical representatives and the F_p companion machinery."""

    def __init__(self, p: int, precision: int):
        self.p = p
        self.precision = precision
        self.domain = TruncatedPadicRing(p, precision)
        self.ring = RingPresentation(
            self.domain, ("z", "x", "y"), relations=["z^3 + x^3 + y^3"]
        )
        self.field_ring = fermat_ring(p)
        self.field_relation_basis = groebner([], self.field_ring)
        self.field_y_basis = groebner([self.field_ring.parse("y")], self.field_ring)
        self.x = self.canon(self.ring.var("x"))
        self.y = self.canon(self.ring.var("y"))

    def canon(self, f: Poly) -> Poly:
        """Normal form modulo the relation z^3 + x^3 + y^3: unique because a
        single monic polynomial is a Groebner basis over any coefficient
        ring, and every z-exponent of it is <= 2."""
        return normal_form(f, self.ring.relations)

    def parse(self, text: str) -> Poly:
        return self.canon(self.ring.parse(text))

    def equal(self, f: Poly, g: Poly) -> bool:
        return self.canon(f - g).is_zero()

    def digit_slice(self, f: Poly, j: int) -> Poly:
        """(f / p^j) mod p as an F_p polynomial; every coefficient of f must
        be divisible by p^j."""
        pj = self.p ** j
        out = {}
        dom = self.field_ring.domain
        for m, c in f.terms:
            if c.residue % pj != 0:
                raise AssertionError(f"coefficient {c.residue} not divisible by {self.p}^{j}")
            out[m] = dom.from_int(c.residue // pj)
        return Poly(self.field_ring, out)

    def from_field(self, f: Poly) -> Poly:
        return Poly(self.ring, {m: self.domain.from_int(c.residue) for m, c in f.terms})

    def coeff_val_floor(self, f: Poly) -> int:
        """Largest k with p^k dividing every coefficient (precision if f = 0)."""
        return min((c.val() for _, c in f.terms), default=self.precision)

    def random_poly(self, rng: random.Random, max_degree: int = 3, terms: int = 3) -> Poly:
        picked = {}
        for _ in range(terms):
            m = (rng.randrange(0, 3), rng.randrange(0, max_degree + 1), rng.randrange(0, max_degree + 1))
            picked[m] = self.domain.from_int(rng.randrange(0, self.p ** self.precision))
        return self.canon(Poly(self.ring, picked))


@lru_cache(maxsize=None)
def model(p: int, precision: int) -> TruncatedModel:
    return TruncatedModel(p, precision)


# ---------------------------------------------------------------------------
# the regular-sequence hypothesis, checked on the truncated model


@lru_cache(maxsize=None)
def regular_sequence_check(p: int, precision: int) -> bool:
    """x is a nonzerodivisor on T/(p) and y on T/(p, x), via colon ideals
    over F_p.  p = 3 and precision < 1 are rejected by the model before any
    arithmetic."""
    m = model(p, precision)
    ring, rel_basis = m.field_ring, m.field_relation_basis
    x, y = ring.parse("x"), ring.parse("y")
    # ((0) : x) must be (0) in the quotient
    for g in colon([], x, ring):
        if not normal_form(g, rel_basis).is_zero():
            return False
    # ((x) : y) must stay inside (x)
    x_basis = groebner([x], ring)
    for g in colon([x], y, ring):
        if not normal_form(g, x_basis).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class ApproxStep:
    a: Poly
    b: Poly
    c: Poly


@dataclass(frozen=True)
class ApproxTrace:
    p: int
    precision: int
    alpha: Poly
    steps: tuple[ApproxStep, ...]

    def partial_sums(self, k: int) -> tuple[Poly, Poly]:
        m = model(self.p, self.precision)
        A = m.ring.zero()
        B = m.ring.zero()
        for s in self.steps[:k]:
            A = A + s.a
            B = B + s.b
        return m.canon(A), m.canon(B)

    @property
    def A(self) -> Poly:
        return self.partial_sums(len(self.steps))[0]

    @property
    def B(self) -> Poly:
        return self.partial_sums(len(self.steps))[1]

    def to_json(self) -> dict:
        m = model(self.p, self.precision)
        return {
            "p": self.p,
            "precision": self.precision,
            "alpha": format_poly(self.alpha),
            "steps": [
                {
                    "i": i + 1,
                    "a": format_poly(s.a),
                    "b": format_poly(s.b),
                    "c": format_poly(s.c),
                    "min_p_valuation_ab": min(m.coeff_val_floor(s.a), m.coeff_val_floor(s.b)),
                }
                for i, s in enumerate(self.steps)
            ],
            "A": format_poly(self.A),
            "B": format_poly(self.B),
        }


# ---------------------------------------------------------------------------
# step oracles


def honest_oracle(m: TruncatedModel):
    """Splits the canonical form of the residual over (x, y) directly; valid
    whenever every residual monomial is divisible by x or y."""

    def step(i: int, residual: Poly):
        a_terms, b_terms = {}, {}
        for mono, c in residual.terms:
            z, x, y = mono
            if x > 0:
                a_terms[(z, x - 1, y)] = c
            elif y > 0:
                b_terms[(z, x, y - 1)] = c
            else:
                raise LiftingObstructionError(
                    f"residual monomial z^{z} is outside (x, y): {format_poly(residual)}"
                )
        pw = m.domain.from_int(m.p ** (i - 1))
        a = Poly(m.ring, a_terms) * pw
        b = Poly(m.ring, b_terms) * pw
        return m.canon(a), m.canon(b), m.ring.zero()

    return step


def adversarial_oracle(m: TruncatedModel, seed: int):
    """Wraps the honest split with seeded Koszul-syzygy noise and p-power
    junk pushed into the carry term: the returned (a, b) are deliberately
    not p^(i-1)-divisible."""
    rng = random.Random(seed)
    honest = honest_oracle(m)

    def step(i: int, residual: Poly):
        a, b, c = honest(i, residual)
        s = m.random_poly(rng, max_degree=2, terms=2)
        sigma = s * m.domain.from_int(m.p)  # spurious syzygy multiple of p
        a = m.canon(a + sigma * m.y)
        b = m.canon(b - sigma * m.x)
        u = m.random_poly(rng, max_degree=1, terms=1)
        v = m.random_poly(rng, max_degree=1, terms=1)
        pi = m.domain.from_int(m.p ** i)
        a = m.canon(a + u * pi)
        b = m.canon(b + v * pi)
        c = m.canon(c - u * m.x - v * m.y)
        return a, b, c

    return step


def scripted_oracle(m: TruncatedModel, steps: list):
    """Replays explicit (a, b, c) polynomial texts from a config document."""
    parsed = [(m.parse(s["a"]), m.parse(s["b"]), m.parse(s["c"])) for s in steps]

    def step(i: int, residual: Poly):
        if i - 1 >= len(parsed):
            raise OracleInconsistencyError(f"scripted oracle has no step {i}")
        return parsed[i - 1]

    return step


# ---------------------------------------------------------------------------
# the algorithm


def _koszul_correct(m: TruncatedModel, i: int, a: Poly, b: Poly):
    """Make (a, b) coefficientwise divisible by p^(i-1) without changing
    a*x + b*y modulo the relation.

    One digit at a time: (a, b)/p^j is a syzygy of (x, y) over F_p, hence a
    multiple t * (y, -x) of the Koszul syzygy; subtracting its lift raises
    the divisibility by one power of p.
    """
    xf = m.field_ring.parse("x")
    for j in range(i - 1):
        abar = m.digit_slice(a, j)
        bbar = m.digit_slice(b, j)
        if abar.is_zero() and bbar.is_zero():
            continue
        member, cert = membership_with_basis(abar, m.field_y_basis)
        if not member:
            raise LiftingObstructionError(
                f"digit {j} of step {i}: {format_poly(abar)} is not a multiple of y modulo the relation"
            )
        t, w_a = cert.cofactors  # abar = t*y + w_a*rel exactly
        # the solved t must reproduce b as well: bbar + t*x is a relation multiple
        check, quots = normal_form(bbar + t * xf, m.field_relation_basis, with_quotients=True)
        if not check.is_zero():
            raise LiftingObstructionError(
                f"digit {j} of step {i}: Koszul syzygy does not reproduce b"
            )
        w_b = -quots[0]  # bbar + t*x + w_b*rel = 0 exactly
        pj = m.domain.from_int(m.p ** j)
        a = m.canon(a - (m.from_field(t) * m.ring.var("y") + m.from_field(w_a) * m.ring.relations[0]) * pj)
        b = m.canon(b + (m.from_field(t) * m.ring.var("x") + m.from_field(w_b) * m.ring.relations[0]) * pj)
        if min(m.coeff_val_floor(a), m.coeff_val_floor(b)) < j + 1:
            raise AssertionError(f"digit correction failed to reach p^{j + 1}")
    return a, b


def successive_approx(alpha: Poly, step_oracle, precision: int) -> ApproxTrace:
    """Build the coefficient stream alpha = (a_1 + a_2 + ...)x + (b_1 + ...)y
    + c_N p^N with (a_i, b_i) divisible by p^(i-1) for i >= 2.

    The oracle supplies, for the residual c_(i-1) p^(i-1), some representation
    c_(i-1) p^(i-1) = a x + b y + c p^i; its raw (a, b) are corrected through
    the Koszul syzygy before being recorded.
    """
    ring = alpha.ring
    p = ring.domain.p
    if not regular_sequence_check(p, precision):
        raise LiftingObstructionError(f"(p, x, y) is not a regular sequence on T for p = {p}")
    m = model(p, precision)
    alpha = m.canon(alpha)
    residual = alpha
    steps = []
    for i in range(1, precision + 1):
        a, b, c = step_oracle(i, residual)
        a, b, c = m.canon(a), m.canon(b), m.canon(c)
        supplied = m.canon(a * m.x + b * m.y + c * m.domain.from_int(p ** i))
        expected = m.canon(residual * m.domain.from_int(p ** (i - 1)))
        if supplied != expected:
            raise OracleInconsistencyError(
                f"step {i}: oracle representation expands to {format_poly(supplied)}, "
                f"expected {format_poly(expected)}"
            )
        if i >= 2:
            a, b = _koszul_correct(m, i, a, b)
        steps.append(ApproxStep(a=a, b=b, c=c))
        residual = c
    trace = ApproxTrace(p=p, precision=precision, alpha=alpha, steps=tuple(steps))
    if not verify_trace(trace, alpha):
        raise AssertionError("constructed trace fails its own invariants")
    return trace


def verify_trace(trace: ApproxTrace, alpha: Poly) -> bool:
    """Re-check both trace invariants by exact expansion, independently of
    how the trace was built: the p^(i-1) divisibility ladder and the
    telescoping identity at every stage."""
    m = model(trace.p, trace.precision)
    alpha = m.canon(alpha)
    p = trace.p
    for i, s in enumerate(trace.steps, start=1):
        if i >= 2:
            lowest = min(m.coeff_val_floor(s.a), m.coeff_val_floor(s.b))
            if lowest < i - 1:
                return False
    for k in range(1, len(trace.steps) + 1):
        A, B = trace.partial_sums(k)
        c_k = trace.steps[k - 1].c
        total = m.canon(A * m.x + B * m.y + c_k * m.domain.from_int(p ** k))
        if total != alpha:
            return False
    return True


def random_xy_element(m: TruncatedModel, rng: random.Random) -> Poly:
    """Random alpha from (x, y) * T_N."""
    u = m.random_poly(rng, max_degree=2, terms=3)
    v = m.random_poly(rng, max_degree=2, terms=3)
    return m.canon(u * m.x + v * m.y)
