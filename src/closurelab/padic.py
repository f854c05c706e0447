"""Successive approximation on the truncated model T_N =
(Z/p^N)[x, y, z] / (x^3 + y^3 + z^3).

Elements of T_N are kept in canonical form: the normal form modulo the
monic relation, whose leading monomial is z^3, so every z-degree is <= 2
and coefficientwise p-divisibility statements are well defined.  Beyond
that division, nothing is computed with Groebner bases over Z/p^N.  The
Koszul correction reads its syzygy off the canonical form by exact
monomial division by y, and only the regular-sequence check works over
F_p, with colon ideals.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache, partial

from .charp import fermat_ring
from .coefficients import TruncatedPadicRing
from .groebner import colon, groebner, normal_form
from .polynomials import Poly, RingPresentation, format_poly


class OracleInconsistencyError(ValueError):
    """A supplied step representation fails to expand exactly."""


class LiftingObstructionError(ValueError):
    """A step has no solution: the input is outside (x, y) + p^N, or a
    pair handed to the Koszul correction is not a syzygy modulo p^(i-1)."""


class TruncatedModel:
    """T_N with canonical representatives."""

    def __init__(self, p: int, precision: int):
        self.p = p
        self.precision = precision
        self.domain = TruncatedPadicRing(p, precision)
        self.ring = RingPresentation(
            self.domain, ("z", "x", "y"), relations=["z^3 + x^3 + y^3"]
        )
        # a term needs dividing exactly when z^3, the relation's leading
        # monomial, divides it
        self._reducible = partial(self.ring.order.divides, self.ring.relations[0].lm())
        self.x = self.canon(self.ring.var("x"))
        self.y = self.canon(self.ring.var("y"))

    def canon(self, f: Poly) -> Poly:
        """Normal form modulo the relation z^3 + x^3 + y^3: unique because a
        single monic polynomial is a Groebner basis over any coefficient
        ring, and every z-exponent of it is <= 2.  ``f`` itself when it is
        already canonical."""
        if any(map(self._reducible, [m for m, _ in f.terms])):
            return normal_form(f, self.ring.relations)
        return f

    def parse(self, text: str) -> Poly:
        return self.canon(self.ring.parse(text))

    def equal(self, f: Poly, g: Poly) -> bool:
        return self.canon(f - g).is_zero()

    def coeff_val_floor(self, f: Poly) -> int:
        """Largest k with p^k dividing every coefficient (precision if f = 0)."""
        val = self.domain.val
        return min((val(c) for _, c in f.terms), default=self.precision)

    def random_poly(self, rng: random.Random, max_degree: int = 3, terms: int = 3) -> Poly:
        picked = {}
        for _ in range(terms):
            m = (rng.randrange(0, 3), rng.randrange(0, max_degree + 1), rng.randrange(0, max_degree + 1))
            picked[m] = rng.randrange(0, self.p ** self.precision)
        return self.canon(self.ring.poly(picked))


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
    model(p, precision)
    ring = fermat_ring(p)
    rel_basis = groebner([], ring)
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


ApproxStep = namedtuple("ApproxStep", "a b c")


class ApproxTrace(namedtuple("ApproxTrace", "p precision alpha steps")):
    """alpha with its steps (a_i, b_i, c_i), i = 1..precision."""

    __slots__ = ()

    def partial_sums(self, k: int) -> tuple[Poly, Poly]:
        """Canonical A_k = a_1 + ... + a_k and B_k = b_1 + ... + b_k."""
        m = model(self.p, self.precision)
        A = m.ring.zero()
        B = m.ring.zero()
        for s in self.steps[:k]:
            A = A + s.a
            B = B + s.b
        return m.canon(A), m.canon(B)

    @property
    def sums(self) -> tuple[Poly, Poly]:
        """(A, B): the final partial sums, from one pass over the steps."""
        return self.partial_sums(len(self.steps))

    def to_json(self) -> dict:
        m = model(self.p, self.precision)
        A, B = self.sums
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
            "A": format_poly(A),
            "B": format_poly(B),
        }


# ---------------------------------------------------------------------------
# step oracles


def honest_oracle(m: TruncatedModel):
    """Splits the canonical form of the residual over (x, y) directly; valid
    whenever every residual monomial is divisible by x or y."""
    order = m.ring.order
    x, y = m.x.lm(), m.y.lm()

    def step(i: int, residual: Poly):
        a_terms, b_terms = {}, {}
        for mono, c in residual.terms:
            if order.divides(x, mono):
                a_terms[mono - x] = c
            elif order.divides(y, mono):
                b_terms[mono - y] = c
            else:
                z = order.exponents(mono)[0]
                raise LiftingObstructionError(
                    f"residual monomial z^{z} is outside (x, y): {format_poly(residual)}"
                )
        pw = m.p ** (i - 1)
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
        sigma = s * m.p  # spurious syzygy multiple of p
        a = m.canon(a + sigma * m.y)
        b = m.canon(b - sigma * m.x)
        u = m.random_poly(rng, max_degree=1, terms=1)
        v = m.random_poly(rng, max_degree=1, terms=1)
        pi = m.p ** i
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

    The low part L = a mod p^(i-1) must be t*y for the Koszul syzygy
    (y, -x): a and b are canonical, and when t*y + w*rel is canonical,
    setting y = 0 forces w|_(y=0) = 0, so L lies in (y) + (rel) exactly
    when y divides each of its monomials.  Then (a - t*y, b + t*x) is the
    corrected pair, and b + t*x must be divisible by p^(i-1) as well.
    """
    q = m.p ** (i - 1)
    y = m.y.lm()
    order = m.ring.order
    low = {mono: c % q for mono, c in a.terms if c % q}
    if not all(order.divides(y, mono) for mono in low):
        raise LiftingObstructionError(
            f"step {i}: a mod {m.p}^{i - 1} has a monomial outside (y): {format_poly(a)}"
        )
    t = Poly(m.ring, {mono - y: c for mono, c in low.items()})
    a = a - t * m.y
    b = b + t * m.x
    if m.coeff_val_floor(b) < i - 1:
        raise LiftingObstructionError(
            f"step {i}: the Koszul syzygy does not reproduce b modulo {m.p}^{i - 1}"
        )
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
        supplied = m.canon(a * m.x + b * m.y + c * p ** i)
        expected = m.canon(residual * p ** (i - 1))
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
    telescoping identity alpha = A_k x + B_k y + c_k p^k at every stage k.

    The partial sums are kept running, A_k = A_(k-1) + a_k and
    B_k = B_(k-1) + b_k, each canonicalised as ``partial_sums(k)`` returns
    it, so a trace of precision N costs 2N additions, not N(N+1)."""
    m = model(trace.p, trace.precision)
    alpha = m.canon(alpha)
    p = trace.p
    for i, s in enumerate(trace.steps, start=1):
        if i >= 2:
            lowest = min(m.coeff_val_floor(s.a), m.coeff_val_floor(s.b))
            if lowest < i - 1:
                return False
    A = B = m.ring.zero()
    for k, s in enumerate(trace.steps, start=1):
        A = m.canon(A + s.a)
        B = m.canon(B + s.b)
        total = m.canon(A * m.x + B * m.y + s.c * p ** k)
        if total != alpha:
            return False
    return True


def random_xy_element(m: TruncatedModel, rng: random.Random) -> Poly:
    """Random alpha from (x, y) * T_N."""
    u = m.random_poly(rng, max_degree=2, terms=3)
    v = m.random_poly(rng, max_degree=2, terms=3)
    return m.canon(u * m.x + v * m.y)
