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
from functools import lru_cache
from math import gcd

from .charp import fermat_ring
from .coefficients import TruncatedPadicRing
from .groebner import colon, groebner, normal_form
from .polynomials import ParseBudget, Poly, PolyParseError, RingPresentation, format_poly


class OracleInconsistencyError(ValueError):
    """A supplied step representation fails to expand exactly."""


class LiftingObstructionError(ValueError):
    """A step has no solution: the input is outside (x, y) + p^N, or a
    pair handed to the Koszul correction is not a syzygy modulo p^(i-1)."""


# the canonical form of a text's polynomial costs about the square of each
# term's z-degree (x*z^3000 takes about 2 s), so ``TruncatedModel.parse``
# refuses a text whose total degree passes this; twice PRODUCT_DEGREE_LIMIT
# admits z^32*(1+x+y+z)^32
INPUT_DEGREE_LIMIT = 64


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
        # monomial, divides it (``WeightedGrevlex.divides``)
        self._rel_lm = self.ring.relations[0].lm()
        self._guard = self.ring.order.guard
        # the packed keys of z, x and y: x^m * f shifts f's keys by m
        self.z_key, self.x_key, self.y_key = (self.ring.var(v).lm() for v in ("z", "x", "y"))
        self.x = self.canon(self.ring.var("x"))
        self.y = self.canon(self.ring.var("y"))
        # v_p of each divisor p^k of p^N
        self._power_val = {p ** k: k for k in range(precision + 1)}

    def canon(self, f: Poly) -> Poly:
        """Normal form modulo the relation z^3 + x^3 + y^3: unique because a
        single monic polynomial is a Groebner basis over any coefficient
        ring, and every z-exponent of it is <= 2.  ``f`` itself when it is
        already canonical."""
        lm, guard = self._rel_lm, self._guard
        for m, _ in f.terms:
            if not (m - lm) & guard:
                return normal_form(f, self.ring.relations)
        return f

    def parse(self, text: str, budget: ParseBudget | None = None) -> Poly:
        """The canonical form of the text's polynomial; ``PolyParseError``
        past ``budget`` (see ``parse_poly``) or past total degree
        ``INPUT_DEGREE_LIMIT``."""
        f = self.ring.parse(text, budget)
        if f.degree() > INPUT_DEGREE_LIMIT:
            raise PolyParseError(f"total degree {f.degree()} passes the limit {INPUT_DEGREE_LIMIT}")
        return self.canon(f)

    def combine(self, parts) -> Poly:
        """The canonical form of sum(s * x^m * f for s, m, f in parts), for
        int scalars ``s``, packed monomials ``m`` (0, ``x_key`` or
        ``y_key`` for the multiples by x and y) and Polys ``f`` of the ring:
        one dict, one sort, one reduction mod p^N and one canonical-form
        scan, with no Poly built for a multiple
        (``Poly.linear_combination``).  ``canon`` is linear, so this is the
        Poly that canonicalising each partial sum of the chain would give."""
        return self.canon(Poly.linear_combination(self.ring, parts))

    def coeff_val_floor(self, f: Poly) -> int:
        """Largest k with p^k dividing every coefficient (precision if f =
        0): v_p of gcd(p^N, coefficients), one gcd for the whole Poly."""
        return self._power_val[gcd(self.domain.modulus, *[c for _, c in f.terms])]

    def random_poly(self, rng: random.Random, max_degree: int = 3, terms: int = 3) -> Poly:
        """``terms`` draws of z^i x^j y^k (i <= 2, j, k <= ``max_degree``)
        with a coefficient in [0, p^N); a later draw of the same monomial
        replaces the earlier one."""
        r = rng.randrange
        kz, kx, ky, q = self.z_key, self.x_key, self.y_key, self.domain.modulus
        picked = {}
        for _ in range(terms):
            # left to right: the draws come in the order z, x, y, coefficient
            m = r(3) * kz + r(max_degree + 1) * kx + r(max_degree + 1) * ky
            picked[m] = r(q)
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
    model(p, precision)
    ring = fermat_ring(p)
    x, y = ring.parse("x"), ring.parse("y")
    # ((0) : x) must be (0) in the quotient
    for g in colon([], x):
        if not normal_form(g, ring.relations).is_zero():
            return False
    # ((x) : y) must stay inside (x)
    x_basis = groebner([x], ring)
    for g in colon(x_basis, y):
        if not normal_form(g, x_basis).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# traces


ApproxStep = namedtuple("ApproxStep", "a b c")


class ApproxTrace(namedtuple("ApproxTrace", "p precision alpha steps")):
    """alpha with its steps (a_i, b_i, c_i), i = 1..precision."""

    __slots__ = ()

    @property
    def sums(self) -> tuple[Poly, Poly]:
        """Canonical (A, B) = (a_1 + ... + a_k, b_1 + ... + b_k) over the
        k steps; the sums of a prefix are ``trace._replace(steps=...)``'s."""
        m = model(self.p, self.precision)
        steps = self.steps
        return m.combine([(1, 0, s.a) for s in steps]), m.combine([(1, 0, s.b) for s in steps])

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
    x, y = m.x_key, m.y_key

    def step(i: int, residual: Poly):
        ring = m.ring
        zero = ring.zero()
        if not residual:
            return zero, zero, zero
        pw, q = m.p ** (i - 1), m.domain.modulus
        a_terms, b_terms = [], []
        for mono, c in residual.terms:
            if order.divides(x, mono):
                terms, mono = a_terms, mono - x
            elif order.divides(y, mono):
                terms, mono = b_terms, mono - y
            else:
                z = order.exponents(mono)[0]
                raise LiftingObstructionError(
                    f"residual monomial z^{z} is outside (x, y): {format_poly(residual)}"
                )
            c = c * pw % q
            if c:
                terms.append((mono, c))
        # each part keeps the residual's ascending keys, moved by one key
        a = Poly._presorted(ring, tuple(a_terms))
        b = Poly._presorted(ring, tuple(b_terms))
        return m.canon(a), m.canon(b), zero

    return step


def adversarial_oracle(m: TruncatedModel, seed: int):
    """Wraps the honest split with seeded Koszul-syzygy noise and p-power
    junk pushed into the carry term: the returned (a, b) are deliberately
    not p^(i-1)-divisible."""
    rng = random.Random(seed)
    honest = honest_oracle(m)

    def step(i: int, residual: Poly):
        a, b, c = honest(i, residual)
        # s * p is a spurious syzygy multiple of p; u * p^i and v * p^i are
        # junk that c takes back
        s = m.random_poly(rng, max_degree=2, terms=2)
        u = m.random_poly(rng, max_degree=1, terms=1)
        v = m.random_poly(rng, max_degree=1, terms=1)
        p, pi, x, y = m.p, m.p ** i, m.x_key, m.y_key
        a = m.combine([(1, 0, a), (p, y, s), (pi, 0, u)])
        b = m.combine([(1, 0, b), (-p, x, s), (pi, 0, v)])
        c = m.combine([(1, 0, c), (-1, x, u), (-1, y, v)])
        return a, b, c

    return step


def scripted_oracle(m: TruncatedModel, steps: list, budget: ParseBudget | None = None):
    """Replays explicit (a, b, c) polynomial texts from a config document;
    the texts share ``budget`` when one is given."""
    budget = budget or ParseBudget()
    parsed = [(m.parse(s["a"], budget), m.parse(s["b"], budget), m.parse(s["c"], budget)) for s in steps]

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
    When L = 0 the canonical pair is already that pair and is returned as
    it is.
    """
    q = m.p ** (i - 1)
    y = m.y_key
    order = m.ring.order
    low = [(mono, r) for mono, c in a.terms if (r := c % q)]
    if not all(order.divides(y, mono) for mono, _ in low):
        raise LiftingObstructionError(
            f"step {i}: a mod {m.p}^{i - 1} has a monomial outside (y): {format_poly(a)}"
        )
    if low:
        # a's keys moved by one key stay ascending, and each r < q <= p^N
        t = Poly._presorted(m.ring, tuple([(mono - y, r) for mono, r in low]))
        a = m.combine([(1, 0, a), (-1, y, t)])
        b = m.combine([(1, 0, b), (1, m.x_key, t)])
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
    x, y = m.x_key, m.y_key
    alpha = m.canon(alpha)
    residual = alpha
    steps = []
    for i in range(1, precision + 1):
        a, b, c = step_oracle(i, residual)
        a, b, c = m.canon(a), m.canon(b), m.canon(c)
        ax, by = (1, x, a), (1, y, b)
        if m.combine([ax, by, (p ** i, 0, c), (-(p ** (i - 1)), 0, residual)]):
            supplied = m.combine([ax, by, (p ** i, 0, c)])
            expected = m.combine([(p ** (i - 1), 0, residual)])
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

    The identity is kept as one running residual, the canonical
    D_k = alpha - A_k x - B_k y = D_(k-1) - a_k x - b_k y, and stage k
    holds exactly when D_k equals the canonical c_k p^k, so a trace of
    precision N costs N linear combinations, not N(N+1) additions."""
    m = model(trace.p, trace.precision)
    p, x, y = trace.p, m.x_key, m.y_key
    for i, s in enumerate(trace.steps, start=1):
        if i >= 2:
            lowest = min(m.coeff_val_floor(s.a), m.coeff_val_floor(s.b))
            if lowest < i - 1:
                return False
    residual = m.canon(alpha)
    for k, s in enumerate(trace.steps, start=1):
        residual = m.combine([(1, 0, residual), (-1, x, s.a), (-1, y, s.b)])
        if residual != m.combine([(p ** k, 0, s.c)]):
            return False
    return True


def random_xy_element(m: TruncatedModel, rng: random.Random) -> Poly:
    """Random alpha from (x, y) * T_N."""
    u = m.random_poly(rng, max_degree=2, terms=3)
    v = m.random_poly(rng, max_degree=2, terms=3)
    return m.combine([(1, m.x_key, u), (1, m.y_key, v)])
