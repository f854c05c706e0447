"""Buchberger Groebner bases with representation tracking, normal forms,
certified ideal membership, and colon ideals.

Ideal computations use quotient-ring semantics: the ring's relation
polynomials are appended to every generator set internally.  The one
exception is ``intersect``, which meets two ideals exactly as given.
Representation vectors are carried through the whole computation so that a
membership answer comes with cofactors whose expansion reproduces the
target exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import DomainError
from .polynomials import (
    Poly,
    RingPresentation,
    WeightedGrevlex,
    format_poly,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class VerificationError(AssertionError):
    """An exact re-expansion check failed; indicates an engine bug."""


class _Tracked:
    """Basis element together with its representation in the input
    generators: poly == sum(rep[i] * inputs[i]) exactly."""

    __slots__ = ("poly", "rep", "sugar")

    def __init__(self, poly: Poly, rep: tuple, sugar: Fraction):
        self.poly = poly
        self.rep = rep
        self.sugar = sugar


class GroebnerBasis:
    """Reduced Groebner basis of (generators) + (relations).

    ``generators`` holds the basis polynomials; ``reps`` holds, per basis
    element, its cofactor vector over inputs + relations.
    """

    def __init__(self, ring: RingPresentation, inputs, basis):
        self.ring = ring
        self.inputs = tuple(inputs)  # caller generators followed by relations
        self.generators = tuple(t.poly for t in basis)
        self.reps = tuple(t.rep for t in basis)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return "{" + ", ".join(format_poly(g) for g in self.generators) + "}"


class MembershipCertificate:
    """Exact witness of f in (generators) + (relations): the target equals
    sum(cofactors[i] * generators_and_relations[i]) by pure expansion."""

    def __init__(self, target: Poly, generators, cofactors):
        self.target = target
        self.generators = tuple(generators)
        self.cofactors = tuple(cofactors)

    def expand(self) -> Poly:
        acc = self.target.ring.zero()
        for c, g in zip(self.cofactors, self.generators):
            acc = acc + c * g
        return acc

    def verify(self) -> bool:
        return self.expand() == self.target

    def check(self):
        if not self.verify():
            raise VerificationError(
                f"certificate for {format_poly(self.target)} does not re-expand to its target"
            )

    def to_json(self) -> dict:
        return {
            "target": format_poly(self.target),
            "generators": [format_poly(g) for g in self.generators],
            "cofactors": [format_poly(c) for c in self.cofactors],
        }


def _combination(quots, reps):
    """The cofactor vector sum(q_i * reps_i) over the nonzero quotients q_i,
    or None when every quotient is zero."""
    acc = None
    for q, rep in zip(quots, reps):
        if q.is_zero():
            continue
        if acc is None:
            acc = [q * r for r in rep]
        else:
            acc = [a + q * r for a, r in zip(acc, rep)]
    return acc


def _divide(f: Poly, divisors, track: bool = True):
    """Full multivariate division: f = sum(q_i * divisors_i) + remainder.

    Deterministic: the first divisor whose leading monomial divides the
    current leading term is used.  Returns (remainder, quotients).
    """
    ring = f.ring
    dom = ring.domain
    lms = [d.lm() for d in divisors]
    inv_lcs = [dom.inv(d.lc()) for d in divisors]
    quotients = [dict() for _ in divisors] if track else None
    remainder: dict = {}
    work = dict(f.terms)
    order_key = ring.order.key
    while work:
        m = max(work, key=order_key)
        c = work.pop(m)
        if not c:
            continue
        for i, lm in enumerate(lms):
            if mono_divides(lm, m):
                qm = mono_div(m, lm)
                qc = c * inv_lcs[i]
                if track:
                    qdict = quotients[i]
                    qdict[qm] = qdict.get(qm, dom.zero) + qc
                for dm, dc in divisors[i].terms[1:]:
                    key = mono_mul(qm, dm)
                    s = work.get(key, dom.zero) - qc * dc
                    if s:
                        work[key] = s
                    elif key in work:
                        del work[key]
                break
        else:
            remainder[m] = c
    rem = Poly(ring, remainder)
    if track:
        return rem, [Poly(ring, q) for q in quotients]
    return rem, None


def exact_divide(f: Poly, g: Poly) -> Poly:
    """Quotient f / g when g divides f exactly; raises otherwise.  A single
    polynomial is a Groebner basis, so the remainder is zero iff g | f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem, (q,) = _divide(f, [g])
    if rem:
        raise ValueError(f"{g} does not divide {f} exactly")
    return q


def normal_form(f: Poly, basis, with_quotients: bool = False):
    """Remainder of full division of f by the basis (a GroebnerBasis or a
    plain sequence of polynomials).  Zero iff f lies in the ideal when the
    basis is a Groebner basis."""
    divisors = list(basis.generators) if isinstance(basis, GroebnerBasis) else list(basis)
    if not divisors:
        return (f, []) if with_quotients else f
    rem, quots = _divide(f, divisors, track=with_quotients)
    return (rem, quots) if with_quotients else rem


def groebner(gens, ring: RingPresentation, include_relations: bool = True) -> GroebnerBasis:
    """Reduced Groebner basis of (gens) + (ring relations).

    Buchberger with the Gebauer-Moeller pair criteria and degree-then-sugar
    selection; leading coefficients are normalized to 1, so the reduced
    basis is the unique one for the ring's order.
    """
    if not ring.domain.is_field:
        raise DomainError(
            f"Groebner bases need field coefficients, not {ring.domain.name}; "
            "use the digit-wise p-adic machinery for truncated coefficients"
        )
    inputs = [g for g in gens]
    if include_relations:
        inputs = inputs + list(ring.relations)
    n_inputs = len(inputs)
    dom = ring.domain
    deg = ring.order.degree

    def unit_rep(i: int) -> tuple:
        return tuple(ring.one() if j == i else ring.zero() for j in range(n_inputs))

    basis: list[_Tracked] = []
    pairs: list[tuple] = []  # (lcm, sugar, i, j) with i < j

    def add_pairs(t: _Tracked, t_index: int):
        # Gebauer-Moeller update for the new element against the current basis
        nonlocal pairs
        lm_new = t.poly.lm()
        fresh = [(mono_lcm(lm_new, other.poly.lm()), i) for i, other in enumerate(basis[:t_index])]
        # criterion M: drop a new pair whose lcm is a proper multiple of
        # another new pair's lcm
        keep = []
        for lcm, i in fresh:
            dominated = any(
                i2 != i and lcm2 != lcm and mono_divides(lcm2, lcm) for lcm2, i2 in fresh
            )
            if not dominated:
                keep.append((lcm, i))
        # criterion F: keep one representative per lcm (lowest index)
        seen_lcms = set()
        kept2 = []
        for lcm, i in keep:
            if lcm in seen_lcms:
                continue
            seen_lcms.add(lcm)
            kept2.append((lcm, i))
        # criterion B: drop those with coprime leading monomials
        kept3 = [(lcm, i) for lcm, i in kept2 if not mono_coprime(lm_new, basis[i].poly.lm())]
        # prune old pairs made redundant by the new leading monomial
        new_pairs = []
        for lcm, sugar, i, j in pairs:
            if (
                mono_divides(lm_new, lcm)
                and mono_lcm(basis[i].poly.lm(), lm_new) != lcm
                and mono_lcm(basis[j].poly.lm(), lm_new) != lcm
            ):
                continue
            new_pairs.append((lcm, sugar, i, j))
        for lcm, i in kept3:
            other = basis[i]
            s = max(
                other.sugar + deg(mono_div(lcm, other.poly.lm())),
                t.sugar + deg(mono_div(lcm, lm_new)),
            )
            new_pairs.append((lcm, s, i, t_index))
        pairs = new_pairs

    for idx, g in enumerate(inputs):
        if g.is_zero():
            continue
        rep = unit_rep(idx)
        tr = _Tracked(g, rep, g.degree())
        basis.append(tr)
        add_pairs(tr, len(basis) - 1)

    def reduce_tracked(poly: Poly, rep, against: list) -> tuple:
        rem, quots = _divide(poly, [t.poly for t in against], track=True)
        used = _combination(quots, [t.rep for t in against])
        if used is not None:
            rep = [r - u for r, u in zip(rep, used)]
        return rem, rep

    while pairs:
        pairs.sort(key=lambda p: (deg(p[0]), p[1], ring.order.key(p[0]), p[2], p[3]))
        lcm, sugar, i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        mi = mono_div(lcm, fi.poly.lm())
        mj = mono_div(lcm, fj.poly.lm())
        ci = dom.inv(fi.poly.lc())
        cj = dom.inv(fj.poly.lc())
        spoly = fi.poly.mul_term(mi, ci) - fj.poly.mul_term(mj, cj)
        rep = [
            ri.mul_term(mi, ci) - rj.mul_term(mj, cj)
            for ri, rj in zip(fi.rep, fj.rep)
        ]
        rem, rep = reduce_tracked(spoly, rep, basis)
        if rem.is_zero():
            continue
        inv = dom.inv(rem.lc())
        rem = rem * inv
        rep = [r * inv for r in rep]
        tr = _Tracked(rem, tuple(rep), sugar)
        basis.append(tr)
        add_pairs(tr, len(basis) - 1)

    # minimalize: drop elements whose leading monomial is divisible by another
    order_key = ring.order.key
    basis.sort(key=lambda t: order_key(t.poly.lm()))
    minimal: list[_Tracked] = []
    for t in basis:
        if any(mono_divides(u.poly.lm(), t.poly.lm()) for u in minimal):
            continue
        minimal.append(t)
    # tail-reduce each element against the others
    reduced: list[_Tracked] = []
    for t in minimal:
        rem, rep = reduce_tracked(t.poly, t.rep, [u for u in minimal if u is not t])
        inv = dom.inv(rem.lc())
        reduced.append(_Tracked(rem * inv, tuple(r * inv for r in rep), t.sugar))
    reduced.sort(key=lambda t: order_key(t.poly.lm()))
    gb = GroebnerBasis(ring, inputs, reduced)
    return gb


def ideal_member(f: Poly, gens, ring: RingPresentation | None = None):
    """Decide f in (gens) + (relations); on success return an exact
    MembershipCertificate over the generators and the relations."""
    ring = ring or f.ring
    gb = groebner(list(gens), ring)
    return membership_with_basis(f, gb)


def membership_with_basis(f: Poly, gb: GroebnerBasis):
    rem, quots = normal_form(f, gb, with_quotients=True)
    if not rem.is_zero():
        return False, None
    cof = _combination(quots, gb.reps) or [f.ring.zero() for _ in gb.inputs]
    cert = MembershipCertificate(f, gb.inputs, cof)
    cert.check()
    return True, cert


def elimination_ring(ring: RingPresentation) -> RingPresentation:
    """The ring with one auxiliary variable prepended and a block order
    eliminating it."""
    aux = "_t"
    if aux in ring.variables:
        raise ValueError("ring already owns the auxiliary variable _t")
    ext = RingPresentation(
        ring.domain,
        (aux,) + ring.variables,
        (Fraction(1),) + ring.weights,
        (),
    )
    ext.order = WeightedGrevlex(ext.weights, block=1)
    return ext


def _lift(poly: Poly, ext: RingPresentation) -> Poly:
    return Poly(ext, {(0,) + m: c for m, c in poly.terms})


def _drop(poly: Poly, ring: RingPresentation) -> Poly:
    return Poly(ring, {m[1:]: c for m, c in poly.terms})


def intersect(gens_a, gens_b, ring: RingPresentation) -> list:
    """Generators of (gens_a) intersected with (gens_b) in the polynomial
    ring, via elimination of an auxiliary variable.  The ring's relations
    are not added: callers pass them on whichever side they belong."""
    ext = elimination_ring(ring)
    t = ext.var("_t")
    one_minus_t = ext.one() - t
    lifted = [t * _lift(g, ext) for g in gens_a]
    lifted += [one_minus_t * _lift(g, ext) for g in gens_b]
    gb = groebner(lifted, ext, include_relations=False)
    return [_drop(g, ring) for g in gb.generators if g.lm()[0] == 0]


def colon(gens, f: Poly, ring: RingPresentation | None = None) -> list:
    """Generators of ((gens) + relations : f) in the quotient ring.

    g is in the result iff g*f lies in (gens) in the quotient; computed as
    (1/f) * ((gens + relations) intersect (f)).
    """
    ring = ring or f.ring
    if f.is_zero():
        raise ZeroDivisionError("colon by the zero polynomial")
    rel_gb = groebner([], ring)
    if rel_gb.generators and normal_form(f, rel_gb).is_zero():
        raise ZeroDivisionError(f"{format_poly(f)} reduces to zero in the quotient ring")
    meet = intersect(list(gens) + list(ring.relations), [f], ring)
    quotients = [exact_divide(g, f) for g in meet]
    gb = groebner(quotients, ring)
    return list(gb.generators)
