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
from heapq import heapify, heappop, heappush

from .coefficients import DomainError
from .polynomials import Poly, RingPresentation, format_poly


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
    current leading term is used.  Monomials are packed keys, so the
    quotient monomial is a difference and each new monomial a sum of keys.
    The work set is a dict of pending terms beside a min-heap of the same
    ints (the smallest key is the leading monomial); an entry whose monomial
    has cancelled or was already taken is skipped when popped.  A monomial
    entering the work set has its exponent fields checked
    (``OverflowError``).  Terms are taken in strictly decreasing order and a
    taken monomial never re-enters the work set, so the remainder and each
    quotient are built already sorted, with nonzero coefficients (a leading
    coefficient with an inverse is a unit), and are wrapped without sorting
    again.  Over Z/p^N the pending coefficients are raw int sums, reduced
    modulo p^N once when popped.  Returns (remainder, quotients); raises
    ``ValueError`` when a divisor comes from an incompatible ring.
    """
    ring = f.ring
    for d in divisors:
        if d.ring is not ring and not ring.compatible(d.ring):
            raise ValueError("polynomials from incompatible rings")
    dom = ring.domain
    mod = dom.modulus
    divides = ring.order.divides
    check_fields = ring.order.check_fields
    lms = [d.lm() for d in divisors]
    inv_lcs = [dom.inv(d.lc()) for d in divisors]
    quotients = [[] for _ in divisors] if track else None
    remainder = []
    work = dict(f.terms)
    heap = list(work)
    heapify(heap)
    while heap:
        m = heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        if mod:
            c %= mod
            if not c:
                continue
        for i, lm in enumerate(lms):
            if divides(lm, m):
                qm = m - lm
                qc = c * inv_lcs[i] % mod if mod else c * inv_lcs[i]
                if track:
                    quotients[i].append((qm, qc))
                for dm, dc in divisors[i].terms[1:]:
                    nm = qm + dm
                    old = work.get(nm)
                    s = (dom.zero if old is None else old) - qc * dc
                    if s:
                        if old is None:
                            check_fields(nm)
                            heappush(heap, nm)
                        work[nm] = s
                    elif old is not None:
                        del work[nm]
                break
        else:
            remainder.append((m, c))
    rem = Poly._presorted(ring, tuple(remainder))
    if track:
        return rem, [Poly._presorted(ring, tuple(q)) for q in quotients]
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


def groebner(gens, ring: RingPresentation) -> GroebnerBasis:
    """Reduced Groebner basis of (gens) + (ring relations).

    Buchberger with the Gebauer-Moeller pair criteria; each step takes the
    ``min`` pair by degree, then sugar, then ascending lcm, then indices.
    Leading coefficients are normalized to 1, so the reduced basis is the
    unique one for the ring's order.
    """
    if not ring.domain.is_field:
        raise DomainError(
            f"Groebner bases need field coefficients, not {ring.domain.name}; "
            "use the digit-wise p-adic machinery for truncated coefficients"
        )
    inputs = list(gens) + list(ring.relations)
    n_inputs = len(inputs)
    dom = ring.domain
    order = ring.order
    deg, divides, lcm_of = order.degree, order.divides, order.lcm

    def unit_rep(i: int) -> tuple:
        return tuple(ring.one() if j == i else ring.zero() for j in range(n_inputs))

    basis: list[_Tracked] = []
    # (deg(lcm), sugar, -lcm, i, j, lcm) with i < j: tuples compare in
    # selection order (-lcm is ascending in the monomial order), and (i, j)
    # is unique, so lcm is never compared
    pairs: list[tuple] = []

    def add_pairs(t: _Tracked, t_index: int):
        # Gebauer-Moeller update for the new element against the current basis
        nonlocal pairs
        lm_new = t.poly.lm()
        fresh = [(lcm_of(lm_new, other.poly.lm()), i) for i, other in enumerate(basis[:t_index])]
        # criterion M: drop a new pair whose lcm is a proper multiple of
        # another new pair's lcm
        keep = []
        for lcm, i in fresh:
            dominated = any(
                i2 != i and lcm2 != lcm and divides(lcm2, lcm) for lcm2, i2 in fresh
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
        # criterion B: drop those with coprime leading monomials, whose lcm
        # is their product
        kept3 = [(lcm, i) for lcm, i in kept2 if lcm != lm_new + basis[i].poly.lm()]
        # prune old pairs made redundant by the new leading monomial
        new_pairs = []
        for p in pairs:
            *_, i, j, lcm = p
            if (
                divides(lm_new, lcm)
                and lcm_of(basis[i].poly.lm(), lm_new) != lcm
                and lcm_of(basis[j].poly.lm(), lm_new) != lcm
            ):
                continue
            new_pairs.append(p)
        for lcm, i in kept3:
            other = basis[i]
            s = max(
                other.sugar + deg(lcm - other.poly.lm()),
                t.sugar + deg(lcm - lm_new),
            )
            new_pairs.append((deg(lcm), s, -lcm, i, t_index, lcm))
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
        p = min(pairs)
        pairs.remove(p)
        _, sugar, _, i, j, lcm = p
        fi, fj = basis[i], basis[j]
        mi = lcm - fi.poly.lm()
        mj = lcm - fj.poly.lm()
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

    # minimalize: drop elements whose leading monomial is divisible by
    # another; the reverse sort by the descending key ranks them ascending
    # and, being stable, keeps equal leading monomials in basis order
    basis.sort(key=lambda t: t.poly.lm(), reverse=True)
    minimal: list[_Tracked] = []
    for t in basis:
        if any(divides(u.poly.lm(), t.poly.lm()) for u in minimal):
            continue
        minimal.append(t)
    # tail-reduce each element against the others
    reduced: list[_Tracked] = []
    for t in minimal:
        rem, rep = reduce_tracked(t.poly, t.rep, [u for u in minimal if u is not t])
        inv = dom.inv(rem.lc())
        reduced.append(_Tracked(rem * inv, tuple(r * inv for r in rep), t.sugar))
    reduced.sort(key=lambda t: t.poly.lm(), reverse=True)
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
    return RingPresentation(
        ring.domain, (aux,) + ring.variables, (Fraction(1),) + ring.weights, (), block=1
    )


def _lift(poly: Poly, ext: RingPresentation) -> Poly:
    exponents = poly.ring.order.exponents
    return ext.poly({(0,) + exponents(m): c for m, c in poly.terms})


def _drop(poly: Poly, ring: RingPresentation) -> Poly:
    exponents = poly.ring.order.exponents
    return ring.poly({exponents(m)[1:]: c for m, c in poly.terms})


def intersect(gens_a, gens_b, ring: RingPresentation) -> list:
    """Generators of (gens_a) intersected with (gens_b) in the polynomial
    ring, via elimination of an auxiliary variable.  The ring's relations
    are not added: callers pass them on whichever side they belong."""
    ext = elimination_ring(ring)
    t = ext.var("_t")
    one_minus_t = ext.one() - t
    lifted = [t * _lift(g, ext) for g in gens_a]
    lifted += [one_minus_t * _lift(g, ext) for g in gens_b]
    gb = groebner(lifted, ext)
    return [_drop(g, ring) for g in gb.generators if ext.order.exponents(g.lm())[0] == 0]


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
