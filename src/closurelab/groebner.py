"""Buchberger Groebner bases with optional representation tracking, normal
forms, certified ideal membership, and colon ideals.

Ideal computations use quotient-ring semantics: the relation of the ring
(f's ring for ``ideal_member`` and ``colon``) is appended to every
generator set internally.  The one exception is ``intersect``, which meets
two ideals exactly as given.  A ring has at most one relation, and that
polynomial is its own Groebner basis, so reducing modulo the relation alone
is ``normal_form(f, ring.relations)``, the remainder of the one division
loop ``_divide``, and runs no Buchberger.  On request (``groebner(...,
reps=True)``) representation vectors are carried through the whole
computation, so that a membership answer comes with cofactors whose
expansion reproduces the target exactly; a basis built without them
cannot certify membership.
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
    generators, poly == sum(rep[i] * inputs[i]) exactly, or rep None when
    no representation is tracked; ``sugar`` is a scaled weighted degree
    (``WeightedGrevlex.wdeg``) and ``exps`` the exponent tuple of the
    leading monomial, decoded once."""

    __slots__ = ("poly", "rep", "sugar", "exps")

    def __init__(self, poly: Poly, rep: tuple, sugar: int, exps: tuple):
        self.poly = poly
        self.rep = rep
        self.sugar = sugar
        self.exps = exps


class GroebnerBasis:
    """Reduced Groebner basis of (generators) + (relations).

    ``generators`` holds the basis polynomials; ``reps`` holds, per basis
    element, its cofactor vector over inputs + relations, or is None when
    the basis was built without them.
    """

    def __init__(self, ring: RingPresentation, inputs, basis, reps: bool):
        self.ring = ring
        self.inputs = tuple(inputs)  # caller generators followed by relations
        self.generators = tuple(t.poly for t in basis)
        self.reps = tuple(t.rep for t in basis) if reps else None

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
        ring = self.target.ring
        one = ring.domain.one
        return Poly.linear_combination(ring, [(one, 0, c * g) for c, g in zip(self.cofactors, self.generators)])

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


def _combination(ring: RingPresentation, parts, n: int) -> list:
    """Per coordinate k < n, sum(c * x^m * r[k] for c, m, r in parts) over
    cofactor vectors r, as one ``linear_combination``: an S-polynomial's
    rows take its two shifted parts and a cofactor sum one part per term
    of each quotient, so no product q * r[k] and no partial sum is built."""
    return [Poly.linear_combination(ring, [(c, m, r[k]) for c, m, r in parts]) for k in range(n)]


def _scaled(rep, c):
    """The cofactor vector rep times the scalar c, or None for None."""
    return None if rep is None else tuple(r * c for r in rep)


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
    ``ValueError`` when a divisor comes from an incompatible ring and
    ``ZeroDivisionError`` when a divisor is zero.
    """
    ring = f.ring
    for d in divisors:
        if d.ring is not ring and not ring.compatible(d.ring):
            raise ValueError("polynomials from incompatible rings")
        if not d.terms:
            raise ZeroDivisionError("division by the zero polynomial")
    dom = ring.domain
    mod, one = dom.modulus, dom.one
    divides = ring.order.divides
    check_fields = ring.order.check_fields
    lms = [d.lm() for d in divisors]
    # a divisor's leading coefficient is inverted when the divisor is first used
    inv_lcs = [None] * len(divisors)
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
                inv = inv_lcs[i]
                if inv is None:
                    inv = inv_lcs[i] = dom.inv(divisors[i].lc())
                # a monic divisor's inverse is the shared one, and c * one is c
                # (c is reduced already over Z/p^N)
                qc = c if inv is one else c * inv % mod if mod else c * inv
                if track:
                    quotients[i].append((qm, qc))
                nqc = -qc
                for dm, dc in divisors[i].terms[1:]:
                    nm = qm + dm
                    old = work.get(nm)
                    if old is None:
                        # qc and dc are nonzero, so is their product (over
                        # Z/p^N one that is 0 mod p^N is skipped when popped)
                        check_fields(nm)
                        heappush(heap, nm)
                        work[nm] = nqc * dc
                        continue
                    s = old + nqc * dc
                    if s:
                        work[nm] = s
                    else:
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
    rem, (q,) = _divide(f, [g])
    if rem:
        raise ValueError(f"{g} does not divide {f} exactly")
    return q


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of full division of f by the divisors in ``basis``, any
    sequence of polynomials: a GroebnerBasis iterates its generators, and
    ``ring.relations`` is the relation ideal's own basis.  Zero iff f lies
    in the ideal when the divisors form a Groebner basis; f itself when
    there are none.  The quotients are ``_divide``'s."""
    divisors = list(basis)
    return _divide(f, divisors, track=False)[0] if divisors else f


def groebner(gens, ring: RingPresentation, *, reps: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of (gens) + (ring relations).

    Buchberger with the pair criteria of R. Gebauer and H. M. Moeller (J.
    Symbolic Comput. 6, 1988), applied in one pass per new basis element;
    each step takes the ``min`` pair by degree, then sugar, then ascending
    lcm, then indices, where degree and sugar are scaled weighted degrees
    (ints, ordered as the Fractions they scale).  Leading coefficients are
    normalized to 1, so the reduced basis is the unique one for the ring's
    order.  With ``reps`` each element carries its cofactor vector over the
    inputs (``GroebnerBasis.reps``), which ``membership_with_basis`` needs;
    without it ``reps`` is None, and the generators are the same.
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
    wdeg, divides, lcm_of = order.wdeg, order.divides, order.lcm_of_exponents
    exponents = order.exponents
    one, minus_one = dom.one, dom.minus_one

    def unit_rep(i: int) -> tuple:
        return tuple(ring.one() if j == i else ring.zero() for j in range(n_inputs))

    basis: list[_Tracked] = []
    # (wdeg(lcm), sugar, -lcm, i, j, lcm) with i < j: tuples compare in
    # selection order (-lcm is ascending in the monomial order), and (i, j)
    # is unique, so lcm is never compared
    pairs: list[tuple] = []

    def add_pairs(t: _Tracked):
        # Gebauer-Moeller update, then t joins the basis as element j
        lm_new, e_new, j = t.poly.lm(), t.exps, len(basis)
        # drop an old pair p, (i, j, lcm) = p[3:], whose lcm lm_new divides,
        # unless lm_new and element i or j have that same lcm
        pairs[:] = [
            p
            for p in pairs
            if not divides(lm_new, p[5])
            or lcm_of(basis[p[3]].exps, e_new) == p[5]
            or lcm_of(basis[p[4]].exps, e_new) == p[5]
        ]
        # criterion F: one new pair per lcm, the lowest index
        fresh = {}
        for i, other in enumerate(basis):
            fresh.setdefault(lcm_of(e_new, other.exps), i)
        for lcm, i in fresh.items():
            lm_i = basis[i].poly.lm()
            # criterion B: coprime leading monomials, whose lcm is their
            # product; criterion M: a proper multiple of another new lcm
            if lcm == lm_new + lm_i or any(m != lcm and divides(m, lcm) for m in fresh):
                continue
            s = max(basis[i].sugar + wdeg(lcm - lm_i), t.sugar + wdeg(lcm - lm_new))
            pairs.append((wdeg(lcm), s, -lcm, i, j, lcm))
        basis.append(t)

    for idx, g in enumerate(inputs):
        if g.is_zero():
            continue
        sugar = max([wdeg(m) for m, _ in g.terms])
        add_pairs(_Tracked(g, unit_rep(idx) if reps else None, sugar, exponents(g.lm())))

    def reduce_tracked(poly: Poly, rep, against: list) -> tuple:
        # rep is None exactly when no cofactors are tracked
        rem, quots = _divide(poly, [t.poly for t in against], track=reps)
        if rep is None:
            return rem, None
        # rep - sum(q_i * rep_i), over the terms of every quotient
        used = [(-c, m, t.rep) for q, t in zip(quots, against) for m, c in q.terms]
        if used:
            rep = _combination(ring, [(one, 0, rep), *used], n_inputs)
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
        # a monic element's inverse is the shared one: its part subtracts
        # through linear_combination's product-free minus_one branch
        ncj = minus_one if cj is one else -cj
        spoly = Poly.linear_combination(ring, ((ci, mi, fi.poly), (ncj, mj, fj.poly)))
        rep = None
        if reps:
            rep = _combination(ring, ((ci, mi, fi.rep), (ncj, mj, fj.rep)), n_inputs)
        rem, rep = reduce_tracked(spoly, rep, basis)
        if rem.is_zero():
            continue
        inv = dom.inv(rem.lc())
        add_pairs(_Tracked(rem * inv, _scaled(rep, inv), sugar, exponents(rem.lm())))

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
        reduced.append(_Tracked(rem * inv, _scaled(rep, inv), t.sugar, t.exps))
    reduced.sort(key=lambda t: t.poly.lm(), reverse=True)
    return GroebnerBasis(ring, inputs, reduced, reps)


def ideal_member(f: Poly, gens):
    """Decide f in (gens) + (relations of f's ring); on success return an
    exact MembershipCertificate over the generators and the relations."""
    return membership_with_basis(f, groebner(list(gens), f.ring, reps=True))


def membership_with_basis(f: Poly, gb: GroebnerBasis):
    """Decide f in the ideal of ``gb``, a basis built with ``reps=True``;
    on success return an exact MembershipCertificate.  Raises
    ``ValueError`` for a basis without cofactors, which could not back the
    certificate."""
    if gb.reps is None:
        raise ValueError("membership needs a basis built with cofactors (groebner(..., reps=True))")
    rem, quots = _divide(f, gb.generators)
    if not rem.is_zero():
        return False, None
    parts = [(c, m, r) for q, r in zip(quots, gb.reps) for m, c in q.terms]
    cof = _combination(f.ring, parts, len(gb.inputs))
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


def colon(gens, f: Poly) -> list:
    """Reduced Groebner basis of ((gens) + relations : f) in f's quotient ring.

    ``gens`` is either generators or a ``GroebnerBasis`` of f's ring; a
    basis of another ring raises ``ValueError``.  Generators are first
    turned into their basis (no generators: the relation alone, its own
    basis), so both forms take one path.  With ``r = NF_I(f)`` the normal
    form modulo that basis, ``(I : f) = (I : r)`` (Cox, Little and
    O'Shea, *Ideals, Varieties, and Algorithms*, section 4.4): when r is
    zero, f lies in I and the colon is the unit ideal, unless f is zero in
    the quotient, which raises ``ZeroDivisionError``; otherwise the
    result is (1/r) * (I intersect (r)), eliminated from the basis of I
    and the shorter r.
    """
    ring = f.ring
    if isinstance(gens, GroebnerBasis):
        if gens.ring is not ring:
            raise ValueError("colon needs a Groebner basis of f's ring")
        basis = list(gens)
    else:
        gens = list(gens)
        basis = list(groebner(gens, ring)) if gens else list(ring.relations)
    r = normal_form(f, basis)
    if r.is_zero():
        if normal_form(f, ring.relations).is_zero():
            raise ZeroDivisionError(f"{format_poly(f)} reduces to zero in the quotient ring")
        return [ring.one()]
    quotients = [exact_divide(g, r) for g in intersect(basis, [r], ring)]
    return list(groebner(quotients, ring).generators)
