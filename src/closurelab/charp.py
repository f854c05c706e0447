"""Frobenius powers, Frobenius-closure tests, and tight-closure multiplier
searches in F_p[x, y, z] / (x^3 + y^3 + z^3).

Every membership question here is about ``f^q`` modulo ``I^[q] + (rel)``,
q = p^e, and ``f^q`` itself is never formed: it has thousands of terms at
e = 3, 4.  Over F_p, Frobenius ``g -> g^p`` is a ring endomorphism that
sends ``sum c * m`` to ``sum c * m^p`` (``c^p = c``), and on packed
monomials ``m^p`` is the key times p, which keeps the terms in order
(``frobenius``).  It maps ``I^[p^(e-1)] + (rel)`` into ``I^[p^e] + (rel)``,
because ``rel -> rel^p``.  So with ``NF_e`` the normal form modulo the
Groebner basis of ``I^[p^e] + (rel)``,

    NF_e(f^(p^e)) = NF_e(Frob(NF_(e-1)(f^(p^(e-1))))),

and ``frobenius_ladder`` climbs e = 1..e_max with one Frobenius step and
one normal form per rung.  A normal form is the unique remainder of its
coset, so each rung is exactly ``NF_e(f^q)``; products and colons then use
it in place of ``f^q``, since ``NF(c * f^q) = NF(c * NF(f^q))`` and
``(I : f^q) = (I : NF_I(f^q))``.

Tight closure is only ever tested up to a finite Frobenius exponent e_max;
reports therefore state "verified for e <= e_max" rather than claiming the
unbounded statement.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement

from .coefficients import PrimeField
from .groebner import GroebnerBasis, colon, groebner, intersect, normal_form
from .polynomials import EXP_LIMIT, Poly, RingPresentation, format_poly


@lru_cache(maxsize=None)
def fermat_ring(p: int) -> RingPresentation:
    """F_p[x, y, z] / (x^3 + y^3 + z^3); rejects p = 3."""
    return RingPresentation(PrimeField(p), ("z", "x", "y"), relations=["z^3 + x^3 + y^3"])


def frobenius(g: Poly) -> Poly:
    """g^p over F_p: each coefficient stays (c^p = c) and each packed
    monomial is multiplied by p, which keeps the terms in order.  Raises
    ``ValueError`` over any other domain and ``OverflowError`` when an
    exponent of g^p would reach ``EXP_LIMIT``."""
    ring = g.ring
    if getattr(ring.domain, "precision", None) != 1:
        raise ValueError(f"Frobenius is a ring map only over F_p, not over {ring.domain.name}")
    p = ring.domain.p
    order = ring.order
    # a field times p can carry past its guard bit, so the exponents are
    # bounded before scaling: m divides bound iff every exponent is <= the cap
    bound = order.key(((EXP_LIMIT - 1) // p,) * len(ring.variables))
    for m, _ in g.terms:
        if not order.divides(m, bound):
            raise OverflowError(f"a monomial exponent of the p-th power reached {EXP_LIMIT}")
    return Poly._presorted(ring, tuple((p * m, c) for m, c in g.terms))


def exponent_bound(p: int, e_max: int, deg_bound: int) -> int:
    """An exponent at least as large as any that ``contrast_row(p, e_max,
    deg_bound)`` forms through ``frobenius`` or a multiplier product.  The
    bracket generators reach x^q and y^q, q = p^e_max; the first rung
    z^(2p); a later rung's normal form keeps z below 3 and x, y below the
    previous q, so its Frobenius stays below q; and a multiplier c of
    degree <= deg_bound times a rung stays below q + deg_bound.  Every one
    of those lies below this bound, so ``frobenius`` raises no
    ``OverflowError`` when it is below ``EXP_LIMIT``."""
    return max(p ** e_max, 2 * p) + deg_bound


def frobenius_power(gens, e: int) -> list[Poly]:
    """Bracket power I^[q]: the q-th powers of the generators, q = p^e."""
    if e < 0:
        raise ValueError("Frobenius exponent must be >= 0")
    out = list(gens)
    for _ in range(e):
        out = [frobenius(g) for g in out]
    return out


@lru_cache(maxsize=None)
def _bracket_basis(p: int, gens: tuple[Poly, ...], e: int) -> GroebnerBasis:
    """Groebner basis of I^[p^e] + (rel) over F_p, cached on p and the
    generator ``Poly``s, so no two primes share an entry (not even for the
    zero ideal, ``gens == ()``).  The basis is built in ``fermat_ring(p)``
    whatever the generators' ring, so a compatible ring without the
    relation cannot alias an entry."""
    return groebner(frobenius_power(gens, e), fermat_ring(p))


def frobenius_ladder(f: Poly, gens, e_max: int) -> list[Poly]:
    """[NF_e(f^(p^e)) for e = 1..e_max], NF_e the normal form modulo
    I^[p^e] + (rel): each rung is the Frobenius of the one below, reduced
    once (see the module docstring for why that is exact)."""
    if e_max < 0:
        raise ValueError("Frobenius exponent must be >= 0")
    gens = tuple(gens)
    out = []
    g = f
    for e in range(1, e_max + 1):
        g = normal_form(frobenius(g), _bracket_basis(f.ring.domain.p, gens, e))
        out.append(g)
    return out


def frobenius_closure_test(f: Poly, gens, e: int) -> bool:
    """True iff f^q lies in I^[q] in the quotient ring, q = p^e."""
    if e == 0:
        return normal_form(f, _bracket_basis(f.ring.domain.p, tuple(gens), 0)).is_zero()
    return frobenius_ladder(f, gens, e)[-1].is_zero()


def tight_closure_witness(f: Poly, gens, c: Poly, e_max: int) -> list[bool]:
    """For e = 1..e_max, whether c * f^(p^e) lies in I^[p^e] in the quotient;
    c is tested against the relation whichever compatible ring it has."""
    if normal_form(c, fermat_ring(f.ring.domain.p).relations).is_zero():
        raise ZeroDivisionError("multiplier reduces to zero in the quotient ring")
    gens = tuple(gens)
    return [
        normal_form(c * fe, _bracket_basis(f.ring.domain.p, gens, e)).is_zero()
        for e, fe in enumerate(frobenius_ladder(f, gens, e_max), 1)
    ]


_LEX_NAMES = ("x", "y", "z")


def monomials_of_degree(ring: RingPresentation, d: int):
    """Degree-d monomials in graded-lex order with x > y > z."""
    idx = [ring.variables.index(v) for v in _LEX_NAMES]
    seen = []
    for combo in combinations_with_replacement(range(len(_LEX_NAMES)), d):
        e = [0] * len(ring.variables)
        for c in combo:
            e[idx[c]] += 1
        seen.append(tuple(e))
    # graded-lex: sort by exponents of (x, y, z) descending
    seen.sort(key=lambda m: tuple(-m[i] for i in idx))
    return [ring.monomial(m) for m in seen]


def find_multiplier(f: Poly, gens, deg_bound: int, e_max: int) -> Poly | None:
    """Smallest-degree nonzero homogeneous c with c * f^q in I^[q] for all
    q = p^e, e <= e_max; monomials are scanned first (graded-lex within a
    degree), then the colon ideal decides whether any non-monomial form of
    the remaining degrees exists.
    """
    if deg_bound < 0 or e_max < 1:
        raise ValueError("deg_bound must be >= 0 and e_max >= 1")
    # every bracket basis holds the relation, so f, the scan and the final
    # nonzero test are all read in the quotient ring, whichever compatible
    # ring f has
    ring = fermat_ring(f.ring.domain.p)
    f = f.moved(ring)
    gens = tuple(gens)
    bases = [_bracket_basis(ring.domain.p, gens, e) for e in range(1, e_max + 1)]
    powers = frobenius_ladder(f, gens, e_max)

    def qualifies(c: Poly) -> bool:
        if normal_form(c, ring.relations).is_zero():
            return False
        return all(normal_form(c * fe, b).is_zero() for fe, b in zip(powers, bases))

    for d in range(deg_bound + 1):
        for c in monomials_of_degree(ring, d):
            if qualifies(c):
                return c
    # no monomial worked: the admissible multipliers form the intersection of
    # the colon ideals (I^[q] : f^q) = (I^[q] : NF(f^q)), the unit ideal when
    # that normal form is 0; a qualifying form of degree <= bound exists iff
    # the reduced basis of that intersection contains one that stays nonzero
    # in the quotient
    relations = list(ring.relations)
    current = None
    for fe, basis in zip(powers, bases):
        piece = colon(basis, fe) if fe else [ring.one()]
        current = piece if current is None else intersect(current + relations, piece + relations, ring)
    for g in groebner(current, ring).generators:
        if g.degree() <= deg_bound and not normal_form(g, ring.relations).is_zero():
            return g.monic()
    return None


ContrastRow = namedtuple(
    "ContrastRow",
    "p z2_in_xy frobenius_closure_e1 multiplier multiplier_degree witness_checks",
)


def contrast_row(p: int, e_max: int = 2, deg_bound: int = 3) -> ContrastRow:
    """One line of the ordinary/supersingular experiment matrix for z^2
    against (x, y)."""
    ring = fermat_ring(p)
    z2 = ring.parse("z^2")
    gens = [ring.parse("x"), ring.parse("y")]
    member = frobenius_closure_test(z2, gens, 0)
    frob = frobenius_closure_test(z2, gens, 1)
    c = find_multiplier(z2, gens, deg_bound, e_max)
    checks: tuple[bool, ...] = ()
    if c is not None:
        checks = tuple(tight_closure_witness(z2, gens, c, e_max))
    return ContrastRow(
        p=p,
        z2_in_xy=member,
        frobenius_closure_e1=frob,
        multiplier=format_poly(c) if c is not None else None,
        multiplier_degree=int(c.degree()) if c is not None else None,
        witness_checks=checks,
    )
