import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import charp
from closurelab.coefficients import QQ, TruncatedPadicRing
from closurelab.groebner import groebner, normal_form
from closurelab.polynomials import EXP_LIMIT, Poly, RingPresentation, format_poly
from test_polynomials import exponent_terms

# the primes of the charp matrix and 11; both classes mod 3 occur
PRIMES = (2, 5, 7, 11, 13)


def rand_fp_poly(rng, ring, max_exp=3, terms=3):
    out = {}
    dom = ring.domain
    for _ in range(terms):
        m = tuple(rng.randrange(0, max_exp) for _ in ring.variables)
        out[m] = dom.coerce(rng.randrange(0, dom.p))
    return ring.poly(out)


def slice_membership_oracle(f: Poly, q: int) -> bool:
    """Independent decision of f in (x^q, y^q) in the quotient: reduce to the
    canonical z-degree <= 2 form, then each z-slice must be monomialwise
    divisible by x^q or y^q (the generators are z-free and the rewrite
    z^3 -> -(x^3 + y^3) is monic)."""
    dom = f.ring.domain
    terms = dict(exponent_terms(f))
    while True:
        high = [m for m in terms if m[0] >= 3]
        if not high:
            break
        m = max(high, key=lambda mm: mm[0])
        c = terms.pop(m)
        z, x, y = m
        for key in ((z - 3, x + 3, y), (z - 3, x, y + 3)):
            val = terms.get(key, dom.zero) - c
            if val:
                terms[key] = val
            elif key in terms:
                del terms[key]
    return all(x >= q or y >= q for (_, x, y), _ in terms.items())


class TestFrobeniusPower:
    def test_first_power(self):
        ring = charp.fermat_ring(2)
        gens = [ring.parse("x"), ring.parse("y")]
        assert [format_poly(g) for g in charp.frobenius_power(gens, 1)] == ["x^2", "y^2"]

    def test_second_power(self):
        ring = charp.fermat_ring(2)
        gens = [ring.parse("x"), ring.parse("y")]
        assert [format_poly(g) for g in charp.frobenius_power(gens, 2)] == ["x^4", "y^4"]

    def test_additive_on_sums(self):
        ring = charp.fermat_ring(5)
        out = charp.frobenius_power([ring.parse("x + y")], 1)
        assert [format_poly(g) for g in out] == ["x^5 + y^5"]

    def test_frobenius_is_ring_endomorphism(self):
        rng = random.Random(40)
        for p in (2, 5, 7):
            ring = charp.fermat_ring(p)
            for _ in range(15):
                f = rand_fp_poly(rng, ring)
                g = rand_fp_poly(rng, ring)
                assert (f + g) ** p == f ** p + g ** p

    def test_negative_exponent_rejected(self):
        ring = charp.fermat_ring(2)
        with pytest.raises(ValueError):
            charp.frobenius_power([ring.parse("x")], -1)

    def test_frobenius_is_the_pth_power(self):
        rng = random.Random(41)
        for p in PRIMES:
            ring = charp.fermat_ring(p)
            for _ in range(10):
                f = rand_fp_poly(rng, ring, max_exp=4, terms=4)
                assert charp.frobenius(f) == f ** p
                if p <= 5:
                    # f ** (p * p) squares its way through dense powers
                    assert charp.frobenius_power([f], 2) == [f ** (p * p)]

    @pytest.mark.parametrize(
        "domain", [TruncatedPadicRing(5, 2), TruncatedPadicRing(7, 4), QQ], ids=lambda d: d.name
    )
    def test_frobenius_refuses_other_domains(self, domain):
        ring = RingPresentation(domain, ("z", "x", "y"))
        with pytest.raises(ValueError, match="only over F_p"):
            charp.frobenius(ring.parse("x + y"))
        with pytest.raises(ValueError, match="only over F_p"):
            charp.frobenius_power([ring.parse("x")], 1)

    def test_frobenius_refuses_exponents_past_the_field(self):
        # at p = 5 the exponent 209716 would scale to 2^20 + 4: past the
        # guard bit and into the next field, which no guard-bit test sees
        ring = charp.fermat_ring(5)
        cap = (EXP_LIMIT - 1) // 5
        assert exponent_terms(charp.frobenius(ring.monomial((0, cap, 1)))) == (
            ((0, 5 * cap, 5), ring.domain.one),
        )
        for exps in ((0, cap + 1, 0), (0, 209716, 0), (cap + 1, 0, 0)):
            with pytest.raises(OverflowError):
                charp.frobenius(ring.monomial(exps) + ring.one())


class TestFrobeniusClosure:
    def test_supersingular_z2_is_in_closure(self):
        for p in (2, 5):
            ring = charp.fermat_ring(p)
            gens = [ring.parse("x"), ring.parse("y")]
            assert charp.frobenius_closure_test(ring.parse("z^2"), gens, 1) is True

    def test_char_two_identity(self):
        # z^4 = x^2*(x*z) + y^2*(y*z) + z*(relation), an exact identity
        ring = charp.fermat_ring(2)
        x, y, z = ring.parse("x"), ring.parse("y"), ring.parse("z")
        rel = ring.relations[0]
        assert z ** 4 == x ** 2 * (x * z) + y ** 2 * (y * z) + z * rel

    def test_ordinary_z2_is_not_in_closure_at_e1(self):
        ring = charp.fermat_ring(7)
        gens = [ring.parse("x"), ring.parse("y")]
        assert charp.frobenius_closure_test(ring.parse("z^2"), gens, 1) is False

    def test_generator_always_in_closure(self):
        for p in (2, 7):
            ring = charp.fermat_ring(p)
            gens = [ring.parse("x"), ring.parse("y")]
            for e in (1, 2):
                assert charp.frobenius_closure_test(ring.parse("x"), gens, e) is True

    def test_zero_ideal_is_decided(self):
        """Over the zero ideal f^q lies in I^[q] + (rel) iff f is zero in the
        quotient: z^2 is not, x times the relation is.  The prime comes from
        f's ring, so the zero ideals over F_7 and F_5 keep separate bases."""
        charp._bracket_basis.cache_clear()
        for p in (7, 5):
            ring = charp.fermat_ring(p)
            multiple = ring.parse("x") * ring.relations[0]
            for e in (0, 1):
                assert charp.frobenius_closure_test(ring.parse("z^2"), [], e) is False
                assert charp.frobenius_closure_test(multiple, [], e) is True
            assert charp._bracket_basis(p, (), 1).ring is ring

    def test_monotone_in_e(self):
        for p in (2, 5):
            ring = charp.fermat_ring(p)
            gens = [ring.parse("x"), ring.parse("y")]
            results = [charp.frobenius_closure_test(ring.parse("z^2"), gens, e) for e in (1, 2)]
            assert results[0] is True and results[1] is True

    def test_matches_slice_oracle(self):
        rng = random.Random(50)
        for p in (2, 5, 7):
            ring = charp.fermat_ring(p)
            gens = [ring.parse("x"), ring.parse("y")]
            for _ in range(10):
                f = rand_fp_poly(rng, ring, max_exp=3, terms=3)
                got = charp.frobenius_closure_test(f, gens, 1)
                assert got == slice_membership_oracle(f ** p, p)


def lucas_binomial_nonzero(k: int, i: int, p: int) -> bool:
    """C(k, i) != 0 mod p, by Lucas's theorem: no base-p digit of i exceeds
    the matching digit of k."""
    while i:
        if i % p > k % p:
            return False
        k, i = k // p, i // p
    return True


def witness_oracle(mono, p: int, e: int) -> bool:
    """Closed-form decision of z^a x^b y^d * z^(2q) in (x^q, y^q), q = p^e.
    With the order (z, x, y), {z^3 + x^3 + y^3, x^q, y^q} is a Groebner basis
    (pairwise coprime leading monomials), and with a + 2q = 3k + r the
    product reduces to (-1)^k z^r x^b y^d (x^3 + y^3)^k; it lies in the ideal
    iff every term with C(k, i) != 0 mod p is divisible by x^q or y^q."""
    a, b, d = mono
    q = p ** e
    k = (a + 2 * q) // 3
    return all(
        b + 3 * i >= q or d + 3 * (k - i) >= q
        for i in range(k + 1)
        if lucas_binomial_nonzero(k, i, p)
    )


class TestBracketCache:
    """``_bracket_basis`` caches I^[q] + (rel) on the generator Polys."""

    def _counts(self):
        info = charp._bracket_basis.cache_info()
        return info.hits, info.misses

    def test_equal_generators_hit_one_entry(self):
        charp._bracket_basis.cache_clear()
        ring = charp.fermat_ring(5)
        first = charp._bracket_basis(5, (ring.parse("x + z"), ring.parse("y")), 1)
        assert self._counts() == (0, 1)
        # equal Polys built afresh share the entry
        assert charp._bracket_basis(5, (ring.parse("x + z"), ring.parse("y")), 1) is first
        assert self._counts() == (1, 1)

    def test_primes_never_share_an_entry(self):
        charp._bracket_basis.cache_clear()
        gens = {p: (charp.fermat_ring(p).parse("x + z"), charp.fermat_ring(p).parse("y")) for p in (5, 7)}
        assert gens[5][0].terms == gens[7][0].terms and gens[5] != gens[7]
        b5, b7 = (charp._bracket_basis(p, gens[p], 1) for p in (5, 7))
        assert self._counts() == (0, 2)
        assert b5.ring is charp.fermat_ring(5) and b7.ring is charp.fermat_ring(7)
        assert b5.generators != b7.generators

    def test_a_ring_without_the_relation_gets_the_quotient_basis(self):
        # the basis is built in fermat_ring(p) whichever compatible ring asks
        # first, so the entry always holds the relation
        charp._bracket_basis.cache_clear()
        fermat = charp.fermat_ring(5)
        bare = RingPresentation(fermat.domain, fermat.variables)
        basis = charp._bracket_basis(5, (bare.parse("x"), bare.parse("y")), 1)
        assert basis.ring is fermat
        assert normal_form(fermat.relations[0], basis).is_zero()
        assert charp._bracket_basis(5, (fermat.parse("x"), fermat.parse("y")), 1) is basis
        assert self._counts() == (1, 1)


class TestFrobeniusLadder:
    @pytest.mark.parametrize("p", PRIMES)
    def test_z2_rungs_match_their_closed_form(self, p):
        """NF(z^(2q)) modulo (x^q, y^q) + (rel), q = p^e.  For q = 1 mod 3
        put m = (q - 1) / 3: z^(2q) = z^2 (z^3)^(2m) reduces to
        z^2 sum_i C(2m, i) x^(3i) y^(3(2m - i)), and only i = m keeps both
        exponents below q, which leaves C(2m, m) z^2 x^(q-1) y^(q-1).  For
        q = 2 mod 3, z^(2q) = z (z^3)^k with 3k = 2q - 1, and no term of
        (x^3 + y^3)^k keeps both exponents below q, so the rung is 0.  When
        p = 2 mod 3 and e is even, C(2m, m) = 0 mod p (Lucas), so every
        rung is 0 for p = 2 mod 3."""
        ring = charp.fermat_ring(p)
        gens = [ring.parse("x"), ring.parse("y")]
        rungs = charp.frobenius_ladder(ring.parse("z^2"), gens, 4)
        for e, rung in enumerate(rungs, 1):
            q = p ** e
            if p % 3 == 2:
                assert rung.is_zero(), (p, e)
            else:
                m = (q - 1) // 3
                assert rung == ring.monomial((2, q - 1, q - 1), comb(2 * m, m)), (p, e)
                assert not rung.is_zero()
        if p == 13:
            assert format_poly(rungs[2]) == "8*z^2*x^2196*y^2196"

    @settings(max_examples=40, deadline=None)
    @given(
        pe=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (5, 1), (5, 2), (7, 1), (7, 2)]),
        gens_text=st.sampled_from([("x", "y"), ("x^2", "y^2 + z*x"), ("x + y", "z*y")]),
        seed=st.integers(0, 2 ** 16),
    )
    def test_each_rung_is_the_normal_form_of_the_full_power(self, pe, gens_text, seed):
        p, e_max = pe
        ring = charp.fermat_ring(p)
        gens = [ring.parse(g) for g in gens_text]
        f = rand_fp_poly(random.Random(seed), ring, max_exp=3, terms=3)
        rungs = charp.frobenius_ladder(f, gens, e_max)
        assert len(rungs) == e_max
        for e, rung in enumerate(rungs, 1):
            basis = charp._bracket_basis(p, tuple(gens), e)
            assert rung == normal_form(f ** (p ** e), basis), (format_poly(f), e)

    def test_zero_rungs_and_negative_exponent(self):
        ring = charp.fermat_ring(7)
        gens = [ring.parse("x"), ring.parse("y")]
        assert charp.frobenius_ladder(ring.parse("x"), gens, 0) == []
        assert all(r.is_zero() for r in charp.frobenius_ladder(ring.parse("x + z*y"), gens, 3))
        with pytest.raises(ValueError):
            charp.frobenius_ladder(ring.parse("x"), gens, -1)


class TestTightClosure:
    def test_witness_with_found_multiplier_p7(self):
        ring = charp.fermat_ring(7)
        gens = [ring.parse("x"), ring.parse("y")]
        c = charp.find_multiplier(ring.parse("z^2"), gens, 3, 2)
        assert c is not None
        assert charp.tight_closure_witness(ring.parse("z^2"), gens, c, 2) == [True, True]

    def test_witness_with_unit_multiplier_p2(self):
        ring = charp.fermat_ring(2)
        gens = [ring.parse("x"), ring.parse("y")]
        assert charp.tight_closure_witness(ring.parse("z^2"), gens, ring.one(), 2) == [True, True]

    def test_generator_with_unit_multiplier(self):
        ring = charp.fermat_ring(5)
        gens = [ring.parse("x"), ring.parse("y")]
        assert charp.tight_closure_witness(ring.parse("x"), gens, ring.one(), 3) == [True] * 3

    def test_matches_the_closed_form_oracle(self):
        # the 20 monomial multipliers of degree <= 3 for each p, at e = 1, 2;
        # every one qualifies except the unit 1 for p = 7, 13
        decided = []
        for p in (2, 5, 7, 13):
            ring = charp.fermat_ring(p)
            gens = [ring.parse("x"), ring.parse("y")]
            z2 = ring.parse("z^2")
            for d in range(4):
                for c in charp.monomials_of_degree(ring, d):
                    got = charp.tight_closure_witness(z2, gens, c, 2)
                    mono = ring.order.exponents(c.lm())
                    assert got == [witness_oracle(mono, p, e) for e in (1, 2)], (p, c)
                    decided += got
        assert len(decided) == 160 and True in decided and False in decided

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.sampled_from(PRIMES),
        e_max=st.integers(1, 4),
        mono=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).filter(
            lambda m: sum(m) <= 6
        ),
    )
    def test_matches_the_closed_form_oracle_over_the_schema_range(self, p, e_max, mono):
        # every e_max and every monomial multiplier up to the schema's
        # deg_bound of 6
        ring = charp.fermat_ring(p)
        gens = [ring.parse("x"), ring.parse("y")]
        got = charp.tight_closure_witness(ring.parse("z^2"), gens, ring.monomial(mono), e_max)
        assert got == [witness_oracle(mono, p, e) for e in range(1, e_max + 1)]

    def test_zero_multiplier_rejected(self):
        ring = charp.fermat_ring(5)
        gens = [ring.parse("x"), ring.parse("y")]
        with pytest.raises(ZeroDivisionError):
            charp.tight_closure_witness(ring.parse("z^2"), gens, ring.relations[0], 1)


class TestFindMultiplier:
    def test_p7_minimal_monomial(self):
        ring = charp.fermat_ring(7)
        c = charp.find_multiplier(ring.parse("z^2"), [ring.parse("x"), ring.parse("y")], 3, 2)
        assert format_poly(c) == "x"

    def test_p2_degree_zero(self):
        ring = charp.fermat_ring(2)
        c = charp.find_multiplier(ring.parse("z^2"), [ring.parse("x"), ring.parse("y")], 0, 2)
        assert format_poly(c) == "1"

    def test_unit_target_has_no_multiplier(self):
        # q = p exceeds the degree bound, so (x^q, y^q) holds no usable form
        for p in (5, 7):
            ring = charp.fermat_ring(p)
            res = charp.find_multiplier(ring.one(), [ring.parse("x"), ring.parse("y")], 3, 1)
            assert res is None

    def test_larger_bound_never_increases_degree(self):
        ring = charp.fermat_ring(7)
        gens = [ring.parse("x"), ring.parse("y")]
        c3 = charp.find_multiplier(ring.parse("z^2"), gens, 3, 1)
        c5 = charp.find_multiplier(ring.parse("z^2"), gens, 5, 1)
        assert c3.degree() >= c5.degree()

    def test_graded_lex_order_of_scan(self):
        # graded-lex with x > y > z; rendering follows the ring's variable order
        ring = charp.fermat_ring(7)
        monos = charp.monomials_of_degree(ring, 2)
        assert [format_poly(m) for m in monos] == ["x^2", "x*y", "z*x", "y^2", "z*y", "z^2"]


class TestIntersectionPath:
    """When no monomial qualifies, find_multiplier intersects the colon
    ideals (I^[q] : f^q) for q = p, p^2."""

    @pytest.mark.parametrize(
        "p, target, deg_bound, expected",
        [
            (5, "1", 3, ["z^3 + x^3 + y^3", "y^25", "x^25"]),
            (7, "z^2", 0, ["y", "x", "z"]),
        ],
    )
    def test_no_multiplier_and_meet_lies_in_both_ideals(self, monkeypatch, p, target, deg_bound, expected):
        calls = []
        intersect = charp.intersect

        def recording(gens_a, gens_b, ring):
            meet = intersect(gens_a, gens_b, ring)
            calls.append((gens_a, gens_b, meet))
            return meet

        monkeypatch.setattr(charp, "intersect", recording)
        ring = charp.fermat_ring(p)
        gens = [ring.parse("x"), ring.parse("y")]
        assert charp.find_multiplier(ring.parse(target), gens, deg_bound, 2) is None
        assert len(calls) == 1
        gens_a, gens_b, meet = calls[0]
        assert [format_poly(g) for g in meet] == expected
        # each side already holds the relations, which groebner adds again
        for side in (gens_a, gens_b):
            basis = groebner(side, ring)
            assert all(normal_form(g, basis).is_zero() for g in meet)


    def test_a_zero_rung_contributes_the_unit_ideal(self, monkeypatch):
        # NF(f^q) = 0 means f^q lies in I^[q]: every c qualifies at that q,
        # so its colon piece is the whole ring and the meet is the e = 1 colon
        ring = charp.fermat_ring(7)
        gens = [ring.parse("x"), ring.parse("y")]
        z2 = ring.parse("z^2")
        (rung1,) = charp.frobenius_ladder(z2, gens, 1)
        monkeypatch.setattr(charp, "frobenius_ladder", lambda f, g, e_max: [rung1, ring.zero()])
        calls = []
        intersect = charp.intersect

        def recording(gens_a, gens_b, ring):
            meet = intersect(gens_a, gens_b, ring)
            calls.append((gens_b, meet))
            return meet

        monkeypatch.setattr(charp, "intersect", recording)
        assert charp.find_multiplier(z2, gens, 0, 2) is None
        ((gens_b, meet),) = calls
        assert groebner(gens_b, ring).generators == (ring.one(),)
        expected = groebner(charp.colon(charp.frobenius_power(gens, 1), z2 ** 7, ring), ring)
        assert groebner(meet, ring).generators == expected.generators


class TestContrast:
    @pytest.mark.parametrize("p", [2, 5, 7, 13])
    def test_z2_outside_xy(self, p):
        ring = charp.fermat_ring(p)
        gens = [ring.parse("x"), ring.parse("y")]
        assert not normal_form(ring.parse("z^2"), groebner(gens, ring)).is_zero()

    def test_dichotomy_rows(self):
        row2 = charp.contrast_row(2)
        row7 = charp.contrast_row(7)
        assert row2.frobenius_closure_e1 is True and row2.multiplier == "1"
        assert row7.frobenius_closure_e1 is False and row7.multiplier == "x"
        assert all(row7.witness_checks)
