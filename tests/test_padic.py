import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import padic
from closurelab.charp import fermat_ring
from closurelab.groebner import exact_divide, groebner, membership_with_basis, normal_form
from closurelab.polynomials import Poly, format_poly
from test_polynomials import exponent_terms


class TestRegularSequence:
    def test_known_good_cases(self):
        assert padic.regular_sequence_check(5, 3) is True
        assert padic.regular_sequence_check(2, 4) is True
        assert padic.regular_sequence_check(7, 2) is True

    def test_char_three_rejected(self):
        with pytest.raises(ValueError, match="characteristic 3"):
            padic.regular_sequence_check(3, 2)

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            padic.regular_sequence_check(5, 0)


class TestCanonicalForm:
    def test_z_cube_rewrites(self):
        m = padic.model(5, 3)
        canon = m.parse("z^3")
        assert format_poly(canon) == "124*x^3 + 124*y^3"  # -1 mod 5^3

    def test_deep_rewrite_terminates(self):
        m = padic.model(2, 4)
        f = m.parse("z^7*x + z^4*y^2 + z^2")
        assert all(mono[0] <= 2 for mono, _ in exponent_terms(f))

    def test_canonical_arithmetic_respects_relation(self):
        m = padic.model(5, 3)
        rel = m.ring.relations[0]
        assert m.canon(rel).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(
        pn=st.sampled_from([(2, 4), (5, 1), (5, 3), (7, 2)]),
        terms=st.dictionaries(
            st.tuples(st.integers(0, 9), st.integers(0, 4), st.integers(0, 4)),
            st.integers(0, 10 ** 6),
            max_size=6,
        ),
    )
    def test_canon_is_a_remainder_modulo_the_relation(self, pn, terms):
        m = padic.model(*pn)
        f = m.ring.poly({mono: m.domain.coerce(c) for mono, c in terms.items()})
        r = m.canon(f)
        assert all(mono[0] <= 2 for mono, _ in exponent_terms(r))
        rel = m.ring.relations[0]
        q = exact_divide(f - r, rel)
        assert q * rel + r == f

    @settings(max_examples=100, deadline=None)
    @given(
        pn=st.sampled_from([(2, 4), (5, 1), (5, 3), (7, 2)]),
        z_max=st.sampled_from([2, 5]),
        data=st.data(),
    )
    def test_canon_matches_the_normal_form(self, pn, z_max, data):
        """``canon`` keeps the terms ``normal_form`` gives, on elements of T_N
        with and without z^(>=3) terms; an input that is already canonical
        comes back as it is."""
        m = padic.model(*pn)
        terms = data.draw(
            st.dictionaries(
                st.tuples(st.integers(0, z_max), st.integers(0, 4), st.integers(0, 4)),
                st.integers(0, 10 ** 6).map(m.domain.coerce),
                max_size=8,
            )
        )
        f = m.ring.poly(terms)
        r = m.canon(f)
        assert r.terms == normal_form(f, m.ring.relations).terms
        if all(z <= 2 for (z, _, _), _ in exponent_terms(f)):
            assert r is f


class TestHonestRuns:
    def test_alpha_x(self):
        m = padic.model(5, 4)
        tr = padic.successive_approx(m.parse("x"), padic.honest_oracle(m), 4)
        A, B = tr.sums
        assert A == m.ring.one()
        assert B.is_zero()
        assert all(s.c.is_zero() for s in tr.steps)
        assert padic.verify_trace(tr, m.parse("x"))

    def test_alpha_z_cubed(self):
        m = padic.model(5, 4)
        tr = padic.successive_approx(m.parse("z^3"), padic.honest_oracle(m), 4)
        assert tr.sums == (m.canon(-(m.ring.var("x") ** 2)), m.canon(-(m.ring.var("y") ** 2)))
        assert padic.verify_trace(tr, m.parse("z^3"))

    def test_alpha_outside_xy_obstructs(self):
        m = padic.model(5, 3)
        with pytest.raises(padic.LiftingObstructionError):
            padic.successive_approx(m.parse("z^2"), padic.honest_oracle(m), 3)

    def test_final_residual_vanishes_for_xy_inputs(self):
        m = padic.model(2, 5)
        rng = random.Random(55)
        for _ in range(8):
            alpha = padic.random_xy_element(m, rng)
            tr = padic.successive_approx(alpha, padic.honest_oracle(m), 5)
            assert tr.steps[-1].c.is_zero()


class TestAdversarialRuns:
    def test_spec_style_perturbation(self):
        # alpha = x + p^2*y, oracle injects a spurious syzygy at every step
        m = padic.model(5, 4)
        alpha = m.canon(m.ring.var("x") + m.ring.var("y") * m.domain.coerce(25))
        tr = padic.successive_approx(alpha, padic.adversarial_oracle(m, seed=3), 4)
        assert padic.verify_trace(tr, alpha)
        A, B = tr.sums
        assert m.equal(A * m.x + B * m.y, alpha)
        for i, step in enumerate(tr.steps, start=1):
            if i >= 2:
                assert min(m.coeff_val_floor(step.a), m.coeff_val_floor(step.b)) >= i - 1

    def test_divisibility_ladder_random_batch(self):
        for p, n in ((2, 6), (5, 4)):
            m = padic.model(p, n)
            rng = random.Random(17)
            for k in range(6):
                alpha = padic.random_xy_element(m, rng)
                tr = padic.successive_approx(alpha, padic.adversarial_oracle(m, seed=k), n)
                assert padic.verify_trace(tr, alpha)

    def test_oracle_independence(self):
        # different oracles may give different (A, B); the represented element
        # must agree, i.e. they differ by a syzygy of (x, y)
        m = padic.model(5, 4)
        rng = random.Random(23)
        for k in range(4):
            alpha = padic.random_xy_element(m, rng)
            t1 = padic.successive_approx(alpha, padic.honest_oracle(m), 4)
            t2 = padic.successive_approx(alpha, padic.adversarial_oracle(m, seed=k), 4)
            (A1, B1), (A2, B2) = t1.sums, t2.sums
            assert m.equal(A1 * m.x + B1 * m.y, A2 * m.x + B2 * m.y)

    def test_telescoping_at_every_stage(self):
        m = padic.model(2, 6)
        rng = random.Random(31)
        alpha = padic.random_xy_element(m, rng)
        tr = padic.successive_approx(alpha, padic.adversarial_oracle(m, seed=9), 6)
        for k in range(1, 7):
            A, B = tr.partial_sums(k)
            c_k = tr.steps[k - 1].c
            lhs = m.canon(A * m.x + B * m.y + c_k * m.domain.coerce(2 ** k))
            assert lhs == m.canon(alpha)


class TestVerifyTrace:
    def test_detects_tampered_divisibility(self):
        m = padic.model(5, 4)
        alpha = m.canon(m.ring.var("x") * m.ring.var("y"))
        tr = padic.successive_approx(alpha, padic.adversarial_oracle(m, seed=1), 4)
        steps = list(tr.steps)
        bad = padic.ApproxStep(a=m.canon(steps[1].a + m.ring.one()), b=steps[1].b, c=steps[1].c)
        steps[1] = bad
        tampered = padic.ApproxTrace(p=5, precision=4, alpha=tr.alpha, steps=tuple(steps))
        assert padic.verify_trace(tampered, alpha) is False

    def test_detects_wrong_alpha(self):
        m = padic.model(5, 4)
        tr = padic.successive_approx(m.parse("x"), padic.honest_oracle(m), 4)
        assert padic.verify_trace(tr, m.parse("y")) is False


def _reference_partial_sums(trace, k):
    """``partial_sums(k)`` as it is defined: a fresh sum of steps 1..k."""
    m = padic.model(trace.p, trace.precision)
    A = m.ring.zero()
    B = m.ring.zero()
    for s in trace.steps[:k]:
        A = A + s.a
        B = B + s.b
    return m.canon(A), m.canon(B)


def _reference_verify_trace(trace, alpha):
    """``verify_trace`` as it was before the running sums: the partial sums
    are re-added from scratch at every stage k."""
    m = padic.model(trace.p, trace.precision)
    alpha = m.canon(alpha)
    p = trace.p
    for i, s in enumerate(trace.steps, start=1):
        if i >= 2:
            lowest = min(m.coeff_val_floor(s.a), m.coeff_val_floor(s.b))
            if lowest < i - 1:
                return False
    for k in range(1, len(trace.steps) + 1):
        A, B = _reference_partial_sums(trace, k)
        c_k = trace.steps[k - 1].c
        total = m.canon(A * m.x + B * m.y + c_k * m.domain.coerce(p ** k))
        if total != alpha:
            return False
    return True


@st.composite
def _traces(draw):
    """An honest or adversarial trace of a random (x, y) element, maybe with
    one step's a, b or c shifted by r * p^j.  r is a random element or a
    multiple of the relation (zero in T_N but not canonical), and j runs up
    to N, so some tampered traces still verify."""
    p, n = draw(st.sampled_from([(2, 4), (5, 3), (7, 2), (5, 8)]))
    m = padic.model(p, n)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    alpha = padic.random_xy_element(m, rng)
    if draw(st.booleans()):
        oracle = padic.adversarial_oracle(m, seed=rng.randrange(1000))
    else:
        oracle = padic.honest_oracle(m)
    trace = padic.successive_approx(alpha, oracle, n)
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        field = draw(st.sampled_from("abc"))
        r = m.random_poly(rng, max_degree=2, terms=2)
        if draw(st.booleans()):
            r = r * m.ring.relations[0]
        shift = r * m.domain.coerce(p ** draw(st.integers(0, n)))
        steps = list(trace.steps)
        parts = {f: getattr(steps[i], f) for f in "abc"}
        parts[field] = parts[field] + shift
        steps[i] = padic.ApproxStep(**parts)
        trace = padic.ApproxTrace(p=p, precision=n, alpha=trace.alpha, steps=tuple(steps))
    return trace, alpha


class TestRunningSums:
    @settings(max_examples=60, deadline=None)
    @given(case=_traces())
    def test_verdict_matches_the_quadratic_definition(self, case):
        trace, alpha = case
        assert padic.verify_trace(trace, alpha) == _reference_verify_trace(trace, alpha)
        for k in range(len(trace.steps) + 1):
            assert trace.partial_sums(k) == _reference_partial_sums(trace, k)

    def test_prefix_sums_add_each_step_once(self, monkeypatch):
        n = 8
        m = padic.model(5, n)
        alpha = padic.random_xy_element(m, random.Random(8))
        trace = padic.successive_approx(alpha, padic.adversarial_oracle(m, seed=8), n)
        summands = {id(s.a) for s in trace.steps} | {id(s.b) for s in trace.steps}
        calls = 0
        original = Poly.__add__

        def counted(self, other):
            nonlocal calls
            calls += id(self) in summands or id(other) in summands
            return original(self, other)

        monkeypatch.setattr(Poly, "__add__", counted)
        assert padic.verify_trace(trace, alpha)
        monkeypatch.undo()
        # re-adding steps 1..k at every stage k makes n(n + 1) = 72 additions
        assert calls <= 2 * n


class TestOracles:
    def test_inconsistent_oracle_detected(self):
        m = padic.model(5, 3)

        def lying_oracle(i, residual):
            return m.ring.one(), m.ring.zero(), m.ring.zero()

        with pytest.raises(padic.OracleInconsistencyError):
            padic.successive_approx(m.parse("y"), lying_oracle, 3)

    def test_scripted_oracle_replay(self):
        m = padic.model(5, 2)
        steps = [
            {"a": "1", "b": "0", "c": "0"},
            {"a": "0", "b": "0", "c": "0"},
        ]
        tr = padic.successive_approx(m.parse("x"), padic.scripted_oracle(m, steps), 2)
        assert padic.verify_trace(tr, m.parse("x"))

    def test_scripted_oracle_exhaustion(self):
        m = padic.model(5, 3)
        with pytest.raises(padic.OracleInconsistencyError, match="no step"):
            padic.successive_approx(m.parse("x"), padic.scripted_oracle(m, []), 3)


@lru_cache(maxsize=None)
def _field_bases(p):
    """F_p[x, y, z]/(rel) with the Groebner bases of (0) and (y) in it."""
    ring = fermat_ring(p)
    return ring, groebner([], ring), groebner([ring.parse("y")], ring, reps=True)


def _reference_koszul_correct(m, i, a, b):
    """The Koszul correction one digit at a time over F_p, with a Groebner
    membership certificate per digit: (a, b)/p^j mod p is a syzygy of
    (x, y) modulo the relation, hence t * (y, -x) plus relation multiples,
    and subtracting the lift of that raises the divisibility by one power
    of p."""
    ring, rel_basis, y_basis = _field_bases(m.p)
    xf = ring.parse("x")

    def digit(f, j):
        pj = m.p ** j
        assert all(c % pj == 0 for _, c in f.terms)
        return Poly(ring, {mono: ring.domain.coerce(c // pj) for mono, c in f.terms})

    def lift(f):
        return Poly(m.ring, {mono: m.domain.coerce(c) for mono, c in f.terms})

    for j in range(i - 1):
        abar, bbar = digit(a, j), digit(b, j)
        if abar.is_zero() and bbar.is_zero():
            continue
        member, cert = membership_with_basis(abar, y_basis)
        if not member:
            raise padic.LiftingObstructionError(f"digit {j}: a is not a multiple of y")
        t, w_a = cert.cofactors  # abar = t*y + w_a*rel exactly
        check, quots = normal_form(bbar + t * xf, rel_basis, with_quotients=True)
        if not check.is_zero():
            raise padic.LiftingObstructionError(f"digit {j}: the syzygy does not reproduce b")
        w_b = -quots[0]  # bbar + t*x + w_b*rel = 0 exactly
        pj = m.domain.coerce(m.p ** j)
        rel = m.ring.relations[0]
        a = m.canon(a - (lift(t) * m.ring.var("y") + lift(w_a) * rel) * pj)
        b = m.canon(b + (lift(t) * m.ring.var("x") + lift(w_b) * rel) * pj)
        assert min(m.coeff_val_floor(a), m.coeff_val_floor(b)) >= j + 1
    return a, b


class TestKoszulCorrection:
    @staticmethod
    def _canonical(data, m, max_size=4):
        terms = data.draw(
            st.dictionaries(
                st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)),
                st.integers(1, m.p ** m.precision - 1).map(m.domain.coerce),
                max_size=max_size,
            )
        )
        return m.ring.poly(terms)

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.sampled_from([2, 5, 7]),
        i=st.integers(2, 6),
        extra=st.integers(0, 2),
        kind=st.sampled_from(["syzygy", "a_outside_y", "b_not_reproduced"]),
        data=st.data(),
    )
    def test_matches_the_per_digit_certificates(self, p, i, extra, kind, data):
        """On t * (y, -x) plus parts divisible by p^(i-1) both corrections
        return the same pair; with a low monomial of a that y does not
        divide, or a b that t*x does not reproduce, both refuse."""
        m = padic.model(p, i + extra)
        q = m.domain.coerce(p ** (i - 1))
        t = self._canonical(data, m)
        a = t * m.y + self._canonical(data, m) * q
        b = self._canonical(data, m) * q - t * m.x
        if kind != "syzygy":
            exps = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)))
            if kind == "a_outside_y":
                exps = exps[:2] + (0,)
            mono = m.ring.monomial(exps, m.domain.coerce(data.draw(st.integers(1, p ** (i - 1) - 1))))
            if kind == "a_outside_y":
                a = a + mono
            else:
                b = b + mono
            for correct in (padic._koszul_correct, _reference_koszul_correct):
                with pytest.raises(padic.LiftingObstructionError):
                    correct(m, i, a, b)
            return
        got = padic._koszul_correct(m, i, a, b)
        assert got == _reference_koszul_correct(m, i, a, b)
        assert min(map(m.coeff_val_floor, got)) >= i - 1
        assert m.equal(got[0] * m.x + got[1] * m.y, a * m.x + b * m.y)
