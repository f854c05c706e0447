import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import padic
from closurelab.groebner import exact_divide
from closurelab.polynomials import Poly, format_poly


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
        assert all(mono[0] <= 2 for mono, _ in f.terms)

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
        f = Poly(m.ring, {mono: m.domain.from_int(c) for mono, c in terms.items()})
        r = m.canon(f)
        assert all(mono[0] <= 2 for mono, _ in r.terms)
        rel = m.ring.relations[0]
        q = exact_divide(f - r, rel)
        assert q * rel + r == f


class TestHonestRuns:
    def test_alpha_x(self):
        m = padic.model(5, 4)
        tr = padic.successive_approx(m.parse("x"), padic.honest_oracle(m), 4)
        assert tr.A == m.ring.one()
        assert tr.B.is_zero()
        assert all(s.c.is_zero() for s in tr.steps)
        assert padic.verify_trace(tr, m.parse("x"))

    def test_alpha_z_cubed(self):
        m = padic.model(5, 4)
        tr = padic.successive_approx(m.parse("z^3"), padic.honest_oracle(m), 4)
        assert tr.A == m.canon(-(m.ring.var("x") ** 2))
        assert tr.B == m.canon(-(m.ring.var("y") ** 2))
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
        alpha = m.canon(m.ring.var("x") + m.ring.var("y") * m.domain.from_int(25))
        tr = padic.successive_approx(alpha, padic.adversarial_oracle(m, seed=3), 4)
        assert padic.verify_trace(tr, alpha)
        assert m.equal(tr.A * m.x + tr.B * m.y, alpha)
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
            assert m.equal(t1.A * m.x + t1.B * m.y, t2.A * m.x + t2.B * m.y)

    def test_telescoping_at_every_stage(self):
        m = padic.model(2, 6)
        rng = random.Random(31)
        alpha = padic.random_xy_element(m, rng)
        tr = padic.successive_approx(alpha, padic.adversarial_oracle(m, seed=9), 6)
        for k in range(1, 7):
            A, B = tr.partial_sums(k)
            c_k = tr.steps[k - 1].c
            lhs = m.canon(A * m.x + B * m.y + c_k * m.domain.from_int(2 ** k))
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

    def test_digit_slice_rejects_bad_divisibility(self):
        m = padic.model(5, 3)
        with pytest.raises(AssertionError):
            m.digit_slice(m.parse("x"), 1)
