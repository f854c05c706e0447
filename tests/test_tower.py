import random
from fractions import Fraction

import pytest

from closurelab import tower
from closurelab.coefficients import CycloNum
from closurelab.groebner import VerificationError, normal_form
from closurelab.polynomials import format_poly


def rand_cyclo(rng):
    return CycloNum([Fraction(rng.randrange(-3, 4)) for _ in range(6)])


def rand_poly(rng, ring, max_exp=4, terms=4):
    out = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randrange(0, max_exp) for _ in ring.variables)
        out = out + ring.monomial(exps, rand_cyclo(rng))
    return out


def rand_homogeneous(rng, ring, degree_steps=3):
    # weighted-homogeneous by construction: all exponent sums equal
    total = rng.randrange(1, degree_steps + 1) * 3
    out = ring.zero()
    for _ in range(3):
        a = rng.randrange(0, total + 1)
        b = rng.randrange(0, total + 1 - a)
        c = total - a - b
        out = out + ring.monomial((a, b, c), rand_cyclo(rng))
    return out


class TestBuildLevel:
    def test_level_zero_has_no_embedding(self):
        level = tower.build_level(0)
        assert level.embed_prev is None
        assert level.ring.weights == (Fraction(1),) * 3

    def test_embedding_of_z(self):
        level = tower.build_level(1)
        z1, x1, y1 = (level.ring.var(v) for v in ("z1", "x1", "y1"))
        assert level.embed_prev["z"] == -(x1 * y1 * z1)

    def test_embedding_of_y_matches_solved_system(self):
        level = tower.build_level(1)
        ring = level.ring
        denom = (CycloNum.zeta_power(2) - CycloNum.zeta_power(5)).inverse()
        expected = (ring.var("x1") ** 3 - ring.var("y1") ** 3) * denom
        assert level.embed_prev["y"] == expected

    def test_defining_system_recovered_exactly(self):
        for n in (1, 2, 3):
            level = tower.build_level(n)
            zv, xv, yv = tower.level_variables(n)
            zp, xp, yp = tower.level_variables(n - 1)
            X, Y = level.embed_prev[xp], level.embed_prev[yp]
            assert level.ring.var(xv) ** 3 == X * CycloNum.zeta_power(1) + Y * CycloNum.zeta_power(2)
            assert level.ring.var(yv) ** 3 == X * CycloNum.zeta_power(1) + Y * CycloNum.zeta_power(5)

    def test_weights_shrink_by_three(self):
        for n in range(4):
            assert tower.build_level(n).ring.weights == (Fraction(1, 3 ** n),) * 3

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            tower.build_level(-1)


class TestVerifyLevel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_identities_pass(self, n):
        checks = tower.verify_level(n)
        assert len(checks) == 3
        assert all(c.passed for c in checks)

    def test_embedding_is_ring_hom(self):
        rng = random.Random(31)
        base = tower.build_level(0).ring
        basis1 = tower.relation_basis(1)
        for _ in range(15):
            f = rand_poly(rng, base, max_exp=3, terms=3)
            g = rand_poly(rng, base, max_exp=3, terms=3)
            diff = tower.embed(f * g, 0, 1) - tower.embed(f, 0, 1) * tower.embed(g, 0, 1)
            assert normal_form(diff, basis1).is_zero()

    def test_embedded_relation_vanishes_at_depth(self):
        rel0 = tower.build_level(0).ring.relations[0]
        for n in (1, 2):
            image = tower.embed(rel0, 0, n)
            assert normal_form(image, tower.relation_basis(n)).is_zero()


class TestValuation:
    def test_generator_valuations(self):
        for n in (0, 1, 2, 3):
            level = tower.build_level(n)
            for base in ("x", "y", "z"):
                assert tower.valuation(level.var(base), level) == Fraction(1, 3 ** n)

    def test_embedded_z_has_valuation_one(self):
        level = tower.build_level(1)
        z_img = tower.embed(tower.build_level(0).ring.parse("z"), 0, 1)
        assert tower.valuation(z_img, level) == Fraction(1)

    def test_zero_is_infinite(self):
        level = tower.build_level(1)
        v = tower.valuation(level.ring.zero(), level)
        assert v is None
        assert tower.valuation(level.ring.relations[0], level) is None

    def test_multiplicativity_and_ultrametric(self):
        rng = random.Random(8)
        for n in (0, 1):
            level = tower.build_level(n)
            for _ in range(25):
                f = rand_poly(rng, level.ring, max_exp=3, terms=3)
                g = rand_poly(rng, level.ring, max_exp=3, terms=3)
                vf, vg = tower.valuation(f, level), tower.valuation(g, level)
                vfg = tower.valuation(f * g, level)
                assert vf is not None and vg is not None
                assert vfg == vf + vg
                vsum = tower.valuation(f + g, level)
                assert vsum is None or vsum >= min(vf, vg)

    def test_compatibility_with_embedding(self):
        rng = random.Random(12)
        for n in (1, 2):
            low = tower.build_level(n - 1)
            high = tower.build_level(n)
            for _ in range(10):
                f = rand_homogeneous(rng, low.ring)
                v_low = tower.valuation(f, low)
                v_high = tower.valuation(tower.embed(f, n - 1, n), high)
                assert v_low == v_high

    def test_decay_recurrence(self):
        for n in (1, 2, 3):
            level = tower.build_level(n)
            zp = tower.variable_images(n - 1, n)[tower.level_variables(n - 1)[0]]
            lhs = tower.valuation(zp, level)
            assert lhs == Fraction(3, 3 ** n) == Fraction(1, 3 ** (n - 1))


class TestColonProbe:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_certificate_and_bound(self, n):
        probe = tower.colon_probe(n)
        assert probe.witness.verify()
        assert probe.min_valuation <= Fraction(1, 3 ** n)
        assert probe.recurrence_lhs == sum(probe.recurrence_rhs)

    def test_level1_cofactor_matches_derived_identity(self):
        probe = tower.colon_probe(1)
        level = tower.build_level(1)
        ring = level.ring
        y1, z1 = ring.var("y1"), ring.var("z1")
        expected_u = y1 * y1 * z1 * z1 * CycloNum.zeta_power(1)
        expected_v = y1 * y1 * z1 * z1 * CycloNum.zeta_power(2)
        assert probe.witness.cofactors[0] == expected_u
        assert probe.witness.cofactors[1] == expected_v

    def test_level1_printed_variant_rejected(self):
        probe = tower.colon_probe(1)
        assert probe.rejected_variant is not None
        assert probe.rejected_variant["expands_to_target"] is False

    def test_full_colon_is_irrelevant_ideal(self):
        for n in (1, 2):
            probe = tower.colon_probe(n)
            gens, min_val = probe.full_colon
            assert sorted(gens) == sorted(tower.level_variables(n))
            assert min_val == Fraction(1, 3 ** n)

    def test_witness_element_is_level_generator(self):
        for n in (1, 2):
            probe = tower.colon_probe(n)
            assert format_poly(probe.witness_element) == tower.level_variables(n)[1]


def _clear_tower_caches():
    for value in vars(tower).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


class TestPowerTable:
    def test_entries_are_fresh_powers(self):
        rng = random.Random(5)
        for n in (1, 2, 3):
            tower.colon_probe(n)
            tower.verify_level(n)
            ring0 = tower.build_level(0).ring
            for _ in range(3):
                f = rand_poly(rng, ring0)
                images = tower.variable_images(0, n)
                # a table-free substitution of the same images
                assert tower.embed(f, 0, n) == f.substitute(images, tower.build_level(n).ring)
        filled = 0
        for n in (1, 2, 3):
            for k in range(n + 1):
                images = tower.variable_images(k, n)
                for (v, e), power in tower.power_table(k, n).items():
                    assert power == images[v] ** e, (k, n, v, e)
                    filled += 1
        assert filled

    def test_a_corrupted_entry_fails_the_certificate(self):
        """The re-expansion of the certificate, not the table, decides: a
        wrong square of y_k makes colon_probe raise."""
        n, k = 3, 2
        _clear_tower_caches()
        try:
            tower.variable_images(0, n)
            yk = tower.level_variables(k)[2]
            table = tower.power_table(k, n)
            assert (yk, 2) in table
            table[yk, 2] = table[yk, 2] + tower.build_level(n).ring.one()
            with pytest.raises(VerificationError, match="does not re-expand"):
                tower.colon_probe(n)
        finally:
            # no later test may see the bad entry
            _clear_tower_caches()
        assert tower.colon_probe(n).witness.verify()


class TestZ2Membership:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_z2_outside_xy(self, n):
        assert tower.z2_not_in_xy(n) is True

    def test_consistency_with_probe(self):
        # the computational heart of non-coherence: z^2 stays outside (x, y)
        # while the colon keeps acquiring elements of valuation 3^-n
        for n in (1, 2):
            assert tower.z2_not_in_xy(n)
            assert tower.colon_probe(n).min_valuation == Fraction(1, 3 ** n)


class TestTraceRetraction:
    def test_unit(self):
        ring = tower.build_level(1).ring
        assert tower.trace_retraction(1, ring.one()) == ring.one()

    def test_character_eigenvector_killed(self):
        ring = tower.build_level(1).ring
        assert tower.trace_retraction(1, ring.var("x1")).is_zero()

    def test_embedded_elements_fixed(self):
        rng = random.Random(5)
        base = tower.build_level(0).ring
        basis = tower.relation_basis(1)
        for _ in range(10):
            f = rand_poly(rng, base, max_exp=3, terms=3)
            ef = tower.embed(f, 0, 1)
            assert normal_form(tower.trace_retraction(1, ef) - ef, basis).is_zero()

    def test_idempotent_and_linear(self):
        rng = random.Random(6)
        ring = tower.build_level(1).ring
        base = tower.build_level(0).ring
        basis = tower.relation_basis(1)
        for _ in range(25):
            s = rand_poly(rng, ring)
            a = rand_poly(rng, base, max_exp=3, terms=2)
            ea = tower.embed(a, 0, 1)
            pi_s = tower.trace_retraction(1, s)
            assert tower.trace_retraction(1, pi_s) == pi_s
            lhs = tower.trace_retraction(1, ea * s)
            assert normal_form(lhs - ea * pi_s, basis).is_zero()

    def test_agrees_with_literal_group_average(self):
        rng = random.Random(14)
        ring = tower.build_level(1).ring
        basis = tower.relation_basis(1)
        for _ in range(10):
            s = rand_poly(rng, ring)
            acc = ring.zero()
            for a in range(3):
                for b in range(3):
                    images = {
                        "x1": ring.var("x1") * CycloNum.zeta_power(3 * a),
                        "y1": ring.var("y1") * CycloNum.zeta_power(3 * b),
                        "z1": ring.var("z1") * CycloNum.zeta_power(3 * ((-a - b) % 3)),
                    }
                    acc = acc + s.substitute(images, ring)
            avg = acc * Fraction(1, 9)
            assert normal_form(avg - tower.trace_retraction(1, s), basis).is_zero()

    def test_wrong_level_rejected(self):
        ring = tower.build_level(2).ring
        with pytest.raises(ValueError):
            tower.trace_retraction(2, ring.one())


class TestContradictionBound:
    def test_examples(self):
        assert tower.contradiction_bound(Fraction(1, 10), 1).n == 5
        assert tower.contradiction_bound(1, 1).n == 1
        assert tower.contradiction_bound(Fraction(1, 3), 1).n == 2

    def test_replay_chain(self):
        result = tower.contradiction_bound(Fraction(1, 10), 1)
        assert result.replay == tuple(Fraction(2 * j + 1, 10) for j in range(1, 6))
        assert result.replay[-1] > result.vz

    def test_against_direct_simulation(self):
        rng = random.Random(100)
        for _ in range(300):
            delta = Fraction(rng.randrange(1, 40), rng.randrange(1, 40))
            vz = Fraction(rng.randrange(1, 60), rng.randrange(1, 40))
            got = tower.contradiction_bound(delta, vz).n
            sim = 1
            while (2 * sim + 1) * delta <= vz:
                sim += 1
            assert got == sim
            if got > 1:
                assert (2 * (got - 1) + 1) * delta <= vz

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tower.contradiction_bound(0, 1)
        with pytest.raises(ValueError):
            tower.contradiction_bound(Fraction(1, 2), -1)
