import random
from fractions import Fraction

import pytest

from closurelab import tower
from closurelab.coefficients import CYCLO, CycloNum
from closurelab.groebner import VerificationError, normal_form
from closurelab.polynomials import RingPresentation, format_poly


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


def _solved_level(n):
    """A_n by the defining system, in its own names: the relation parsed,
    and the images of x_(n-1), y_(n-1) by Cramer's rule from x_n^3 =
    zeta*X + zeta^2*Y and y_n^3 = zeta*X + zeta^5*Y."""
    zv, xv, yv = tower.level_variables(n)
    ring = RingPresentation(
        CYCLO, (zv, xv, yv), (Fraction(1, 3 ** n),) * 3, relations=[f"{zv}^3 + t^3*{xv}^3 + t^6*{yv}^3"]
    )
    a, b, c, d = (CycloNum.zeta_power(k) for k in (1, 2, 1, 5))
    det = (a * d - b * c).inverse()
    xc, yc = ring.parse(f"{xv}^3"), ring.parse(f"{yv}^3")
    zp, xp, yp = tower.level_variables(n - 1)
    return ring, {
        xp: xc * (d * det) - yc * (b * det),
        yp: yc * (a * det) - xc * (c * det),
        zp: ring.parse(f"-{xv}*{yv}*{zv}"),
    }


class TestBuildLevel:
    def test_level_zero_has_no_embedding(self):
        level = tower.build_level(0)
        assert level.ring.weights == (Fraction(1),) * 3

    def test_embedding_of_z(self):
        level = tower.build_level(1)
        z1, x1, y1 = (level.ring.var(v) for v in ("z1", "x1", "y1"))
        assert tower.variable_images(0, 1)["z"] == -(x1 * y1 * z1)

    def test_embedding_of_y_matches_solved_system(self):
        level = tower.build_level(1)
        ring = level.ring
        denom = (CycloNum.zeta_power(2) - CycloNum.zeta_power(5)).inverse()
        expected = (ring.var("x1") ** 3 - ring.var("y1") ** 3) * denom
        assert tower.variable_images(0, 1)["y"] == expected

    def test_defining_system_recovered_exactly(self):
        for n in range(1, 7):
            level = tower.build_level(n)
            zv, xv, yv = tower.level_variables(n)
            zp, xp, yp = tower.level_variables(n - 1)
            images = tower.variable_images(n - 1, n)
            X, Y = images[xp], images[yp]
            assert level.ring.var(xv) ** 3 == X * CycloNum.zeta_power(1) + Y * CycloNum.zeta_power(2)
            assert level.ring.var(yv) ** 3 == X * CycloNum.zeta_power(1) + Y * CycloNum.zeta_power(5)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_renamed_level_is_the_solved_level(self, n):
        """Levels from 1 on are A_0's relation moved under the level-n
        names, and their embedding A_1's solve moved; each equals a parse
        and a solve in A_n itself."""
        level = tower.build_level(n)
        ring, embed = _solved_level(n)
        images = tower.variable_images(n - 1, n)
        assert level.ring.variables == ring.variables
        assert level.ring.weights == ring.weights
        assert level.ring.relations[0].terms == ring.relations[0].terms
        assert set(images) == set(embed)
        for v, img in embed.items():
            assert images[v].ring is level.ring
            assert images[v].terms == img.terms

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
                assert tower.valuation(level.var(base)) == Fraction(1, 3 ** n)

    def test_embedded_z_has_valuation_one(self):
        z_img = tower.embed(tower.build_level(0).ring.parse("z"), 0, 1)
        assert tower.valuation(z_img) == Fraction(1)

    def test_zero_is_infinite(self):
        level = tower.build_level(1)
        v = tower.valuation(level.ring.zero())
        assert v is None
        assert tower.valuation(level.ring.relations[0]) is None

    def test_multiplicativity_and_ultrametric(self):
        rng = random.Random(8)
        for n in (0, 1):
            level = tower.build_level(n)
            for _ in range(25):
                f = rand_poly(rng, level.ring, max_exp=3, terms=3)
                g = rand_poly(rng, level.ring, max_exp=3, terms=3)
                vf, vg = tower.valuation(f), tower.valuation(g)
                vfg = tower.valuation(f * g)
                assert vf is not None and vg is not None
                assert vfg == vf + vg
                vsum = tower.valuation(f + g)
                assert vsum is None or vsum >= min(vf, vg)

    def test_compatibility_with_embedding(self):
        rng = random.Random(12)
        for n in (1, 2):
            low = tower.build_level(n - 1)
            for _ in range(10):
                f = rand_homogeneous(rng, low.ring)
                v_low = tower.valuation(f)
                v_high = tower.valuation(tower.embed(f, n - 1, n))
                assert v_low == v_high

    def test_decay_recurrence(self):
        for n in (1, 2, 3):
            zp = tower.variable_images(n - 1, n)[tower.level_variables(n - 1)[0]]
            lhs = tower.valuation(zp)
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
        _clear_tower_caches()
        for n in (1, 2, 3):
            tower.colon_probe(n)
            tower.verify_level(n)
            ring0 = tower.build_level(0).ring
            for _ in range(3):
                f = rand_poly(rng, ring0)
                images = tower.variable_images(0, n)
                # a table-free substitution of the same images
                assert tower.embed(f, 0, n) == f.substitute(images, tower.build_level(n).ring)
        filled = {}
        for d in range(4):
            images = tower.variable_images(0, d)
            for (v, e), power in tower.power_table(d).items():
                assert power == images[v] ** e, (d, v, e)
                filled[d] = filled.get(d, 0) + 1
        # every depth that the levels 1-3 share holds entries
        assert all(filled.get(d) for d in (1, 2, 3)), filled
        # and each level pair of that depth reads them under its own names
        for n in (1, 2, 3):
            for k in range(n + 1):
                images = tower.variable_images(k, n)
                for vk, v in zip(tower.level_variables(k), tower.level_variables(0)):
                    for e in (1, 2, 3):
                        power = tower.image_power(k, n, vk, e)
                        assert power.ring is tower.build_level(n).ring
                        assert power == images[vk] ** e, (k, n, vk, e)

    def test_a_corrupted_entry_fails_the_certificate(self):
        """The re-expansion of the certificate, not the table, decides: a
        wrong square of the depth-d image of y, which every level reads
        for its level-(n - d) variables, makes colon_probe(3) raise, for
        d = 1 (read by level 2's descent, moved up) and d = 2 (level 3's
        own step)."""
        n = 3
        for d in (1, 2):
            _clear_tower_caches()
            try:
                tower.variable_images(0, n)
                table = tower.power_table(d)
                assert ("y", 2) in table
                table["y", 2] = table["y", 2] + tower.build_level(d).ring.one()
                with pytest.raises(VerificationError, match="does not re-expand"):
                    tower.colon_probe(n)
            finally:
                # no later test may see the bad entry
                _clear_tower_caches()
            assert tower.colon_probe(n).witness.verify()


def _one_step_images(k, n, memo):
    """The images of the level-k variables in A_n as a composition of
    one-step ``substitute`` calls from A_k up to A_n, with no power table
    and nothing moved between levels; ``memo`` keeps them per (k, n)."""
    if (k, n) not in memo:
        ring = tower.build_level(n).ring
        if k == n:
            images = {v: ring.var(v) for v in tower.level_variables(n)}
        else:
            higher = _one_step_images(k + 1, n, memo)
            images = {v: img.substitute(higher, ring) for v, img in tower.variable_images(k, k + 1).items()}
        memo[k, n] = images
    return memo[k, n]


def _top_down_cofactors(n, memo):
    """The probe's cofactors by the descent from y_n^2 z_n^2 through the
    squares of the level-k images for k = n - 1, ..., 1, all in A_n."""
    ring = tower.build_level(n).ring
    t1, t2, t5 = (CycloNum.zeta_power(j) for j in (1, 2, 5))
    zn, _, yn = (ring.var(v) for v in tower.level_variables(n))
    u, v = yn * yn * zn * zn * t1, yn * yn * zn * zn * t2
    for k in range(n - 1, 0, -1):
        _, xk, yk = tower.level_variables(k)
        images = _one_step_images(k, n, memo)
        uy = u * images[yk] ** 2
        vx = v * images[xk] ** 2
        u, v = (uy + vx) * t1, uy * t2 + vx * t5
    return u, v


class TestSharedDepths:
    """A_n over A_k is A_(n-k) over A_0 renamed, so the tower forms each
    depth once and moves it up; these compare against the tower built one
    level pair at a time."""

    def test_images_are_the_one_step_composition(self):
        _clear_tower_caches()
        memo = {}
        for n in range(6):
            for k in range(n + 1):
                images = tower.variable_images(k, n)
                assert images == _one_step_images(k, n, memo), (k, n)
                assert all(f.ring is tower.build_level(n).ring for f in images.values())

    def test_cofactors_are_the_top_down_descent(self):
        _clear_tower_caches()
        memo = {}
        for n in range(1, 6):
            u, v = tower._probe_cofactors(n)
            assert (u, v) == _top_down_cofactors(n, memo), n
            assert u.ring is v.ring is tower.build_level(n).ring


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
        assert tower.trace_retraction(ring.one()) == ring.one()

    def test_character_eigenvector_killed(self):
        ring = tower.build_level(1).ring
        assert tower.trace_retraction(ring.var("x1")).is_zero()

    def test_embedded_elements_fixed(self):
        rng = random.Random(5)
        base = tower.build_level(0).ring
        basis = tower.relation_basis(1)
        for _ in range(10):
            f = rand_poly(rng, base, max_exp=3, terms=3)
            ef = tower.embed(f, 0, 1)
            assert normal_form(tower.trace_retraction(ef) - ef, basis).is_zero()

    def test_idempotent_and_linear(self):
        rng = random.Random(6)
        ring = tower.build_level(1).ring
        base = tower.build_level(0).ring
        basis = tower.relation_basis(1)
        for _ in range(25):
            s = rand_poly(rng, ring)
            a = rand_poly(rng, base, max_exp=3, terms=2)
            ea = tower.embed(a, 0, 1)
            pi_s = tower.trace_retraction(s)
            assert tower.trace_retraction(pi_s) == pi_s
            lhs = tower.trace_retraction(ea * s)
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
            assert normal_form(avg - tower.trace_retraction(s), basis).is_zero()

    def test_wrong_level_rejected(self):
        ring = tower.build_level(2).ring
        with pytest.raises(ValueError):
            tower.trace_retraction(ring.one())


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
