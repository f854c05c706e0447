"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact (zero polynomial / exact fractions); runtime caps
are asserted with time.monotonic.
"""

import random
import time
from fractions import Fraction

from closurelab import charp, isogeny, padic, tower
from closurelab.coefficients import CycloNum, PrimeField, QQ
from closurelab.experiments import run_experiment
from closurelab.groebner import groebner, ideal_member, normal_form
from closurelab.polynomials import RingPresentation
from test_groebner import mono_divides
from test_polynomials import exponent_terms


def _report(num: int, description: str, ok: bool, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"[{status}] criterion {num}: {description}{timing}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_tower_identities():
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        checks = tower.verify_level(n)
        ok &= len(checks) == 3 and all(c.passed for c in checks)
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _report(1, "tower identities exact at levels 1..3", ok, elapsed)


def test_criterion_02_valuation_decay():
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        probe = tower.colon_probe(n)
        ok &= probe.witness.verify()
        ok &= probe.min_valuation <= Fraction(1, 3 ** n)
        ok &= probe.recurrence_lhs == sum(probe.recurrence_rhs)
        ok &= probe.recurrence_lhs == Fraction(1, 3 ** (n - 1))
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _report(2, "verified colon certificates with valuation <= 3^-n and exact recurrence", ok, elapsed)


def test_criterion_03_colon_ideal_proper():
    start = time.monotonic()
    ok = all(tower.z2_not_in_xy(n) for n in (0, 1, 2))
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _report(3, "z^2 outside (x, y) at levels 0..2 by exact Groebner decision", ok, elapsed)


def test_criterion_04_splinter_retraction():
    level = tower.build_level(1)
    ring = level.ring
    base = tower.build_level(0).ring
    basis = tower.relation_basis(1)
    ok = tower.trace_retraction(ring.one()) == ring.one()
    ok &= tower.trace_retraction(ring.var("x1")).is_zero()
    rng = random.Random(2025)

    def rand_poly(r, max_exp=4, terms=4):
        out = r.zero()
        for _ in range(terms):
            exps = tuple(rng.randrange(0, max_exp) for _ in r.variables)
            coeff = CycloNum([Fraction(rng.randrange(-3, 4)) for _ in range(6)])
            out = out + r.monomial(exps, coeff)
        return out

    for _ in range(100):
        s = rand_poly(ring)
        a = rand_poly(base, max_exp=3, terms=2)
        ea = tower.embed(a, 0, 1)
        pi_s = tower.trace_retraction(s)
        ok &= tower.trace_retraction(pi_s) == pi_s
        ok &= normal_form(tower.trace_retraction(ea * s) - ea * pi_s, basis).is_zero()
        ok &= normal_form(tower.trace_retraction(ea) - ea, basis).is_zero()
    _report(4, "retraction idempotent, linear over the base, fixing the embedded copy (100 pairs)", ok)


def test_criterion_05_contradiction_bound():
    rng = random.Random(404)
    ok = True
    for _ in range(1000):
        delta = Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
        vz = Fraction(rng.randrange(1, 80), rng.randrange(1, 50))
        result = tower.contradiction_bound(delta, vz)
        n_sim = 1
        while (2 * n_sim + 1) * delta <= vz:
            n_sim += 1
        ok &= result.n == n_sim
        ok &= (2 * result.n + 1) * delta > vz
        if result.n > 1:
            ok &= (2 * (result.n - 1) + 1) * delta <= vz
        ok &= result.replay[-1] == (2 * result.n + 1) * delta
    _report(5, "contradiction bound matches direct simulation on 1000 pairs, minimally", ok)


def test_criterion_06_groebner_kernel_soundness():
    rng = random.Random(606)
    ok = True
    instances = 0
    while instances < 50:
        nvars = rng.randrange(2, 4)
        ring = RingPresentation(QQ, ("x", "y", "z")[:nvars])
        gen_monos = []
        for _ in range(rng.randrange(1, 4)):
            m = [0] * nvars
            for _ in range(rng.randrange(1, 5)):
                m[rng.randrange(nvars)] += 1
            gen_monos.append(tuple(m))
        gens = [ring.monomial(m) for m in gen_monos]

        # membership of a random polynomial against the divisibility oracle
        terms = {}
        for _ in range(3):
            m = tuple(rng.randrange(0, 5) for _ in range(nvars))
            terms[m] = Fraction(rng.randrange(-4, 5))
        f = ring.poly(terms)
        member, cert = ideal_member(f, gens)
        expected = all(
            any(mono_divides(g, m) for g in gen_monos) for m, _ in exponent_terms(f)
        )
        ok &= member == expected
        if member:
            ok &= cert.verify()

        # colon against the brute-force enumeration oracle
        f_mono = [0] * nvars
        for _ in range(rng.randrange(0, 3)):
            f_mono[rng.randrange(nvars)] += 1
        from closurelab.groebner import colon as colon_op

        colon_gens = colon_op(gens, ring.monomial(tuple(f_mono)))
        gb = groebner(colon_gens, ring)

        def monomials_up_to(d):
            def rec(prefix, slots):
                if slots == 0:
                    yield tuple(prefix)
                    return
                for e in range(d + 1):
                    if sum(prefix) + e <= d:
                        yield from rec(prefix + [e], slots - 1)

            yield from rec([], nvars)

        for m in monomials_up_to(6):
            shifted = tuple(a + b for a, b in zip(m, f_mono))
            expected = any(mono_divides(g, shifted) for g in gen_monos)
            ok &= normal_form(ring.monomial(m), gb).is_zero() == expected
        instances += 1
    _report(6, "colon and membership agree with brute-force oracles on 50 monomial instances", ok)


def test_criterion_07_char_p_contrast():
    start = time.monotonic()
    ring2 = charp.fermat_ring(2)
    x, y, z = ring2.parse("x"), ring2.parse("y"), ring2.parse("z")
    # the exact identity z^4 = x^2*(x*z) + y^2*(y*z) + z*(relation)
    ok = z ** 4 == x ** 2 * (x * z) + y ** 2 * (y * z) + z * ring2.relations[0]
    ok &= charp.frobenius_closure_test(ring2.parse("z^2"), [x, y], 1) is True

    ring7 = charp.fermat_ring(7)
    gens7 = [ring7.parse("x"), ring7.parse("y")]
    ok &= not normal_form(ring7.parse("z^2"), groebner(gens7, ring7)).is_zero()
    ok &= charp.frobenius_closure_test(ring7.parse("z^2"), gens7, 1) is False
    c = charp.find_multiplier(ring7.parse("z^2"), gens7, 3, 2)
    ok &= c is not None and c.degree() <= 3
    ok &= all(charp.tight_closure_witness(ring7.parse("z^2"), gens7, c, 2))
    report = run_experiment("charp", {"p": 7})
    golden = [ch for ch in report.checks if ch["name"] == "p7/golden_multiplier"][0]
    ok &= golden["status"] == "pass"
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _report(7, "char-p contrast: closure dichotomy at p = 2 and p = 7 with frozen multiplier", ok, elapsed)


def test_criterion_08_isogeny_instance():
    start = time.monotonic()
    e = isogeny.hesse_double()
    ok = isogeny.verify_endo(e) is True
    field = PrimeField(7)
    points = isogeny.curve_points(7)
    ok &= len(points) >= 3
    agree = sum(
        isogeny.apply_endo_to_point(e, pt, field) == isogeny.chord_tangent_double(pt, field)
        for pt in points
    )
    ok &= agree == len(points)
    ok &= isogeny.membership_digits(e, 2, 1)[0] is True
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _report(8, "doubling lift verified, chord-tangent agreement, membership mod 2", ok, elapsed)


def test_criterion_09_successive_approximation():
    start = time.monotonic()
    ok = True
    count = 0
    for p, precision in ((2, 6), (5, 4)):
        m = padic.model(p, precision)
        rng = random.Random(909 + p)
        for k in range(10):
            alpha = padic.random_xy_element(m, rng)
            trace = padic.successive_approx(
                alpha, padic.adversarial_oracle(m, seed=k), precision
            )
            ok &= padic.verify_trace(trace, alpha)
            for i, step in enumerate(trace.steps, start=1):
                if i >= 2:
                    ok &= min(m.coeff_val_floor(step.a), m.coeff_val_floor(step.b)) >= i - 1
            for stage in range(1, precision + 1):
                A, B = trace._replace(steps=trace.steps[:stage]).sums
                c_k = trace.steps[stage - 1].c
                total = m.canon(A * m.x + B * m.y + c_k * m.domain.coerce(p ** stage))
                ok &= total == m.canon(alpha)
            count += 1
    ok &= count == 20
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _report(9, "20 adversarial approximation runs: ladder and telescoping exact", ok, elapsed)


def test_criterion_10_determinism():
    pairs = []
    for name, config in (
        ("tower-verify", {"max_level": 3}),
        ("tower-colon", {}),
        ("tower-trace", {"pairs": 25, "seed": 1}),
        ("charp", {"p": 7}),
        ("isogeny", {}),
        ("padic", {"samples": 3, "seed": 5}),
    ):
        a = run_experiment(name, config)
        b = run_experiment(name, config)
        pairs.append((a.to_json() == b.to_json(), a.fingerprint() == b.fingerprint()))
    ok = all(body and fp for body, fp in pairs)
    _report(10, "byte-identical report bodies and fingerprints on rerun", ok)
