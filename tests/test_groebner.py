import hashlib
import importlib
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from operator import add, le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import coefficients, tower
from closurelab.charp import _bracket_basis, fermat_ring
from closurelab.experiments import run_experiment
from closurelab.coefficients import (
    CYCLO,
    QQ,
    ZZ,
    CycloNum,
    DomainError,
    PrimeField,
    TruncatedPadicRing,
)
from closurelab.groebner import (
    _divide,
    _lift,
    colon,
    elimination_ring,
    exact_divide,
    groebner,
    ideal_member,
    intersect,
    membership_with_basis,
    normal_form,
)
from closurelab.polynomials import LIFT_MIN_TERMS, Poly, RingPresentation, WeightedGrevlex, format_poly
from test_polynomials import _dict_sum, _fraction_key, _schoolbook, exponent_terms


def mono_divides(a, b):
    """True when exponent tuple a divides b componentwise."""
    return all(map(le, a, b))


def fermat_quotient():
    return RingPresentation(
        CYCLO, ("z", "x", "y"), relations=["z^3 + t^3*x^3 + t^6*y^3"]
    )


def rand_qq_poly(rng, ring, max_exp=3, terms=3):
    out = {}
    for _ in range(terms):
        m = tuple(rng.randrange(0, max_exp) for _ in ring.variables)
        out[m] = ring.domain.coerce(Fraction(rng.randrange(-5, 6)))
    return ring.poly(out)


class TestGroebnerExamples:
    def test_unit_ideal(self):
        ring = RingPresentation(QQ, ("x", "y"))
        gb = groebner([ring.one()], ring)
        assert [format_poly(g) for g in gb.generators] == ["1"]

    def test_monomial_ideal_already_a_basis(self):
        ring = RingPresentation(QQ, ("x", "y"))
        gb = groebner([ring.parse("x^2"), ring.parse("x*y")], ring)
        assert sorted(format_poly(g) for g in gb.generators) == ["x*y", "x^2"]

    def test_single_generator_with_fermat_relation(self):
        ring = fermat_quotient()
        gb = groebner([ring.parse("x")], ring)
        texts = sorted(format_poly(g) for g in gb.generators)
        # reduced form of {x, relation restricted to x = 0}
        assert texts == sorted(["x", "z^3 + (-t^3 - 1)*y^3"])

    def test_unsupported_padic_domain(self):
        ring = RingPresentation(TruncatedPadicRing(5, 2), ("x", "y"))
        with pytest.raises(DomainError, match="digit-wise"):
            groebner([ring.parse("x")], ring)

    def test_integers_are_not_a_field(self):
        ring = RingPresentation(ZZ, ("x", "y"))
        with pytest.raises(DomainError, match="field coefficients, not ZZ"):
            groebner([ring.parse("x")], ring)


class TestNormalForm:
    def test_z3_in_xy_modulo_relation(self):
        ring = fermat_quotient()
        gb = groebner([ring.parse("x"), ring.parse("y")], ring)
        assert normal_form(ring.parse("z^3"), gb).is_zero()

    def test_z2_survives(self):
        ring = fermat_quotient()
        gb = groebner([ring.parse("x"), ring.parse("y")], ring)
        assert format_poly(normal_form(ring.parse("z^2"), gb)) == "z^2"

    def test_zero(self):
        ring = fermat_quotient()
        gb = groebner([ring.parse("x")], ring)
        assert normal_form(ring.zero(), gb).is_zero()

    def test_division_refuses_incompatible_rings(self):
        """Division checks its rings once, as Poly arithmetic does: a
        divisor whose variables are in another order, or whose domain
        differs, is refused with the same ValueError."""
        qq_xy = RingPresentation(QQ, ("x", "y"))
        qq_yx = RingPresentation(QQ, ("y", "x"))
        cyclo_xy = RingPresentation(CYCLO, ("x", "y"))
        z5_xy = RingPresentation(TruncatedPadicRing(5, 2), ("x", "y"))
        for target, divisor in [
            (qq_xy, qq_yx),
            (qq_xy, cyclo_xy),
            (cyclo_xy, qq_xy),
            (z5_xy, qq_xy),
            (qq_xy, z5_xy),
        ]:
            f, g = target.parse("x^2"), divisor.parse("x")
            with pytest.raises(ValueError, match="incompatible rings"):
                normal_form(f, [g])
            with pytest.raises(ValueError, match="incompatible rings"):
                exact_divide(f, g)
        gb = groebner([qq_yx.parse("x")], qq_yx, reps=True)
        with pytest.raises(ValueError, match="incompatible rings"):
            membership_with_basis(qq_xy.parse("x^2"), gb)
        # an equal ring built twice is compatible
        again = RingPresentation(QQ, ("x", "y"))
        assert normal_form(qq_xy.parse("x^2 + y"), [again.parse("x")]) == qq_xy.parse("y")

    def test_a_zero_divisor_is_a_zero_division(self):
        """Division checks each divisor once: a zero one raises
        ZeroDivisionError, from normal_form and exact_divide alike."""
        ring = RingPresentation(QQ, ("x", "y"))
        x, zero = ring.parse("x"), ring.zero()
        for call in (
            lambda: normal_form(x, [zero]),
            lambda: normal_form(x, [x, zero]),
            lambda: exact_divide(x, zero),
        ):
            with pytest.raises(ZeroDivisionError, match="zero polynomial"):
                call()

    def test_division_invariant(self):
        # f - NF(f, G) lies in (G), witnessed by the recorded quotients
        ring = fermat_quotient()
        gb = groebner([ring.parse("x + y"), ring.parse("z^2*y")], ring)
        rng = random.Random(4)
        for _ in range(20):
            f = rand_qq_poly(rng, ring, max_exp=4, terms=4)
            rem, quots = _divide(f, gb.generators)
            recombined = rem
            for q, g in zip(quots, gb.generators):
                recombined = recombined + q * g
            assert recombined == f

    def test_confluence_under_generator_reordering(self):
        ring = fermat_quotient()
        gb = groebner([ring.parse("x^2 - y^2"), ring.parse("x*y + z^2")], ring)
        rng = random.Random(9)
        gens = list(gb.generators)
        for _ in range(10):
            f = rand_qq_poly(rng, ring, max_exp=5, terms=5)
            baseline = normal_form(f, gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert normal_form(f, shuffled) == baseline


def _max_scan_divide(f, divisors, track=True):
    """The division loop as it was before the heap: every step scans the
    whole work set for its largest monomial, ranked by the Fraction key, on
    exponent tuples.  It also returns the number of monomials that entered
    the work set after the start."""
    ring = f.ring
    dom = ring.domain
    lms = [exponent_terms(d)[0][0] for d in divisors]
    inv_lcs = [dom.inv(d.lc()) for d in divisors]
    quotients = [dict() for _ in divisors] if track else None
    remainder = {}
    work = dict(exponent_terms(f))
    entered = 0
    order = ring.order
    while work:
        m = max(work, key=lambda m: _fraction_key(order.weights, order.block, m))
        c = work.pop(m)
        if not c:
            continue
        for i, lm in enumerate(lms):
            if mono_divides(lm, m):
                qm = tuple(map(sub, m, lm))
                qc = c * inv_lcs[i]
                if track:
                    qdict = quotients[i]
                    qdict[qm] = qdict.get(qm, dom.zero) + qc
                for dm, dc in exponent_terms(divisors[i])[1:]:
                    key = tuple(map(add, qm, dm))
                    s = work.get(key, dom.zero) - qc * dc
                    if s:
                        entered += key not in work
                        work[key] = s
                    elif key in work:
                        del work[key]
                break
        else:
            remainder[m] = c
    rem = ring.poly(remainder)
    if track:
        return rem, [ring.poly(q) for q in quotients], entered
    return rem, None, entered


@st.composite
def _division_problems(draw):
    """A ring over F_p or QQ, plain or with an elimination block, and a
    polynomial with one to three nonzero divisors in it."""
    p = draw(st.sampled_from([0, 2, 5, 13]))
    base = RingPresentation(QQ, ("z", "x", "y")) if p == 0 else fermat_ring(p)
    ring = elimination_ring(base) if draw(st.booleans()) else base
    dom = ring.domain
    mono = st.tuples(*[st.integers(0, 4)] * len(ring.variables))
    coeff = st.integers(-3, 3).map(dom.coerce)

    def poly(min_terms):
        terms = draw(st.dictionaries(mono, coeff, min_size=min_terms, max_size=6))
        return ring.poly(terms)

    divisors = [d for d in (poly(1) for _ in range(draw(st.integers(1, 3)))) if d]
    if not divisors:
        divisors = [ring.one() + ring.monomial((1,) * len(ring.variables))]
    return poly(0), divisors


class TestHeapDivision:
    @settings(max_examples=200, deadline=None)
    @given(problem=_division_problems(), track=st.booleans())
    def test_matches_the_max_scan_loop(self, problem, track):
        f, divisors = problem
        rem, quots = _divide(f, divisors, track=track)
        ref_rem, ref_quots, _ = _max_scan_divide(f, divisors, track=track)
        assert rem.terms == ref_rem.terms
        if track:
            assert [q.terms for q in quots] == [q.terms for q in ref_quots]
        else:
            assert quots is None

    def test_each_monomial_is_keyed_once_on_entry(self, monkeypatch):
        # z^338 = z^(2 * 13^2) against (x^169, y^169) in the Fermat quotient
        # over F_13: the division expands (x^3 + y^3)^112 term by term.  The
        # monomials are packed keys already, so the division packs none
        ring = fermat_ring(13)
        basis = _bracket_basis(13, (ring.parse("x"), ring.parse("y")), 2)
        f = ring.parse("z^338")
        calls = 0
        key = WeightedGrevlex.key

        def counted(self, exps):
            nonlocal calls
            calls += 1
            return key(self, exps)

        monkeypatch.setattr(WeightedGrevlex, "key", counted)
        rem = normal_form(f, basis)
        monkeypatch.undo()
        ref_rem, _, entered = _max_scan_divide(f, list(basis.generators), track=False)
        assert rem == ref_rem
        assert calls <= len(f.terms) + entered
        assert calls == 0


class TestBuchbergerProperty:
    def test_all_s_polynomials_reduce_to_zero(self):
        # independent confirmation that the output really is a Groebner basis
        rng = random.Random(21)
        ring = RingPresentation(QQ, ("x", "y", "z"))
        for _ in range(8):
            gens = [rand_qq_poly(rng, ring, max_exp=3, terms=3) for _ in range(3)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            gb = groebner(gens, ring)
            key, exponents = ring.order.key, ring.order.exponents
            for g1, g2 in combinations(gb.generators, 2):
                lm1, lm2 = exponents(g1.lm()), exponents(g2.lm())
                lcm = tuple(map(max, lm1, lm2))
                s = g1.mul_term(key(tuple(map(sub, lcm, lm1))), QQ.inv(g1.lc())) - g2.mul_term(
                    key(tuple(map(sub, lcm, lm2))), QQ.inv(g2.lc())
                )
                assert normal_form(s, gb).is_zero()

    def test_generators_reduce_to_zero_against_basis(self):
        rng = random.Random(22)
        ring = RingPresentation(QQ, ("x", "y"))
        for _ in range(10):
            gens = [rand_qq_poly(rng, ring, max_exp=4, terms=3) for _ in range(2)]
            gens = [g for g in gens if g]
            gb = groebner(gens, ring)
            for g in gens:
                assert normal_form(g, gb).is_zero()

    @pytest.mark.parametrize(
        "weights, gens, digest",
        [
            (
                None,
                ["3*z^2*x^3*y^2 + 2*z^2*x^2*y^3", "2*z*x^3*y^3 + 3*z^3"],
                "220933e6636ebf831bcd1e6d8974fb0680260604dc87421fbcb8005eb3c0a320",
            ),
            (
                (1, Fraction(1, 3), Fraction(1, 3)),
                ["2*z*x^3*y^3 + z*x^3*y - 2*z", "2*z^3*x*y - 2*x*y^3", "2*z*x^3*y^2 + 2*z*x*y^2"],
                "c2e3c5741984efb9d5794f165b09f9012dc1ce5e051e67f028fac3c8fd6196fa",
            ),
        ],
    )
    def test_pair_selection_order_is_pinned(self, weights, gens, digest):
        # the reduced basis is unique, but its cofactor vectors depend on the
        # order the S-pairs are taken in: (degree, sugar, ascending lcm, i, j).
        # These vectors change under any other of those orders.
        ring = fermat_ring(5) if weights is None else RingPresentation(QQ, ("z", "x", "y"), weights)
        _assert_cofactors_pinned(groebner([ring.parse(g) for g in gens], ring, reps=True), digest)

    @pytest.mark.parametrize(
        "level, digest",
        [
            (1, "9d33b1db4e17ee8b5adaa42585e4d32e7accb8f73f4edc9b411caf889f582899"),
            (2, "707c203bc651b58d0cf5e7b0c5fb8edee651ffb540f784614266c8b6fc24fd5e"),
        ],
    )
    def test_block_order_pair_selection_is_pinned(self, level, digest):
        # the elimination input that ``colon`` built for ((x, y) : z^2) at a
        # tower level while it started from the raw generators and the
        # unreduced z^2 image, over Q(zeta_9) with the block order on _t,
        # which the two digests above, over one weighted grevlex, do not
        # reach; the input ``colon`` builds now is pinned below
        ring = tower.build_level(level).ring
        images = tower.variable_images(0, level)
        ext = elimination_ring(ring)
        t = ext.var("_t")
        lifted = [t * _lift(g, ext) for g in (images["x"], images["y"], *ring.relations)]
        lifted.append((ext.one() - t) * _lift(tower.z2_image(level), ext))
        _assert_cofactors_pinned(groebner(lifted, ext, reps=True), digest)

    @pytest.mark.parametrize(
        "level, digest",
        [
            (1, "5fa27c08620eee6c9f8d0b7ee1d614a05b32917d12e400fd7519e0f6dbc43639"),
            (2, "d640f8ad7e54b741f1185caa5392f12eedb5beb06485cf0cbacaf9f6f183d5e3"),
        ],
    )
    def test_colon_elimination_input_is_pinned(self, monkeypatch, level, digest):
        # the elimination input that ``colon`` builds for ((x, y) : z^2) at
        # a tower level: _t times the held basis of (x, y) + relation and
        # (1 - _t) times the normal form of z^2 modulo that basis
        ring = tower.build_level(level).ring
        basis = tower.xy_image_basis(level)
        ext = elimination_ring(ring)
        t = ext.var("_t")
        lifted = [t * _lift(g, ext) for g in basis]
        lifted.append((ext.one() - t) * _lift(normal_form(tower.z2_image(level), basis), ext))
        module = importlib.import_module("closurelab.groebner")
        inputs = []

        def recording(gens, ring, **options):
            inputs.append(list(gens))
            return groebner(gens, ring, **options)

        monkeypatch.setattr(module, "groebner", recording)
        colon(basis, tower.z2_image(level))
        assert inputs[0] == lifted
        _assert_cofactors_pinned(groebner(lifted, ext, reps=True), digest)


def _assert_cofactors_pinned(gb, digest):
    """The sha256 of ``gb``'s cofactor rows as text is ``digest``, and each
    row re-expands to its basis element on exponent tuples."""
    text = json.dumps([[format_poly(c) for c in rep] for rep in gb.reps])
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    one = gb.ring.domain.one
    for g, rep in zip(gb.generators, gb.reps):
        assert _dict_sum(gb.ring, [(one, 0, _schoolbook(r, h)) for r, h in zip(rep, gb.inputs)]) == g


def _package_modules():
    return [mod for name, mod in sys.modules.items() if name.split(".")[0] == "closurelab"]


def _bind_groebner(monkeypatch, wrap):
    """Bind every closurelab module's ``groebner`` to ``wrap(original)``."""
    original = importlib.import_module("closurelab.groebner").groebner
    wrapped = wrap(original)
    for mod in _package_modules():
        if getattr(mod, "groebner", None) is original:
            monkeypatch.setattr(mod, "groebner", wrapped)


def _wrap_groebner(monkeypatch, record):
    """Bind every closurelab module's ``groebner`` to a wrapper that hands
    each call's generator list and basis to ``record``."""

    def wrap(original):
        def counted(gens, ring, **options):
            gens = list(gens)
            gb = original(gens, ring, **options)
            record(gens, gb)
            return gb

        return counted

    _bind_groebner(monkeypatch, wrap)


# the runs whose Buchberger work the counters below bound
COUNTED_RUNS = [("tower-colon", {}), ("charp", {}), ("padic", {}), ("tower-trace", {"pairs": 1})]


def _clear_caches():
    """Clear every closurelab cache, as in a fresh process."""
    for mod in _package_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _cold_run(runs):
    """Run each (experiment, config) in process with every closurelab
    cache cleared first, as in a fresh process; each must pass."""
    _clear_caches()
    for name, config in runs:
        assert run_experiment(name, config).passed, name


class TestRelationBasis:
    """A ring's one relation is its own Groebner basis, so no run asks
    Buchberger for the basis of the relation alone."""

    def test_no_run_rebuilds_the_relation_basis(self, monkeypatch):
        calls = []
        _wrap_groebner(monkeypatch, lambda gens, gb: calls.append(len(gens)))
        _cold_run(COUNTED_RUNS)
        assert calls and 0 not in calls


class TestWorkCounters:
    """Work the runs must not do, counted in process with cold caches."""

    def test_no_run_asks_for_cofactors(self, monkeypatch):
        """Only membership certificates read cofactor vectors, so tower-colon,
        charp, padic and tower-trace build every basis without them, while
        isogeny, which certifies membership, asks for them."""
        built = []
        _wrap_groebner(monkeypatch, lambda gens, gb: built.append(gb.reps is not None))
        _cold_run(COUNTED_RUNS)
        assert built and not any(built)
        _cold_run([("isogeny", {})])
        assert any(built)

    def test_buchberger_makes_no_fraction_degree(self, monkeypatch):
        """The pair queue and the sugar run on scaled int degrees
        (``WeightedGrevlex.wdeg``), so in a cold ``tower-colon`` no
        ``WeightedGrevlex.degree`` call, one Fraction each, is made inside
        ``groebner``."""
        counts = {"groebner": 0, "inside": 0, "depth": 0}

        def wrap(original):
            def counted(gens, ring, **options):
                counts["groebner"] += 1
                counts["depth"] += 1
                try:
                    return original(gens, ring, **options)
                finally:
                    counts["depth"] -= 1

            return counted

        degree = WeightedGrevlex.degree

        def counted_degree(self, key):
            if counts["depth"]:
                counts["inside"] += 1
            return degree(self, key)

        _bind_groebner(monkeypatch, wrap)
        monkeypatch.setattr(WeightedGrevlex, "degree", counted_degree)
        _cold_run([("tower-colon", {})])
        assert counts["groebner"] and counts["inside"] == 0

    @pytest.mark.parametrize(
        "name, config, runs, reductions",
        [
            ("tower-colon", {}, 7, 68),
            ("charp", {}, 12, 36),
            ("padic", {}, 5, 23),
            ("isogeny", {}, 2, 12),
            ("charp", {"p": 0, "e_max": 4, "deg_bound": 0}, 44, 336),
        ],
    )
    def test_buchberger_reductions_are_pinned(self, monkeypatch, name, config, runs, reductions):
        """Count the ``groebner`` runs of a cold run and the ``_divide``
        calls made inside them: one per S-pair that the Gebauer-Moeller
        criteria keep and one tail reduction per element of each minimal
        basis, so a change to the pair set changes the count.  ``charp
        --p 0 --e-max 4 --deg-bound 0`` finds no tight-closure multiplier
        for p = 7 and 13 and has no golden entry, so it fails; its
        Buchberger work is counted all the same.  ``tower-colon`` made 71
        reductions when ``colon`` eliminated from the raw generators and the
        unreduced z^2 image, where it now starts from the held basis and
        the normal form."""
        module = importlib.import_module("closurelab.groebner")
        counts = {"runs": 0, "reductions": 0, "depth": 0}

        def wrap(original):
            def counted(gens, ring, **options):
                counts["runs"] += 1
                counts["depth"] += 1
                try:
                    return original(gens, ring, **options)
                finally:
                    counts["depth"] -= 1

            return counted

        divide = module._divide

        def counted_divide(f, divisors, track=True):
            if counts["depth"]:
                counts["reductions"] += 1
            return divide(f, divisors, track)

        _bind_groebner(monkeypatch, wrap)
        monkeypatch.setattr(module, "_divide", counted_divide)
        _clear_caches()
        run_experiment(name, config)
        assert (counts["runs"], counts["reductions"]) == (runs, reductions)

    def test_tower_colon_forms_each_lifted_product_once(self, monkeypatch):
        """Count the products whose factors both have at least
        ``LIFT_MIN_TERMS`` terms, and their term pairs, in a cold
        ``tower-colon --max-level 5``.  One power table per depth forms each
        power of a depth-d image once for all levels, and
        ``_probe_cofactors(n)`` takes level n - 1's cofactors and one more
        step, each u * Y^2 and v * X^2 from the squares behind the cubes.
        One table per level pair and a full descent per level took 33
        products and 34 617 pairs; forming the cubes twice and those
        products twice, 57 products and 46 047 pairs."""
        counts = {"products": 0, "pairs": 0}
        mul = Poly.__mul__

        def counted_mul(self, other):
            if isinstance(other, Poly) and min(len(self.terms), len(other.terms)) >= LIFT_MIN_TERMS:
                counts["products"] += 1
                counts["pairs"] += len(self.terms) * len(other.terms)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted_mul)
        monkeypatch.setattr(Poly, "__rmul__", counted_mul)
        _cold_run([("tower-colon", {"max_level": 5})])
        assert counts == {"products": 25, "pairs": 33425}

    def test_tower_colon_splits_two_coordinates_per_lifted_coefficient(self, monkeypatch):
        """Every coefficient of the tower's lifted products lies in
        t^r * Q(theta), so in a cold ``tower-colon --max-level 5`` each of
        the 25 lifted products splits its lists into the two coordinates r
        and r + 3 (``_split``): two lists for each of the 18 products of
        distinct factors, one for each of the 7 squares."""
        calls = []
        split = coefficients._split

        def counted_split(xs, r):
            calls.append(r)
            return split(xs, r)

        monkeypatch.setattr(coefficients, "_split", counted_split)
        _cold_run([("tower-colon", {"max_level": 5})])
        assert len(calls) == 2 * 18 + 7

    def test_lifted_products_pick_their_loop_by_the_keys(self, monkeypatch):
        """Every lifted product of a cold ``tower-colon --max-level 5`` is a
        form in (x^3, y^3) times a monomial by another such form, two key
        progressions with one step, and is three big-int products
        (``_kronecker``), one per int convolution of the two coordinates:
        18 products of distinct factors, which pass two lists each time,
        and the 7 squares that ``cached_power`` forms, which pass one list
        twice each time, 75 calls and 21 squares.  They were 25 calls and 7
        squares when each product packed both coordinates into one int.
        ``isogeny --n 3`` makes 42 products of that size over ZZ and F_2: 6
        squares of progressions over ZZ are big-int products, and the other
        36, whose keys are not progressions with one step, go term by term.
        It made 45 when Buchberger summed each cofactor update from products
        q * r; it now adds the terms of the quotients in one linear
        combination per coordinate."""
        counts = {"lifted": 0, "kronecker": 0, "square": 0}
        mul = Poly.__mul__
        kronecker = coefficients._kronecker

        def counted_mul(self, other):
            if isinstance(other, Poly) and min(len(self.terms), len(other.terms)) >= LIFT_MIN_TERMS:
                counts["lifted"] += 1
            return mul(self, other)

        def counted_kronecker(xs, ys):
            counts["kronecker"] += 1
            counts["square"] += ys is xs
            return kronecker(xs, ys)

        monkeypatch.setattr(Poly, "__mul__", counted_mul)
        monkeypatch.setattr(Poly, "__rmul__", counted_mul)
        monkeypatch.setattr(coefficients, "_kronecker", counted_kronecker)
        _cold_run([("tower-colon", {"max_level": 5})])
        assert counts == {"lifted": 25, "kronecker": 75, "square": 21}
        counts.update(lifted=0, kronecker=0, square=0)
        _cold_run([("isogeny", {"n": 3})])
        assert counts == {"lifted": 42, "kronecker": 6, "square": 6}

    def test_unit_shifts_and_norm_inversions_are_pinned(self, monkeypatch):
        """In a cold ``tower-colon --max-level 5``, 569 CycloNum products
        are by a unit +-t^k and shift coordinates, each read from the unit
        table by ``CycloNum.__mul__``; the norm formula inverts 12 distinct
        elements, the other 14 of its 26 calls read its cache.  The shifts
        were 523 (from 42 ``mul_term`` calls and linear-combination parts)
        while the Poly layer picked them and the other 46 unit products,
        such as ``_divide``'s by the relation's t^3 and t^6, went through
        the convolution; before that 408 when Buchberger formed each
        S-polynomial from two ``mul_term`` calls, 398 while the one linear
        combination that replaced them multiplied by its unit scalars
        instead of shifting, 611 (58 norm calls, 14 distinct) while
        ``colon`` eliminated from the raw generators and the unreduced z^2
        image, and 563 while the S-polynomial part of a monic element
        negated the shared one into a -1 that shifted."""
        counts = {"shifted": 0, "norm": 0}
        norm = coefficients._norm_inverse

        def counted_shift(shift):
            def counted(c):
                counts["shifted"] += 1
                return shift(c)

            return counted

        def counted_norm(a):
            counts["norm"] += 1
            return norm(a)

        counted_norm.cache_clear = norm.cache_clear
        table = {num: (inv, counted_shift(shift)) for num, (inv, shift) in coefficients._UNITS.items()}
        monkeypatch.setattr(coefficients, "_UNITS", table)
        monkeypatch.setattr(coefficients, "_norm_inverse", counted_norm)
        _cold_run([("tower-colon", {"max_level": 5})])
        assert counts == {"shifted": 569, "norm": 26}
        assert norm.cache_info().misses == 12

    def test_s_polynomials_subtract_by_the_shared_minus_one(self, monkeypatch):
        """Every -1 scalar of an S-polynomial part is the domain's shared
        ``minus_one``, which ``linear_combination`` subtracts with no
        product and no shift, in a cold ``tower-colon``.  Negating the
        inverse of a monic element's leading coefficient made a new -1
        instead, which took a unit shift over Q(zeta_9): for 31 of 33 such
        parts while ``colon`` eliminated from the raw generators and for
        all 27 once it started from the held basis."""
        buchberger = importlib.import_module("closurelab.groebner").groebner.__code__
        combination = Poly.linear_combination.__func__
        scalars = {"shared": 0, "copies": 0}

        def counted(cls, ring, parts):
            if sys._getframe(1).f_code is buchberger:
                parts = list(parts)
                minus_one = ring.domain.minus_one
                for c, _, _ in parts:
                    if c == minus_one:
                        scalars["shared" if c is minus_one else "copies"] += 1
            return combination(cls, ring, parts)

        monkeypatch.setattr(Poly, "linear_combination", classmethod(counted))
        _cold_run([("tower-colon", {})])
        assert scalars["shared"] and scalars["copies"] == 0

    @pytest.mark.parametrize(
        "config, products",
        [({}, 523), ({"max_level": 5}, 1395)],
        ids=["default", "max_level=5"],
    )
    def test_cyclotomic_products_are_pinned(self, monkeypatch, config, products):
        """The CycloNum products of a cold ``tower-colon``, unit shifts
        included, since ``CycloNum.__mul__`` is the one entry point for
        both: 432 and 872 while ``mul_term`` and ``linear_combination``
        shifted their unit scalars outside it (91 and 523 shifts); before
        that 804 and 1 352 before unit scalars of linear combinations
        shifted coordinates, the inverse of +-1 became the shared ``one``
        or ``minus_one`` (so S-polynomials of monic elements add with no
        product) and ``_divide`` stopped multiplying by the inverse of a
        monic divisor's leading coefficient, and 584 and 1 024 while
        ``colon`` eliminated from the raw generators and the unreduced z^2
        image."""
        calls = []
        mul = CycloNum.__mul__

        def counted_mul(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(CycloNum, "__mul__", counted_mul)
        monkeypatch.setattr(CycloNum, "__rmul__", counted_mul)
        _cold_run([("tower-colon", config)])
        assert len(calls) == products

    def test_mul_term_tells_one_with_no_comparison(self, monkeypatch):
        """``mul_term`` decides that a Q(zeta_9) scalar is 1 by identity and
        by its stored form, so a run makes no ``CycloNum.__eq__`` call from
        it (``tower-trace --pairs 500`` made 11 528 such calls when it
        compared each scalar with ``one``), and an equal copy of ``one``
        still only moves keys."""
        frames = []
        eq = CycloNum.__eq__

        def counted_eq(self, other):
            frames.append(sys._getframe(1).f_code)
            return eq(self, other)

        monkeypatch.setattr(CycloNum, "__eq__", counted_eq)
        _cold_run([("tower-trace", {"pairs": 20})])
        assert Poly.mul_term.__code__ not in frames
        ring = tower.build_level(1).ring
        f = ring.parse("t*x1^2 + (1/2 - t^4)*y1*z1")
        copy = CycloNum([1])
        assert copy is not CYCLO.one
        assert f.mul_term(0, copy) is f
        shift = ring.order.key((0, 1, 0))
        assert f.mul_term(shift, copy).terms == tuple((m + shift, c) for m, c in f.terms)
        assert Poly.mul_term.__code__ not in frames

    def test_no_unit_reaches_the_norm_formula(self, monkeypatch):
        """Count the CycloNum products made inside ``inverse``: none for a
        unit +-t^k (table lookup), some for the other elements (the norm)."""
        units = {u.num for k in range(9) for u in (CycloNum.zeta_power(k), -CycloNum.zeta_power(k))}
        inverse, mul = CycloNum.inverse, CycloNum.__mul__
        inside = []  # per open inverse call: whether it inverts a unit
        products = {True: 0, False: 0}
        inverted = {True: 0, False: 0}

        def counted_inverse(self):
            is_unit = self.den == 1 and self.num in units
            inverted[is_unit] += 1
            inside.append(is_unit)
            try:
                return inverse(self)
            finally:
                inside.pop()

        def counted_mul(self, other):
            if inside:
                products[inside[-1]] += 1
            return mul(self, other)

        monkeypatch.setattr(CycloNum, "inverse", counted_inverse)
        monkeypatch.setattr(CycloNum, "__mul__", counted_mul)
        monkeypatch.setattr(CycloNum, "__rmul__", counted_mul)
        _cold_run([("tower-colon", {}), ("tower-trace", {"pairs": 1})])
        assert inverted[True] and inverted[False]
        assert products[True] == 0
        assert products[False]


@st.composite
def _cofactor_problems(draw):
    """One to three generators of up to four terms in QQ[z, x, y],
    F_p[z, x, y] or the Fermat quotient over F_p, or of up to three terms
    and one degree each in the tower's level-1 ring over Q(zeta_9), where
    inhomogeneous generators make coefficients grow past any test budget."""
    kind = draw(st.sampled_from(["QQ", "F_p", "fermat", "tower"]))
    if kind == "QQ":
        ring = RingPresentation(QQ, ("z", "x", "y"))
    elif kind == "F_p":
        ring = RingPresentation(PrimeField(draw(st.sampled_from([2, 5, 13]))), ("z", "x", "y"))
    elif kind == "fermat":
        ring = fermat_ring(draw(st.sampled_from([2, 5, 7, 13])))
    else:
        ring = tower.build_level(1).ring
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if kind == "tower":
            d = draw(st.integers(1, 3))
            monos = st.sampled_from([m for m in all_monomials(3, d) if sum(m) == d])
            unit = st.builds(CycloNum.zeta_power, st.integers(0, 8))
            coeff = st.builds(lambda s, u: CYCLO.coerce(s) * u, st.sampled_from([1, -1, 2]), unit)
            terms = draw(st.dictionaries(monos, coeff, min_size=1, max_size=3))
        else:
            mono = st.tuples(*[st.integers(0, 3)] * 3)
            coeff = st.integers(-3, 3).filter(bool).map(ring.domain.coerce)
            terms = draw(st.dictionaries(mono, coeff, min_size=1, max_size=4))
        gens.append(ring.poly(terms))
    return ring, gens


@settings(max_examples=60, deadline=None)
@given(problem=_cofactor_problems())
def test_cofactors_do_not_change_the_basis(problem):
    """The cofactor vectors ride along without steering Buchberger: the
    reduced basis is the same with and without them.  Only the basis built
    with them certifies membership."""
    ring, gens = problem
    plain = groebner(gens, ring)
    tracked = groebner(gens, ring, reps=True)
    assert plain.generators == tracked.generators
    assert plain.reps is None and len(tracked.reps) == len(tracked.generators)
    for g in gens:
        if g:
            with pytest.raises(ValueError, match="cofactors"):
                membership_with_basis(g, plain)
            member, cert = membership_with_basis(g, tracked)
            assert member and cert.verify()


class TestMembership:
    def test_self_membership_random(self):
        ring = fermat_quotient()
        rng = random.Random(3)
        for _ in range(10):
            f = rand_qq_poly(rng, ring)
            if not f:
                continue
            ok, cert = ideal_member(f, [f])
            assert ok and cert.verify()

    def test_membership_matches_normal_form(self):
        ring = fermat_quotient()
        rng = random.Random(17)
        gens = [ring.parse("x^2 + y*z"), ring.parse("y^2")]
        gb = groebner(gens, ring)
        for _ in range(20):
            f = rand_qq_poly(rng, ring, max_exp=4, terms=3)
            ok, cert = ideal_member(f, gens)
            assert ok == normal_form(f, gb).is_zero()
            if ok:
                assert cert.verify()

    def test_nonmember_has_no_certificate(self):
        ring = fermat_quotient()
        ok, cert = ideal_member(ring.parse("z^2"), [ring.parse("x"), ring.parse("y")])
        assert not ok and cert is None

    def test_certificate_lists_relation_cofactor(self):
        ring = fermat_quotient()
        ok, cert = ideal_member(ring.parse("z^3"), [ring.parse("x"), ring.parse("y")])
        assert ok
        # one cofactor per generator plus one for the relation
        assert len(cert.cofactors) == 3
        assert cert.verify()


# ---------------------------------------------------------------------------
# colon ideals against the brute-force monomial oracle


def monomial_oracle_member(mono, gens):
    return any(mono_divides(g, mono) for g in gens)


def all_monomials(nvars, max_deg):
    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + [e], remaining - e, slots - 1)

    for d in range(max_deg + 1):
        for m in rec([], d, nvars):
            if sum(m) == d:
                yield m


class TestColon:
    def test_textbook_example(self):
        ring = RingPresentation(QQ, ("x", "y"))
        result = colon([ring.parse("x^2"), ring.parse("x*y")], ring.parse("x"))
        assert sorted(format_poly(g) for g in result) == ["x", "y"]

    def test_colon_by_unit(self):
        ring = RingPresentation(QQ, ("x", "y"))
        result = colon([ring.parse("x"), ring.parse("y")], ring.one())
        assert sorted(format_poly(g) for g in result) == ["x", "y"]

    def test_colon_by_zero_divisor_rejected(self):
        ring = fermat_quotient()
        with pytest.raises(ZeroDivisionError, match="reduces to zero"):
            colon([ring.parse("x")], ring.relations[0])
        with pytest.raises(ZeroDivisionError):
            colon([ring.parse("x")], ring.zero())

    def test_level_zero_colon_weighted_degree(self):
        ring = fermat_quotient()
        gens = colon([ring.parse("x"), ring.parse("y")], ring.parse("z^2"))
        min_deg = min(g.min_degree() for g in gens)
        assert min_deg == Fraction(1)

    def test_against_brute_force_oracle(self):
        rng = random.Random(2024)
        instances = 0
        while instances < 50:
            nvars = rng.randrange(2, 4)
            names = ("x", "y", "z")[:nvars]
            ring = RingPresentation(QQ, names)
            gen_monos = []
            for _ in range(rng.randrange(1, 4)):
                d = rng.randrange(1, 5)
                m = [0] * nvars
                for _ in range(d):
                    m[rng.randrange(nvars)] += 1
                gen_monos.append(tuple(m))
            f_mono = [0] * nvars
            for _ in range(rng.randrange(0, 3)):
                f_mono[rng.randrange(nvars)] += 1
            f = ring.monomial(tuple(f_mono))
            gens = [ring.monomial(m) for m in gen_monos]
            computed = colon(gens, f)
            gb = groebner(computed, ring)
            for m in all_monomials(nvars, 6):
                expected = monomial_oracle_member(
                    tuple(a + b for a, b in zip(m, f_mono)), gen_monos
                )
                got = normal_form(ring.monomial(m), gb).is_zero()
                assert got == expected, (gen_monos, f_mono, m)
            instances += 1

    def test_membership_against_monomial_oracle(self):
        rng = random.Random(77)
        for _ in range(50):
            ring = RingPresentation(QQ, ("x", "y", "z"))
            gen_monos = []
            for _ in range(rng.randrange(1, 4)):
                d = rng.randrange(1, 5)
                m = [0, 0, 0]
                for _ in range(d):
                    m[rng.randrange(3)] += 1
                gen_monos.append(tuple(m))
            gens = [ring.monomial(m) for m in gen_monos]
            f = rand_qq_poly(rng, ring, max_exp=4, terms=3)
            ok, cert = ideal_member(f, gens)
            expected = bool(f.terms) and all(
                monomial_oracle_member(m, gen_monos) for m, _ in exponent_terms(f)
            )
            if not f.terms:
                expected = True  # zero is in every ideal
            assert ok == expected
            if ok:
                assert cert.verify()


_QQ_ZXY = RingPresentation(QQ, ("z", "x", "y"))


def _homogeneous_form(draw, ring):
    """A form of degree 1 to 3 with up to four terms and coefficients in
    -3..3, the sizes ``_homogeneous_ideals`` draws; it may be zero."""
    d = draw(st.integers(1, 3))
    monos = [m for m in all_monomials(3, d) if sum(m) == d]
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(picked), max_size=len(picked)))
    return ring.poly({m: ring.domain.coerce(c) for m, c in zip(picked, coeffs)})


@st.composite
def _colon_problems(draw):
    """QQ[z, x, y] or the Fermat quotient over F_5, one to three forms as
    generators and a form f to divide by."""
    ring = draw(st.sampled_from([_QQ_ZXY, fermat_ring(5)]))
    gens = [_homogeneous_form(draw, ring) for _ in range(draw(st.integers(1, 3)))]
    return ring, gens, _homogeneous_form(draw, ring)


def _colon_by_elimination(gens, f):
    """(1/f) * ((gens + relations) intersect (f)), reduced: the colon
    eliminated from the raw generators and the unreduced f."""
    ring = f.ring
    meet = intersect(list(gens) + list(ring.relations), [f], ring)
    return list(groebner([exact_divide(g, f) for g in meet], ring).generators)


@settings(max_examples=60, deadline=None)
@given(problem=_colon_problems())
def test_colon_matches_elimination_by_the_unreduced_f(problem):
    """``colon`` reduces f modulo the basis of the ideal before it
    eliminates, since (I : f) = (I : NF_I(f)); its reduced basis is the one
    that eliminating from the raw generators and f itself gives, whether it
    is handed the generators or their Groebner basis."""
    ring, gens, f = problem
    basis = groebner(gens, ring)
    zero = f * ring.relations[0] if ring.relations else ring.zero()
    for form in (gens, basis):
        with pytest.raises(ZeroDivisionError):
            colon(form, zero)
    other = RingPresentation(ring.domain, ring.variables)
    with pytest.raises(ValueError, match="basis of f's ring"):
        colon(groebner(gens, other), f)
    # a generator that is nonzero in the quotient lies in I: a zero
    # remainder, and the unit ideal
    for g in gens:
        if not normal_form(g, ring.relations).is_zero():
            assert colon(gens, g) == colon(basis, g) == [ring.one()] == _colon_by_elimination(gens, g)
    if normal_form(f, ring.relations).is_zero():
        with pytest.raises(ZeroDivisionError):
            colon(basis, f)
        return
    expected = _colon_by_elimination(gens, f)
    assert colon(gens, f) == colon(basis, f) == expected


class TestIntersect:
    def test_against_monomial_oracle(self):
        # a monomial lies in the intersection of two monomial ideals iff a
        # generator of each divides it
        rng = random.Random(31)
        ring = RingPresentation(QQ, ("x", "y", "z"))

        def random_monomials():
            out = []
            for _ in range(rng.randrange(1, 3)):
                m = [0, 0, 0]
                for _ in range(rng.randrange(1, 4)):
                    m[rng.randrange(3)] += 1
                out.append(tuple(m))
            return out

        for _ in range(20):
            monos_a, monos_b = random_monomials(), random_monomials()
            meet = intersect(
                [ring.monomial(m) for m in monos_a], [ring.monomial(m) for m in monos_b], ring
            )
            gb = groebner(meet, ring)
            for m in all_monomials(3, 6):
                expected = monomial_oracle_member(m, monos_a) and monomial_oracle_member(m, monos_b)
                assert normal_form(ring.monomial(m), gb).is_zero() == expected, (monos_a, monos_b, m)


# ---------------------------------------------------------------------------
# sympy's Buchberger as an oracle that shares no code with the engine


@st.composite
def _homogeneous_ideals(draw):
    """QQ[z, x, y] or the Fermat quotient over F_p, with one to three random
    homogeneous generators of degree 1 to 3 as exponent -> integer dicts."""
    p = draw(st.sampled_from([0, 2, 5, 7, 13]))
    ring = RingPresentation(QQ, ("z", "x", "y")) if p == 0 else fermat_ring(p)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        monos = [m for m in all_monomials(3, d) if sum(m) == d]
        picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(picked), max_size=len(picked)))
        gens.append(dict(zip(picked, coeffs)))
    return ring, p, gens


@settings(max_examples=60, deadline=None)
@given(problem=_homogeneous_ideals())
def test_reduced_basis_matches_sympy(problem):
    """The reduced monic basis of (gens) + relations under grevlex equals
    ``sympy.groebner(..., order="grevlex")``, with ``modulus=p`` over F_p."""
    sympy = pytest.importorskip("sympy")
    ring, p, gens = problem
    dom = ring.domain
    polys = []
    for g in gens:
        f = ring.zero()
        for m, c in g.items():
            f = f + ring.monomial(m, dom.coerce(c))
        polys.append(f)
    symbols = sympy.symbols(ring.variables)
    options = {"modulus": p} if p else {"domain": "QQ"}
    sym_gens = [sympy.Poly.from_dict(g, *symbols, **options) for g in gens]
    sym_gens += [
        sympy.Poly(format_poly(r).replace("^", "**"), *symbols, **options) for r in ring.relations
    ]
    sym_gens = [g for g in sym_gens if not g.is_zero]

    def lower(c):
        return dom.coerce(int(c) % p) if p else Fraction(int(c.p), int(c.q))

    expected = set()
    if sym_gens:
        for g in sympy.groebner(sym_gens, *symbols, order="grevlex", **options).polys:
            g = g.exquo_ground(g.LC(order="grevlex"))
            expected.add(frozenset((m, lower(c)) for m, c in g.as_dict().items()))
    got = set()
    for g in groebner(polys, ring):
        sg = sympy.Poly(format_poly(g).replace("^", "**"), *symbols, **options)
        got.add(frozenset((m, lower(c)) for m, c in sg.as_dict().items()))
    assert got == expected
