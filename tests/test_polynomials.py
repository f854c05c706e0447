import random
from fractions import Fraction
from unittest import mock
from itertools import permutations
from operator import add, itemgetter, le, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closurelab.charp import fermat_ring
from closurelab.coefficients import CYCLO, QQ, ZZ, CycloNum, PrimeField, TruncatedPadicRing
from closurelab.groebner import _divide, elimination_ring, exact_divide
from closurelab import coefficients
from closurelab.polynomials import (
    EXP_LIMIT,
    LIFT_MIN_TERMS,
    PARSE_TEXT_LIMIT,
    PARSE_WORK_LIMIT,
    PRODUCT_DEGREE_LIMIT,
    ParseBudget,
    Poly,
    PolyParseError,
    RingPresentation,
    WeightedGrevlex,
    cached_power,
    format_poly,
)


@pytest.fixture
def qq_ring():
    return RingPresentation(QQ, ("x", "y", "z"))


def exponent_terms(p):
    """The terms of ``p`` with each packed monomial decoded to its exponent
    tuple, in the order of ``p.terms``."""
    exponents = p.ring.order.exponents
    return tuple((exponents(m), c) for m, c in p.terms)


def test_parse_and_format_round_trip(qq_ring):
    texts = ["x^2*y - 3*z + 1/2", "x*y*z", "0", "-x + y", "7"]
    for text in texts:
        p = qq_ring.parse(text)
        assert qq_ring.parse(format_poly(p)) == p


def test_cyclo_scalar_coefficients():
    ring = RingPresentation(CYCLO, ("x1", "y1"))
    p = ring.parse("(t^3 + 1)*x1^2*y1")
    assert len(p.terms) == 1
    assert format_poly(p) == "(t^3 + 1)*x1^2*y1"
    ((_, t3),) = ring.parse("t^3").terms
    assert t3.coords[3] == 1


def test_unknown_variable_rejected(qq_ring):
    with pytest.raises(PolyParseError, match="unknown variable"):
        qq_ring.parse("x + w")


def test_zero_polynomial_is_empty(qq_ring):
    assert qq_ring.parse("x - x").terms == ()
    assert not qq_ring.parse("0")


def test_terms_strictly_decreasing(qq_ring):
    rng = random.Random(5)
    order = qq_ring.order
    for _ in range(30):
        terms = {}
        for _ in range(6):
            m = tuple(rng.randrange(0, 4) for _ in range(3))
            terms[m] = Fraction(rng.randrange(-4, 5))
        p = qq_ring.poly(terms)
        keys = [_fraction_key(order.weights, order.block, m) for m, _ in exponent_terms(p)]
        assert all(a > b for a, b in zip(keys, keys[1:]))


def test_grevlex_tie_break(qq_ring):
    # equal total degree: last differing variable, smaller exponent wins
    x2 = qq_ring.parse("x^2")
    xy = qq_ring.parse("x*y")
    yz = qq_ring.parse("y*z")
    p = x2 + xy + yz
    assert [format_poly(qq_ring.monomial(m)) for m, _ in exponent_terms(p)] == ["x^2", "x*y", "y*z"]


def _fraction_key(weights, block, exps):
    """The order key summed in Fractions, as it was before integer scaling."""

    def grevlex(ws, es):
        return (sum((w * e for w, e in zip(ws, es)), Fraction(0)), tuple(-e for e in reversed(es)))

    if not block:
        return grevlex(weights, exps)
    head = exps[:block]
    return (sum(head), head, grevlex(weights[block:], exps[block:]))


def _sign(a, b):
    return (a > b) - (a < b)


@given(
    data=st.data(),
    nvars=st.integers(1, 4),
    block=st.integers(0, 1),
)
def test_integer_key_matches_the_fraction_key(data, nvars, block):
    weights = data.draw(
        st.lists(st.integers(0, 5).map(lambda n: Fraction(1, 3 ** n)), min_size=nvars, max_size=nvars)
    )
    exps = st.tuples(*[st.integers(0, 7)] * nvars)
    a, b = data.draw(exps), data.draw(exps)
    order = WeightedGrevlex(weights, block=block)
    ka, kb = order.key(a), order.key(b)
    assert type(ka) is int and type(kb) is int
    assert _sign(ka, kb) == -_sign(
        _fraction_key(weights, block, a), _fraction_key(weights, block, b)
    )
    assert (ka == kb) == (a == b)
    degree = order.degree(ka)
    assert isinstance(degree, Fraction)
    assert degree == sum((w * e for w, e in zip(weights, a)), Fraction(0))


@given(
    data=st.data(),
    nvars=st.integers(1, 4),
    block=st.integers(0, 1),
)
def test_heap_key_order_is_the_reverse_of_the_key_order(data, nvars, block):
    """``order.key`` is the heap key: one int, smallest for the leading
    monomial, so it sorts in the reverse of the ascending Fraction key and
    tells every two monomials apart."""
    weights = data.draw(
        st.lists(st.integers(0, 1).map(lambda n: Fraction(1, 3 ** n)), min_size=nvars, max_size=nvars)
    )
    exps = st.tuples(*[st.integers(0, 7)] * nvars)
    a = data.draw(exps)
    order = WeightedGrevlex(weights, block=block)
    # the permutations of a tie on weighted degree wherever the weights do,
    # so the tie-breaks are compared too
    for b in set(permutations(a)) | {data.draw(exps)}:
        ha, hb = order.key(a), order.key(b)
        assert type(ha) is int
        assert _sign(ha, hb) == -_sign(
            _fraction_key(weights, block, a), _fraction_key(weights, block, b)
        )
        assert (ha == hb) == (a == b)


@settings(max_examples=200)
@given(
    data=st.data(),
    nvars=st.integers(1, 4),
    block=st.integers(0, 1),
)
def test_packed_keys_are_linear_and_decode(data, nvars, block):
    """The packed key is additive, decodes back to its exponents, and its
    divisibility test and lcm agree with their exponent-tuple definitions,
    with and without the elimination block; exponents run up to the largest
    ones the fields hold."""
    weights = data.draw(
        st.lists(st.integers(0, 5).map(lambda n: Fraction(1, 3 ** n)), min_size=nvars, max_size=nvars)
    )
    half = st.one_of(st.integers(0, 7), st.integers(0, EXP_LIMIT // 2 - 1))
    exps = st.tuples(*[half] * nvars)
    a, b = data.draw(exps), data.draw(exps)
    order = WeightedGrevlex(weights, block=block)
    ka, kb = order.key(a), order.key(b)
    assert order.exponents(ka) == a and order.exponents(kb) == b
    assert ka + kb == order.key(tuple(map(add, a, b)))
    assert order.degree(ka + kb) == order.degree(ka) + order.degree(kb)
    for x, y in ((a, b), (b, a), (a, tuple(map(add, a, b)))):
        kx, ky = order.key(x), order.key(y)
        divides = all(map(le, x, y))
        assert order.divides(kx, ky) == divides
        if divides:
            assert ky - kx == order.key(tuple(map(sub, y, x)))
        lcm = order.lcm_of_exponents(order.exponents(kx), order.exponents(ky))
        assert lcm == order.key(tuple(map(max, x, y)))
    # the product is the lcm exactly when no variable divides both
    lcm = order.lcm_of_exponents(order.exponents(ka), order.exponents(kb))
    assert (lcm == ka + kb) == (not any(map(min, a, b)))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    nvars=st.integers(1, 4),
    block=st.integers(0, 1),
)
def test_scaled_degrees_order_pairs_as_the_fractions(data, nvars, block):
    """``degree`` is ``wdeg`` over ``scale``, and pair tuples (degree,
    sugar, -lcm, i, j) sort the same with int degrees as with the
    Fractions they scale; small exponents make ties in degree and sugar."""
    weights = data.draw(
        st.lists(st.integers(0, 5).map(lambda n: Fraction(1, 3 ** n)), min_size=nvars, max_size=nvars)
    )
    order = WeightedGrevlex(weights, block=block)
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, EXP_LIMIT // 2 - 1))] * nvars)
    keys = [order.key(e) for e in data.draw(st.lists(exps, min_size=1, max_size=12))]
    for k in keys:
        assert order.degree(k) == Fraction(order.wdeg(k), order.scale)
    pairs = []
    for i, k in enumerate(keys):
        sugar = order.wdeg(k) + data.draw(st.integers(0, 2))
        j = data.draw(st.integers(0, 3))
        pairs.append((order.wdeg(k), sugar, -k, j, i))
    by_fraction = sorted(
        pairs, key=lambda p: (order.degree(-p[2]), Fraction(p[1], order.scale)) + p[2:]
    )
    assert sorted(pairs) == by_fraction


def test_packed_fields_raise_on_overflow():
    """An exponent past the last one its field holds raises, whether it is
    packed at the boundary or reached by a product; z^(2 * 13^4), the
    largest power charp forms, round-trips."""
    ring = fermat_ring(13)
    order = ring.order
    top = 2 * 13 ** 4
    assert EXP_LIMIT > top
    z = ring.parse(f"z^{top}")
    assert format_poly(z) == f"z^{top}"
    assert exponent_terms(z) == (((top, 0, 0), ring.domain.one),)
    assert order.exponents(order.key((top, 7, EXP_LIMIT - 1))) == (top, 7, EXP_LIMIT - 1)
    for exps in ((EXP_LIMIT, 0, 0), (0, 0, EXP_LIMIT), (0, -1, 0)):
        with pytest.raises(OverflowError):
            order.key(exps)
    half = ring.monomial((0, EXP_LIMIT // 2, 0))
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        ring.parse("y") ** EXP_LIMIT
    with pytest.raises(OverflowError):
        half.mul_term(half.lm(), ring.domain.one)
    # a product whose leading term fits but whose trailing term does not
    f = ring.monomial((0, 10, 0)) + ring.monomial((0, 0, 10))
    with pytest.raises(OverflowError):
        f * ring.monomial((0, 0, EXP_LIMIT - 5))
    with pytest.raises(OverflowError):
        f * (f * ring.monomial((0, 0, EXP_LIMIT - 5 - 10)))
    # division: y - x^2 turns x^(L-1) y^(L-1) into x^(L-3) y^L
    g = ring.parse("y - x^2")
    with pytest.raises(OverflowError):
        exact_divide(ring.monomial((0, EXP_LIMIT - 1, EXP_LIMIT - 1)), g)


def test_parser_refuses_exponents_past_the_field():
    """An exponent at or above EXP_LIMIT, written out or reached by a
    product while parsing, is bad text: ``PolyParseError``, not the
    ``OverflowError`` of the packed layout."""
    ring = fermat_ring(13)
    assert ring.parse(f"y^{EXP_LIMIT - 1}") == ring.monomial((0, 0, EXP_LIMIT - 1))
    half = EXP_LIMIT // 2
    for text in (f"x^{EXP_LIMIT}", "x^600000*y", "x^300000*x^300000", f"(x*y)^{half}*y^{half}"):
        with pytest.raises(PolyParseError):
            ring.parse(text)


def test_parser_refuses_products_of_sums_past_the_degree_limit():
    """A power or product of factors with two or more terms each is refused
    before it is expanded once its total degree passes
    ``PRODUCT_DEGREE_LIMIT``; a one-term factor may carry any degree."""
    ring = fermat_ring(13)
    assert ring.parse("(x+y)^3") == ring.parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
    limit = PRODUCT_DEGREE_LIMIT
    assert ring.parse(f"(1+x+y+z)^{limit}") == ring.parse(f"(1+x+y+z)^{limit // 2}*(1+x+y+z)^{limit // 2}")
    assert ring.parse(f"x^1000*(x+y)^{limit}") == ring.monomial((0, 1000, 0)) * ring.parse(f"(x+y)^{limit}")
    for text in (
        "(x+y)^500000",
        f"(x+y)^{limit + 1}",
        f"(x^2+y)^{limit // 2 + 1}",
        f"(x+y)^{limit}*(y+z)",
        f"((x+y)^2)^{limit // 2 + 1}",
        "(x^100+y)*(x+1)",
    ):
        with pytest.raises(PolyParseError, match="passes the limit"):
            ring.parse(text)


def test_parser_charges_every_product_sum_and_negation_to_one_budget():
    """A parse reads at most ``PARSE_TEXT_LIMIT`` characters and forms at
    most ``PARSE_WORK_LIMIT`` term operations: the term pairs of each
    product and power, and the terms each sum or negation reads.  Texts that
    share a ``ParseBudget`` share its limits."""
    # over QQ no multinomial coefficient vanishes, as some do mod p
    ring = RingPresentation(QQ, ("z", "x", "y"))
    budget = ParseBudget()
    # x+y reads 2 terms; (x+y)^2 squares (2 * 2 pairs); -z reads 1 term,
    # x*(-z) forms 1 pair, the outer sum reads 3 + 1.  The power no longer
    # forms 1 * (x+y)^2 (1 * 3 more, 15 in all) as its last product
    assert ring.parse("(x+y)^2 + x*-z", budget) == ring.parse("x^2 + 2*x*y + y^2 - x*z")
    assert PARSE_WORK_LIMIT - budget.work_left == 2 + 4 + 1 + 1 + 4
    assert PARSE_TEXT_LIMIT - budget.text_left == len("(x+y)^2 + x*-z")

    big = f"(1+x+y+z)^{PRODUCT_DEGREE_LIMIT}"
    shared = ParseBudget()
    ring.parse(big, shared)
    assert PARSE_WORK_LIMIT // 2 < PARSE_WORK_LIMIT - shared.work_left <= PARSE_WORK_LIMIT
    for text, budget in ((f"{big} + {big}", None), (big, shared), ("-" * 20 + big, None)):
        with pytest.raises(PolyParseError, match="term operations"):
            ring.parse(text, budget)
    with pytest.raises(PolyParseError, match="characters"):
        ring.parse("x" + "+x" * (PARSE_TEXT_LIMIT // 2))
    # a long sum is summed once, not once per term
    monomials = [f"x^{i}*y^{j}" for i in range(30) for j in range(30)]
    assert len(ring.parse(" + ".join(monomials)).terms) == len(monomials)


def test_parser_refuses_zero_denominators_foreign_fractions_and_deep_nesting():
    """Text the domain cannot hold, or nested past the recursion limit, is
    ``PolyParseError``, not ZeroDivisionError, TypeError or RecursionError."""
    padic_ring = RingPresentation(TruncatedPadicRing(5, 3), ("z", "x", "y"))
    assert padic_ring.parse("4/2*x") == padic_ring.parse("2*x")
    cases = [
        (fermat_ring(7), "3/0*x", "zero denominator"),
        (RingPresentation(QQ, ("x", "y")), "0/0", "zero denominator"),
        (padic_ring, "1/2*x", "cannot coerce"),
        (fermat_ring(7), "(" * 3000 + "x" + ")" * 3000, "nested too deeply"),
        (fermat_ring(7), "-" * 3000 + "x", "nested too deeply"),
    ]
    for ring, text, message in cases:
        with pytest.raises(PolyParseError, match=message):
            ring.parse(text)


def test_unary_minus_negates_the_whole_factor():
    """A minus sign after ``*``, ``-`` or another sign negates the factor
    that follows, power included, as ring arithmetic does."""
    ring = fermat_ring(7)
    x, y, z = (ring.var(v) for v in ("x", "y", "z"))
    cases = {
        "x*-y^2": x * -(y ** 2),
        "x - -y^2": x + y ** 2,
        "-y^2": -(y ** 2),
        "x^2*-y*-z^3": x ** 2 * y * z ** 3,
        "--x": x,
        "x + -(y + z)^2": x - (y + z) ** 2,
        "2*-3^2*x": ring.const(-18) * x,
        "-x^2*y - -z": -(x ** 2) * y + z,
    }
    for text, expected in cases.items():
        assert ring.parse(text) == expected, text
    assert ring.parse("x*-y^2") != ring.parse("x*y^2")
    with pytest.raises(PolyParseError, match="nested too deeply"):
        ring.parse("x*" + "-" * 3000 + "y^2")


def test_key_refuses_exponent_tuples_of_the_wrong_length():
    ring = fermat_ring(7)
    for exps in ((0, 1), (1, 2, 0, 5), ()):
        with pytest.raises(ValueError, match="one entry per variable"):
            ring.monomial(exps)
    assert format_poly(ring.monomial((0, 1, 0))) == "x"


def test_poly_coerces_raw_coefficients(qq_ring):
    ring = fermat_ring(5)
    f = ring.poly({(1, 0, 0): 1, (0, 2, 0): 7})
    assert all(type(c) is type(ring.domain.one) for _, c in f.terms)
    assert format_poly(f) == "2*x^2 + z"
    assert f + ring.parse("3*x^2") == ring.parse("z")
    g = qq_ring.poly({(0, 1, 0): 2})
    assert g.terms[0][1] == Fraction(2) and type(g.terms[0][1]) is Fraction
    with pytest.raises(TypeError):
        ring.poly({(1, 0, 0): 0.5})


def test_orders_take_at_most_one_elimination_variable():
    with pytest.raises(ValueError, match="at most one"):
        WeightedGrevlex((1, 1, 1), block=2)


def test_rings_with_equal_presentations_mix():
    """Polynomials from two equal ring objects add, multiply and compare;
    a ring whose order has another block is refused, as is one with other
    variables."""
    a = RingPresentation(QQ, ("z", "x", "y"), (1, Fraction(1, 3), 1))
    b = RingPresentation(QQ, ("z", "x", "y"), (1, Fraction(1, 3), 1))
    f, g = a.parse("z^2 + x*y - 3"), b.parse("z^2 + x*y - 3")
    assert f == g and f is not g
    assert (f - g).is_zero() and (g - f).is_zero()
    assert f + g == a.parse("2*z^2 + 2*x*y - 6")
    assert g * f == f * f
    blocked = RingPresentation(QQ, ("z", "x", "y"), (1, Fraction(1, 3), 1), block=1)
    assert not a.compatible(blocked)
    h = blocked.parse("z^2 + x*y - 3")
    assert f != h
    for op in (lambda: f + h, lambda: h - f, lambda: f * h):
        with pytest.raises(ValueError, match="incompatible"):
            op()


def test_moved_reads_the_keys_in_a_ring_that_packs_alike():
    """Weights 1/3 and 1/9 on every variable both scale to (1, 1, 1), so a
    level-1 polynomial moves to level 2 by its keys alone, variable i to
    variable i.  Another domain, an elimination block, other weights or
    another number of variables pack differently, and are refused."""
    third, ninth = (Fraction(1, 3),) * 3, (Fraction(1, 9),) * 3
    level1 = RingPresentation(CYCLO, ("z1", "x1", "y1"), third)
    level2 = RingPresentation(CYCLO, ("z2", "x2", "y2"), ninth)
    f = level1.parse("z1^2*x1 + t*y1^3 - 2")
    g = f.moved(level2)
    assert g.ring is level2 and g.terms == f.terms
    assert g == level2.parse("z2^2*x2 + t*y2^3 - 2")
    assert g.moved(level1) == f and f.moved(level1) == f
    assert g.degree() == Fraction(1, 3) and f.degree() == 1
    for ring in (
        RingPresentation(QQ, ("z2", "x2", "y2"), ninth),
        RingPresentation(CYCLO, ("z2", "x2", "y2"), ninth, block=1),
        RingPresentation(CYCLO, ("z2", "x2", "y2"), (1, 1, 2)),
        RingPresentation(CYCLO, ("x2", "y2")),
    ):
        with pytest.raises(ValueError, match="do not pack monomials alike"):
            f.moved(ring)
    # a head weight of 2 * EXP_LIMIT + 1 packs keys like the elimination
    # block over (1, 1, 1), but the block's degree counts z once, not 2^20 + 1 times
    blocked = RingPresentation(CYCLO, ("z", "x", "y"), block=1)
    mimic = RingPresentation(CYCLO, ("z", "x", "y"), (2 * EXP_LIMIT + 1, 1, 1))
    assert blocked.order._units == mimic.order._units
    with pytest.raises(ValueError, match="do not pack monomials alike"):
        blocked.parse("z*x + y^2").moved(mimic)


def test_a_relation_poly_moves_into_a_ring_that_packs_alike():
    """A relation given as a Poly is moved by its keys, as the tower's
    levels take A_1's relation; a ring that packs otherwise refuses it."""
    third, ninth = (Fraction(1, 3),) * 3, (Fraction(1, 9),) * 3
    level1 = RingPresentation(CYCLO, ("z1", "x1", "y1"), third, relations=["z1^3 + t^3*x1^3 + t^6*y1^3"])
    level2 = RingPresentation(CYCLO, ("z2", "x2", "y2"), ninth, relations=level1.relations)
    (rel,) = level2.relations
    assert rel.ring is level2 and rel.terms == level1.relations[0].terms
    assert rel == level2.parse("z2^3 + t^3*x2^3 + t^6*y2^3")
    with pytest.raises(ValueError, match="do not pack monomials alike"):
        RingPresentation(CYCLO, ("z", "x", "y"), (1, 1, 2), relations=level1.relations)


def _key_sorted_terms(ring, terms):
    """The constructor as a plain sort: descending by the Fraction key, then
    drop zero coefficients."""
    order = ring.order
    return tuple(
        (m, c)
        for m, c in sorted(
            terms.items(), key=lambda t: _fraction_key(order.weights, order.block, t[0]), reverse=True
        )
        if c
    )


@st.composite
def _term_dicts(draw):
    """A Fermat ring over F_p, a QQ ring with weights 1 and 1/3, or an
    elimination ring (block 1) over either, with two term dicts in it whose
    coefficients include zeros."""
    kind = draw(st.sampled_from(["fermat", "weighted", "elimination"]))
    fermat = fermat_ring(draw(st.sampled_from([2, 5, 13])))
    weights = draw(st.lists(st.sampled_from([Fraction(1), Fraction(1, 3)]), min_size=3, max_size=3))
    weighted = RingPresentation(QQ, ("z", "x", "y"), weights)
    if kind == "fermat":
        ring = fermat
    elif kind == "weighted":
        ring = weighted
    else:
        ring = elimination_ring(draw(st.sampled_from([fermat, weighted])))
    mono = st.tuples(*[st.integers(0, 4)] * len(ring.variables))
    coeff = st.integers(-2, 2).map(ring.domain.coerce)
    return ring, [draw(st.dictionaries(mono, coeff, max_size=10)) for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(problem=_term_dicts())
def test_constructor_matches_the_key_sorted_constructor(problem):
    ring, (terms, divisor_terms) = problem
    f = ring.poly(terms)
    assert exponent_terms(f) == _key_sorted_terms(ring, terms)
    divisor = ring.poly(divisor_terms)
    if divisor:
        # division builds its results already sorted and wraps them as they are
        rem, quots = _divide(f, [divisor])
        for p in [rem] + quots:
            assert p.terms == Poly(ring, dict(p.terms)).terms


_SMALL_FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_HASH_RINGS = {
    "QQ": (RingPresentation(QQ, ("x", "y")), _SMALL_FRACTIONS.map(QQ.coerce)),
    # -6..6 are equal in pairs mod 5 once coerced
    "F_5": (RingPresentation(PrimeField(5), ("x", "y")), st.integers(-6, 6).map(PrimeField(5).coerce)),
    "cyclo9": (
        RingPresentation(CYCLO, ("x", "y")),
        st.builds(lambda c, k: CYCLO.coerce(c) * CycloNum.zeta_power(k), _SMALL_FRACTIONS, st.integers(0, 8)),
    ),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_HASH_RINGS)), data=st.data())
def test_equal_polynomials_hash_equal(name, data):
    """``f == g`` implies ``hash(f) == hash(g)`` over QQ, F_p and Q(zeta_9):
    on pairs equal by another route and on pairs drawn small enough to
    collide."""
    ring, coeff = _HASH_RINGS[name]
    mono = st.tuples(st.integers(0, 2), st.integers(0, 1))
    f, g, h = (ring.poly(data.draw(st.dictionaries(mono, coeff, max_size=3))) for _ in range(3))
    pairs = [(f, (f + g) - g), (f, f * ring.one()), (f, g), (g, h)]
    assert all(u == v for u, v in pairs[:2])
    for u, v in pairs:
        if u == v:
            assert hash(u) == hash(v)


def test_weighted_degrees_are_exact_fractions():
    ring = RingPresentation(CYCLO, ("z1", "x1", "y1"), weights=(Fraction(1, 3),) * 3)
    p = ring.parse("x1^2*y1")
    assert p.degree() == Fraction(1)
    assert ring.parse("x1").degree() == Fraction(1, 3)


def test_relations_must_be_weighted_homogeneous():
    with pytest.raises(ValueError, match="homogeneous"):
        RingPresentation(QQ, ("x", "y"), relations=["x^2 + y"])


def test_a_second_relation_is_refused():
    # one relation is its own Groebner basis; two need not be one
    with pytest.raises(ValueError, match="at most one relation"):
        RingPresentation(QQ, ("x", "y", "z"), relations=["x^2 - y*z", "y^2 - x*z"])


def test_fermat_relation_is_weighted_homogeneous():
    ring = RingPresentation(
        CYCLO, ("z1", "x1", "y1"), weights=(Fraction(1, 3),) * 3,
        relations=["z1^3 + t^3*x1^3 + t^6*y1^3"],
    )
    rel = ring.relations[0]
    assert rel.is_homogeneous()
    assert rel.degree() == Fraction(1)


def test_substitute_is_multiplicative(qq_ring):
    rng = random.Random(11)
    target = RingPresentation(QQ, ("u", "v"))
    images = {
        "x": target.parse("u^2 + v"),
        "y": target.parse("u - 1"),
        "z": target.parse("v^3"),
    }
    # one power table for every call with these images, as the tower keeps
    powers = {}

    def power(v, e):
        return cached_power(powers, v, images[v], e)

    for _ in range(15):
        terms_a = {tuple(rng.randrange(0, 3) for _ in range(3)): Fraction(rng.randrange(-3, 4)) for _ in range(3)}
        terms_b = {tuple(rng.randrange(0, 3) for _ in range(3)): Fraction(rng.randrange(-3, 4)) for _ in range(3)}
        a, b = qq_ring.poly(terms_a), qq_ring.poly(terms_b)
        assert (a * b).substitute(images, target) == a.substitute(images, target) * b.substitute(images, target)
        shared = (a * b).substitute(images, target, power)
        assert shared == a.substitute(images, target, power) * b.substitute(images, target, power)
        assert shared == (a * b).substitute(images, target)
    assert powers and all(p == images[v] ** e for (v, e), p in powers.items())


def test_exact_divide(qq_ring):
    f = qq_ring.parse("x^2*y + x*y^2")
    g = qq_ring.parse("x*y")
    assert exact_divide(f, g) == qq_ring.parse("x + y")
    with pytest.raises(ValueError, match="does not divide"):
        exact_divide(qq_ring.parse("x^2 + y"), g)
    with pytest.raises(ZeroDivisionError):
        exact_divide(f, qq_ring.zero())


def test_incompatible_ring_arithmetic_rejected(qq_ring):
    other = RingPresentation(QQ, ("a", "b"))
    with pytest.raises(ValueError, match="incompatible"):
        qq_ring.parse("x") + other.parse("a")
    with pytest.raises(ValueError, match="incompatible"):
        Poly.linear_combination(qq_ring, [(QQ.one, 0, qq_ring.parse("x")), (QQ.one, 0, other.parse("a"))])


def _dict_sum(ring, parts):
    """sum(c * x^m * f for c, m, f in parts) as a sum into one dict on
    exponent tuples, with the domain's own ``*`` and ``+``, as
    ``_schoolbook`` multiplies: no Poly arithmetic, so it is an oracle for
    ``linear_combination`` and for the sums and products built on it."""
    exponents = ring.order.exponents
    out = {}
    for c, m, f in parts:
        shift = exponents(m)
        for e, a in exponent_terms(f):
            e = tuple(map(add, e, shift))
            out[e] = out[e] + c * a if e in out else c * a
    return ring.poly(out)


@settings(max_examples=150, deadline=None)
@given(problem=_term_dicts(), scalars=st.lists(st.integers(-2, 2), min_size=2, max_size=2))
def test_linear_combination_matches_the_running_sum(problem, scalars):
    """One dict for the whole sum gives the Poly that summing each scaled
    part's terms on exponent tuples gives, with zero scalars, cancellation,
    scalar one and scalar -1."""
    ring, term_dicts = problem
    parts = [(ring.domain.coerce(c), 0, ring.poly(t)) for c, t in zip(scalars, term_dicts)]
    parts.append((ring.domain.one, 0, ring.poly(term_dicts[0])))
    parts.append((ring.domain.coerce(-1), 0, ring.poly(term_dicts[0])))
    assert Poly.linear_combination(ring, parts).terms == _dict_sum(ring, parts).terms


@pytest.mark.parametrize(
    "domain, one, minus_one",
    [
        (QQ, Fraction(1), Fraction(-1)),
        (CYCLO, CycloNum([1]), CycloNum([-1])),
        (PrimeField(5), 5 + 1, 5 - 1),
        (TruncatedPadicRing(5, 3), 125 + 1, 125 - 1),
    ],
    ids=["QQ", "Q(zeta9)", "F_5", "Z/5^3"],
)
def test_scalars_equal_to_the_shared_units_give_the_same_sum(domain, one, minus_one):
    """``linear_combination`` adds or subtracts with no product only for
    the domain's shared ``one`` and ``minus_one`` objects; a scalar equal
    to one of them (a residue equal modulo p^N) that is another object is
    multiplied (over Q(zeta_9), unit-shifted), to the same Poly, shifted
    or not."""
    ring = RingPresentation(domain, ("x", "y"))
    f, g = ring.parse("2*x^2 + 3*x*y - 1"), ring.parse("x^2 - 3*x*y + y")
    for shared, copy in ((domain.one, one), (domain.minus_one, minus_one)):
        assert copy is not shared
        for shift in (0, ring.order.key((1, 0))):
            by_shared = Poly.linear_combination(ring, [(domain.one, 0, f), (shared, shift, g)])
            by_copy = Poly.linear_combination(ring, [(domain.one, 0, f), (copy, shift, g)])
            assert by_copy == by_shared
            assert by_shared == _dict_sum(ring, [(domain.one, 0, f), (shared, shift, g)])
    assert f - g == Poly.linear_combination(ring, [(one, 0, f), (minus_one, 0, g)])


# ---------------------------------------------------------------------------
# Poly.__mul__ against the term-by-term product


def _schoolbook(f, g):
    """The product as ``Poly.__mul__`` once computed every product: the
    domain's own ``*`` and ``+``, one term pair at a time, on exponent
    tuples."""
    out = {}
    for m1, c1 in exponent_terms(f):
        for m2, c2 in exponent_terms(g):
            m = tuple(map(add, m1, m2))
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return f.ring.poly(out)


_RESIDUE_RINGS = [PrimeField(2), PrimeField(13), TruncatedPadicRing(5, 3), TruncatedPadicRing(2, 6)]


def _residues(domain):
    """Nonzero residues u * p^j, u a unit and j < N: their products with
    each other vanish exactly when the powers of p add up to N or more."""
    p, n = domain.p, domain.precision
    return st.builds(
        lambda u, j: domain.coerce(u * p ** j),
        st.integers(1, p ** n).filter(lambda u: u % p),
        st.integers(0, n - 1),
    )


def _coset_shapes(draw, terms):
    """Q(zeta_9) coefficients reshaped at random: kept as drawn, moved into
    t^r * Q(theta) (coordinates r and r + 3 only), or moved there and then
    one coefficient taken out of it again by adding c * t^(r+1).  Half the
    lists go into some t^r * Q(theta), so a quarter of the products have
    two lists that ``convolve`` lifts."""
    shape = draw(st.sampled_from(["coset", "coset", "broken", "drawn"]))
    if shape == "drawn" or not terms:
        return terms
    r = draw(st.integers(0, 2))
    terms = {
        m: CycloNum([c if k % 3 == r else 0 for k, c in enumerate(x.coords)])
        for m, x in terms.items()
    }
    if shape == "broken":
        m = draw(st.sampled_from(sorted(terms)))
        c = draw(st.integers(1, 3) | st.integers(1, 200).map(lambda k: 1 - (1 << k)))
        terms[m] = terms[m] + CYCLO.coerce(c) * CycloNum.zeta_power(r + 1)
    return terms


def _coefficients(domain, k):
    """Coefficients over ``domain``: integers 0, +-1, 2 and +-(2^k - 1),
    over QQ and Q(zeta_9) on denominators that are small, 3^j or 2^j - 1;
    residues as in ``_residues``."""
    ints = st.sampled_from([0, 1, -1, 2, (1 << k) - 1, 1 - (1 << k)])
    dens = st.one_of(
        st.integers(1, 6),
        st.integers(0, 60).map(lambda j: 3 ** j),
        st.integers(1, 200).map(lambda j: (1 << j) - 1),
    )
    if domain == QQ:
        return st.builds(Fraction, ints, dens)
    if domain == CYCLO:
        return st.builds(
            lambda num, den: CycloNum([Fraction(c, den) for c in num]),
            st.lists(ints, min_size=6, max_size=6),
            dens,
        )
    if domain == ZZ:
        return ints
    return _residues(domain)


@st.composite
def _products(draw, domains=(QQ, CYCLO, ZZ, *_RESIDUE_RINGS), min_size=0, cosets=False):
    """Two polynomials over one of ``domains`` with ``min_size`` to 12 terms
    each, by default on both sides of LIFT_MIN_TERMS.  Integers are small or
    +-(2^k - 1) for one k up to 200, denominators small, 3^j or 2^k - 1, so
    that lifted sums reach the packing width; ZZ takes the same integers, and
    residues are units times p^j, so zero-divisor products occur.  With ``cosets`` each Q(zeta_9) list is
    reshaped by ``_coset_shapes``, one r per list."""
    domain = draw(st.sampled_from(domains))
    coeff = _coefficients(domain, draw(st.integers(1, 200)))
    nvars = draw(st.integers(1, 3))
    ring = RingPresentation(domain, ("x", "y", "z")[:nvars])
    # few monomials, so that many term products meet in one output term
    mono = st.tuples(*[st.integers(0, 3 if nvars > 1 else 11)] * nvars)
    factors = []
    for _ in range(2):
        terms = draw(st.dictionaries(mono, coeff, min_size=min_size, max_size=12))
        if cosets and domain == CYCLO:
            terms = _coset_shapes(draw, terms)
        factors.append(ring.poly(terms))
    return tuple(factors)


@settings(max_examples=300, deadline=None)
@given(problem=_products())
def test_product_matches_the_schoolbook_product(problem):
    f, g = problem
    expected = _schoolbook(f, g).terms
    assert (f * g).terms == expected
    assert (g * f).terms == _schoolbook(g, f).terms == expected


@settings(max_examples=150, deadline=None)
@given(problem=_products((CYCLO,), min_size=LIFT_MIN_TERMS, cosets=True))
def test_lifted_cyclotomic_product_matches_the_schoolbook_product(problem):
    """Q(zeta_9) products of at least LIFT_MIN_TERMS terms per factor, with
    both lists in some t^r * Q(theta) (r per list), a list as drawn, or one
    coefficient out of its t^r * Q(theta).  Random keys are seldom two
    progressions, so nearly all go term by term; the coset forms below
    take the big-int product."""
    f, g = problem
    expected = _schoolbook(f, g).terms
    assert (f * g).terms == expected
    assert (g * f).terms == _schoolbook(g, f).terms == expected


@settings(max_examples=50, deadline=None)
@given(problem=_term_dicts())
def test_pow_matches_repeated_multiplication(problem):
    """``f ** n`` (``cached_power`` from a fresh table) is the schoolbook
    product of n factors f, and ``f ** 0`` the ring's one, over F_p and QQ,
    with and without an elimination block."""
    ring, (terms, _) = problem
    f = ring.poly(terms)
    direct = ring.one()
    for n in range(7):
        assert (f ** n).terms == direct.terms
        direct = _schoolbook(direct, f)
    with pytest.raises(ValueError, match="negative"):
        f ** -1


@settings(max_examples=200, deadline=None)
@given(
    problem=_products((QQ, CYCLO, *_RESIDUE_RINGS)),
    data=st.data(),
    foreign=st.sampled_from(["variables", "domain"]),
)
def test_sums_and_differences_match_the_dict_sum(problem, data, foreign):
    """``f + g``, ``f - g`` and ``c - f`` for a scalar c against the sum
    on exponent tuples, over QQ, Q(zeta_9), F_p and Z/p^N, whose drawn
    coefficients include zero divisors; a Poly of an incompatible ring
    raises ``ValueError`` from ``+``, ``-`` and ``*`` in either order."""
    f, g = problem
    ring = f.ring
    dom = ring.domain
    one, minus_one = dom.one, dom.coerce(-1)
    c = data.draw(_coefficients(dom, data.draw(st.integers(1, 200))))
    assert (f + g).terms == _dict_sum(ring, [(one, 0, f), (one, 0, g)]).terms
    assert (f - g).terms == _dict_sum(ring, [(one, 0, f), (minus_one, 0, g)]).terms
    constant = ring.poly({(0,) * len(ring.variables): c})
    assert (c - f).terms == _dict_sum(ring, [(one, 0, constant), (minus_one, 0, f)]).terms
    if foreign == "variables":
        other = RingPresentation(dom, ("u", "v", "w")[: len(ring.variables)])
    else:
        other = RingPresentation(PrimeField(7) if dom == QQ else QQ, ring.variables)
    h = other.poly({(1,) + (0,) * (len(ring.variables) - 1): other.domain.one})
    for u, v in ((f, h), (h, f)):
        for op in (add, sub, mul):
            with pytest.raises(ValueError, match="incompatible"):
                op(u, v)


@settings(max_examples=200, deadline=None)
@given(problem=_products(), data=st.data())
def test_mul_term_by_one_matches_the_multiply_path(problem, data):
    """A coefficient equal to the domain's one only moves keys, and that
    gives the product with the monomial of coefficient one, term by term,
    in every domain; ``one`` itself and an equal element built afresh
    alike, with or without a shift.  The domain's zero gives the zero
    polynomial, also over QQ, ZZ and Q(zeta_9), where ``mul_term`` filters
    no product for zero."""
    f, _ = problem
    ring = f.ring
    exps = data.draw(st.tuples(*[st.integers(0, 3)] * len(ring.variables)))
    for one in (ring.domain.one, ring.domain.coerce(1)):
        term = ring.monomial(exps, one)
        assert f.mul_term(term.lm(), one).terms == _schoolbook(f, term).terms
        assert f.mul_term(0, one).terms == _schoolbook(f, ring.one()).terms
    assert f.mul_term(ring.order.key(exps), ring.domain.zero).terms == ()
    assert (f * 0).terms == ()


@pytest.mark.parametrize("k", [1, 2, 31, 64, 200])
@pytest.mark.parametrize("n", [LIFT_MIN_TERMS, 9])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1)])
def test_lifted_product_at_the_packing_width(k, n, signs):
    """Every coordinate of every coefficient is +-(2^k - 1) and the middle
    output term x^(n-1) y^(n-1) collects n term products, so the t^5
    coefficient of its unfolded convolution is +-6 n (2^k - 1)^2; dense
    lists lie in no t^r * Q(theta), so these progressions go term by term."""
    ring = RingPresentation(CYCLO, ("x", "y"))
    top = (1 << k) - 1
    f, g = (
        ring.poly({(i, n - 1 - i): CycloNum([sign * top] * 6) for i in range(n)})
        for sign in signs
    )
    product = f * g
    assert product.terms == _schoolbook(f, g).terms
    # over one large denominator the numerators are the same
    d = (1 << 127) - 1
    scaled = Poly(ring, {m: c * CYCLO.coerce(Fraction(1, d)) for m, c in f.terms})
    assert (scaled * g).terms == _schoolbook(scaled, g).terms


@pytest.mark.parametrize("k", [1, 2, 31, 64, 200])
@pytest.mark.parametrize("n", [LIFT_MIN_TERMS, 9])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1)])
@pytest.mark.parametrize("shifts", [(0, 0), (1, 2), (2, 2)])
def test_lifted_coset_product_at_the_packing_width(k, n, signs, shifts):
    """Factors in t^rx * Q(theta) and t^ry * Q(theta) pack only coordinates
    r and r + 3.  With both +-(2^k - 1) and n term products meeting in the
    middle output term x^(n-1) y^(n-1), the T = t^3 digit of that term is
    +-2 n (2^k - 1)^2, the largest sum the two-coordinate width must hold;
    rx + ry = 4 puts the top digit at t^10, which the fold takes back."""
    ring = RingPresentation(CYCLO, ("x", "y"))
    top = (1 << k) - 1
    f, g = (
        ring.poly({
            (i, n - 1 - i): CycloNum([sign * top if j % 3 == r else 0 for j in range(6)])
            for i in range(n)
        })
        for sign, r in zip(signs, shifts)
    )
    product = f * g
    assert product.terms == _schoolbook(f, g).terms
    d = (1 << 127) - 1
    scaled = Poly(ring, {m: c * CYCLO.coerce(Fraction(1, d)) for m, c in f.terms})
    assert (scaled * g).terms == _schoolbook(scaled, g).terms


# ---------------------------------------------------------------------------
# the big-int product of two progressions, and the lists it does not lift


def _loops_taken(f, g):
    """f * g and g * f, with the number of the two whose coefficient lists
    the domain's ``convolve`` lifted."""
    domain = f.ring.domain
    convolve = domain.convolve
    lifted = []

    def spy(xs, ys):
        cs = convolve(xs, ys)
        lifted.append(cs is not None)
        return cs

    with mock.patch.object(domain, "convolve", spy):
        fg, gf = f * g, g * f
    return fg, gf, sum(lifted)


def _in_coset(x, r):
    """The part of a CycloNum x in t^r * Q(theta): coordinates r and r + 3."""
    return CycloNum([c if k % 3 == r else 0 for k, c in enumerate(x.coords)])


def _lists_lift(domain, xs, ys):
    """Whether ``convolve`` lifts the coefficient lists xs and ys: ZZ and
    the residue rings always, QQ never, Q(zeta_9) when each list lies in
    some t^r * Q(theta), its nonzero coordinates all at r and r + 3."""
    if domain == QQ:
        return False
    if domain != CYCLO:
        return True
    return all(len({k % 3 for c in cs for k, x in enumerate(c.num) if x}) == 1 for cs in (xs, ys))


def _lifts(f, g):
    """Whether ``convolve`` lifts the coefficient lists of f and g."""
    return _lists_lift(f.ring.domain, [c for _, c in f.terms], [c for _, c in g.terms])


def _form(ring, coefficients, step, shift, gap=None):
    """sum c_i x^(step i) y^(step (L - 1 - i)) times the monomial ``shift``,
    L the number of coefficients, without the term i = ``gap``: a
    homogeneous form in (x^step, y^step) times a monomial, whose keys are an
    arithmetic progression when nothing is left out."""
    top = len(coefficients) - 1
    px, py, pz = shift
    return ring.poly({
        (step * i + px, step * (top - i) + py, pz): c
        for i, c in enumerate(coefficients)
        if i != gap
    })


@st.composite
def _progressions(draw, same_step=True, gap=False, domains=(QQ, CYCLO, ZZ, *_RESIDUE_RINGS)):
    """Two forms in (x^s, y^s) times monomials over one of ``domains``, each
    with LIFT_MIN_TERMS to 12 terms and no zero coefficient, so both key
    lists are progressions with one step; half the Q(zeta_9) pairs have
    their coefficients in some t^r * Q(theta), one r for both.  Half the
    time the second has the first's coefficients with sign (-1)^i, so the
    product is f(u) f(-u), u = x^s / y^s, and every odd output digit
    cancels to 0.  With ``same_step`` false the second form is in
    (x^s', y^s'), s' != s; with ``gap`` one inner term of the first is left
    out: both go term by term.  The third entry is (s, the x-exponent of
    the two monomials) in the alternating case and None otherwise."""
    domain = draw(st.sampled_from(domains))
    coeff = _coefficients(domain, draw(st.integers(1, 200))).filter(bool)
    if domain == CYCLO and draw(st.booleans()):
        r = draw(st.integers(0, 2))
        coeff = coeff.map(lambda x: _in_coset(x, r)).filter(bool)
    ring = RingPresentation(domain, ("x", "y", "z"))
    shifts = st.tuples(*[st.integers(0, 3)] * 3)
    sizes = st.integers(LIFT_MIN_TERMS + gap, 12)
    s = draw(st.integers(1, 4))
    cs = draw(st.lists(coeff, min_size=draw(sizes), max_size=12))
    sf, sg = draw(shifts), draw(shifts)
    f = _form(ring, cs, s, sf, draw(st.integers(1, len(cs) - 2)) if gap else None)
    if same_step and draw(st.booleans()):
        ds = [-c if i % 2 else c for i, c in enumerate(cs)]
        return f, _form(ring, ds, s, sg), (s, sf[0] + sg[0])
    t = s if same_step else draw(st.integers(1, 4).filter(lambda t: t != s))
    ds = draw(st.lists(coeff, min_size=draw(sizes), max_size=12))
    return f, _form(ring, ds, t, sg), None


@settings(max_examples=200, deadline=None)
@given(problem=_progressions())
def test_diagonal_product_matches_the_schoolbook_product(problem):
    """Two forms in (x^s, y^s) times monomials, both key lists progressions
    with one step, are convolved in either order when the domain lifts
    both lists and term by term otherwise, and the product
    equals the schoolbook product."""
    f, g, alternating = problem
    fg, gf, packed = _loops_taken(f, g)
    assert packed == (2 if _lifts(f, g) else 0)
    assert fg.terms == gf.terms == _schoolbook(f, g).terms
    if alternating:
        # f(u) f(-u) is even in u: only even powers of x^s survive
        s, low = alternating
        assert all((e[0] - low) % (2 * s) == 0 for e, _ in exponent_terms(fg))


@settings(max_examples=100, deadline=None)
@given(problem=st.one_of(_progressions(same_step=False), _progressions(gap=True)))
def test_products_off_one_progression_take_the_dict_loop(problem):
    """Forms of two different steps, or one form with a gap, are not both
    progressions with one step, and go term by term."""
    f, g, _ = problem
    fg, gf, packed = _loops_taken(f, g)
    assert packed == 0
    assert fg.terms == gf.terms == _schoolbook(f, g).terms


@settings(max_examples=100, deadline=None)
@given(problem=_progressions(domains=(QQ, CYCLO)), data=st.data())
def test_progressions_the_domain_does_not_lift_go_term_by_term(problem, data):
    """Two progressions with one step over QQ, or over Q(zeta_9) with one
    list off every t^r * Q(theta) (one coefficient set to 1 + t, which has
    coordinates 0 and 1), are not lifted by ``convolve`` and equal the
    schoolbook product."""
    f, g, _ = problem

    def off_every_coset(h):
        terms = dict(exponent_terms(h))
        terms[data.draw(st.sampled_from(sorted(terms)))] = CycloNum([1, 1])
        return h.ring.poly(terms)

    if f.ring.domain == CYCLO:
        if data.draw(st.booleans()):
            f = off_every_coset(f)
        else:
            g = off_every_coset(g)
    assert not _lifts(f, g)
    fg, gf, packed = _loops_taken(f, g)
    assert packed == 0
    assert fg.terms == gf.terms == _schoolbook(f, g).terms


def _convolution(xs, ys):
    """The product of the coefficient lists ``xs`` and ``ys`` by its
    definition: entry i + j collects xs[i] * ys[j], one pair at a time."""
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out


def _alternating(n, k, sign=1):
    """sign * (-1)^i (2^k - 1) for i < n: with itself or its copy, every
    output digit collects its term products with one sign, so the middle
    one is min(len) (2^k - 1)^2 in size, at the packing width's bound."""
    top = (1 << k) - 1
    return [sign * top if i % 2 == 0 else -sign * top for i in range(n)]


@st.composite
def _int_lists(draw):
    """Two int lists for ``_kronecker``: lengths 1 to 100, lopsided pairs
    such as 6 x 90 among them; entries signed, all negative or alternating
    +-(2^k - 1), k up to about 3000 bits per list; a third of the pairs
    are one list twice (``ys is xs``), a square."""
    rng = draw(st.randoms(use_true_random=False))
    la, lb = draw(
        st.sampled_from([(6, 90), (90, 6), (1, 100), (100, 100)])
        | st.tuples(st.integers(1, 100), st.integers(1, 100))
    )
    bits = st.sampled_from([0, 1, 7, 8, 9, 64, 300, 3000]) | st.integers(0, 3000)

    def entries(n, k):
        shape = draw(st.sampled_from(["signed", "negative", "alternating"]))
        if shape == "alternating":
            return _alternating(n, k, draw(st.sampled_from([1, -1])))
        if shape == "negative":
            return [-1 - rng.getrandbits(k) for _ in range(n)]
        return [rng.randint(1 - (1 << k), (1 << k) - 1) for _ in range(n)]

    k = draw(bits)
    xs = entries(la, k)
    if draw(st.integers(0, 2)) == 0:
        return xs, xs
    return xs, entries(lb, draw(st.just(k) | bits))


def _square(xs):
    return xs, xs


@settings(max_examples=300, deadline=None)
@given(operands=_int_lists())
@example(operands=_square(_alternating(64, 64)))
@example(operands=(_alternating(100, 3000), _alternating(100, 3000)))
@example(operands=(_alternating(6, 8, -1), _alternating(90, 8)))
@example(operands=_square([-1]))
def test_kronecker_matches_the_nested_loop_convolution(operands):
    """The big-int product equals the convolution by its definition, which
    shares no code with the engine; the examples put a middle digit at the
    width bound, as a square, as two equal lists and as a 6 x 90 pair."""
    xs, ys = operands
    assert coefficients._kronecker(xs, ys) == _convolution(xs, ys)


def _domain_convolution(domain, xs, ys):
    """The product of two coefficient lists by its definition, in domain
    arithmetic: entry i + j collects xs[i] * ys[j], one pair at a time,
    and residues are reduced once at the end."""
    out = [domain.zero] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] = out[i + j] + x * y
    return [domain.coerce(c) for c in out]


@st.composite
def _coefficient_lists(draw):
    """Two coefficient lists over one domain, lengths 1 to 30, a third of
    them one list twice (a square).  Each Q(zeta_9) list is drawn dense,
    moved into t^r * Q(theta) with its own r (so rx + ry runs 0..4), moved
    there with a + b = 0 in every entry (coordinate r + 3 the negative of
    coordinate r, so the Karatsuba middle convolution cancels), or moved
    there and then one entry taken out again; denominators are small, 3^j
    or 2^j - 1, as ``_coefficients`` draws them."""
    domain = draw(st.sampled_from([QQ, CYCLO, ZZ, *_RESIDUE_RINGS]))
    coeff = _coefficients(domain, draw(st.integers(1, 200)))

    def one_list():
        xs = draw(st.lists(coeff, min_size=1, max_size=draw(st.sampled_from([3, 30]))))
        if domain != CYCLO:
            return xs
        shape = draw(st.sampled_from(["coset", "coset", "cancel", "broken", "drawn"]))
        if shape == "drawn":
            return xs
        r = draw(st.integers(0, 2))
        xs = [_in_coset(x, r) for x in xs]
        if shape == "cancel":
            xs = [CycloNum([-x.coords[r] if k == r + 3 else c for k, c in enumerate(x.coords)]) for x in xs]
        elif shape == "broken":
            i = draw(st.integers(0, len(xs) - 1))
            xs[i] = xs[i] + CycloNum.zeta_power(r + 1)
        return xs

    xs = one_list()
    return domain, xs, xs if draw(st.integers(0, 2)) == 0 else one_list()


@settings(max_examples=300, deadline=None)
@given(problem=_coefficient_lists())
def test_convolve_matches_the_nested_loop_convolution(problem):
    """Each domain's ``convolve`` equals the convolution in domain
    arithmetic wherever it lifts the lists, squares among them, and
    returns None exactly where the lists do not lift: QQ always, Q(zeta_9)
    when some list lies in no t^r * Q(theta)."""
    domain, xs, ys = problem
    got = domain.convolve(xs, ys)
    assert (got is None) == (not _lists_lift(domain, xs, ys))
    if got is not None:
        assert got == _domain_convolution(domain, xs, ys)


def _convolved_square(f):
    """The square of a form ``f`` in (x^s, y^s) times a monomial through
    the domain's ``convolve`` of its one coefficient list with itself, at
    any length: output j at the j-th key of the doubled progression."""
    cs = [c for _, c in f.terms]
    keys = [m for m, _ in f.terms]
    step = keys[1] - keys[0] if len(keys) > 1 else 0
    return Poly(f.ring, {2 * keys[0] + j * step: c for j, c in enumerate(f.ring.domain.convolve(cs, cs))})


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_square_loop_matches_the_schoolbook_square(data):
    """A form with 1, 2, 89, 90 or up to 40 nonzero coefficients over QQ,
    Q(zeta_9) (dense or in some t^r * Q(theta)), ZZ, F_p or Z/p^N, against
    the schoolbook square: convolved with itself where ``convolve`` lifts
    its list.  From LIFT_MIN_TERMS terms on, ``f * f`` then passes
    ``convolve`` one list for both factors, and every ``_kronecker`` call
    squares one int (one over ZZ and the residue rings, three over
    Q(zeta_9)); a product of two equal factors that are not one object
    passes two lists and multiplies; QQ and dense Q(zeta_9) squares make no
    ``_kronecker`` call.  Every way gives the same result."""
    domain = data.draw(st.sampled_from([QQ, CYCLO, ZZ, *_RESIDUE_RINGS]))
    coeff = _coefficients(domain, data.draw(st.integers(1, 200))).filter(bool)
    if domain == CYCLO and data.draw(st.booleans()):
        r = data.draw(st.integers(0, 2))
        coeff = coeff.map(lambda x: _in_coset(x, r)).filter(bool)
    n = data.draw(st.sampled_from([1, 2, 89, 90]) | st.integers(1, 40))
    ring = RingPresentation(domain, ("x", "y", "z"))
    cs = data.draw(st.lists(coeff, min_size=n, max_size=n))
    step, shift = data.draw(st.integers(1, 3)), data.draw(st.tuples(*[st.integers(0, 3)] * 3))
    f = _form(ring, cs, step, shift)
    expected = _schoolbook(f, f)
    lifts = _lifts(f, f)
    if lifts:
        assert _convolved_square(f) == expected
    if n >= LIFT_MIN_TERMS:
        calls = (3 if domain == CYCLO else 1) if lifts else 0
        kronecker = coefficients._kronecker
        with mock.patch.object(coefficients, "_kronecker", wraps=kronecker) as spy:
            assert (f * f).terms == expected.terms
            assert [c.args[1] is c.args[0] for c in spy.call_args_list] == [True] * calls
            spy.reset_mock()
            assert (f * Poly(ring, dict(f.terms))).terms == expected.terms
            assert [c.args[1] is c.args[0] for c in spy.call_args_list] == [False] * calls


@pytest.mark.parametrize("k", [1, 64, 200])
@pytest.mark.parametrize("n", [1, 2, LIFT_MIN_TERMS, 89, 90])
@pytest.mark.parametrize("r", [None, 0, 2])
def test_square_loop_at_the_packing_width(k, n, r):
    """Every coefficient +-(2^k - 1) at r and r + 3 only, signs
    alternating: the middle digit of the square collects n term products,
    as large as the width bound allows.  With every coordinate set (r
    None) no t^r * Q(theta) holds the list, and the square goes term by
    term."""
    ring = RingPresentation(CYCLO, ("x", "y"))
    top = (1 << k) - 1
    f = ring.poly({
        (i, n - 1 - i): CycloNum([(-1) ** i * top if r is None or j % 3 == r else 0 for j in range(6)])
        for i in range(n)
    })
    d = (1 << 127) - 1
    scaled = Poly(ring, {m: c * CYCLO.coerce(Fraction(1, d)) for m, c in f.terms})
    if r is not None:
        assert _convolved_square(f) == _schoolbook(f, f)
        assert _convolved_square(scaled) == _schoolbook(scaled, scaled)
    assert (scaled * scaled).terms == _schoolbook(scaled, scaled).terms


@pytest.mark.parametrize(
    "domain",
    [QQ, CYCLO, ZZ, PrimeField(5), TruncatedPadicRing(5, 3)],
    ids=["QQ", "cyclo9", "ZZ", "F5", "Z5^3"],
)
def test_diagonals_that_cancel_to_zero(domain):
    """With u = x^3 / y^3, (1 + u + ... + u^5)(1 - u + ... - u^5) y^30 z is
    (1 + u^2 + u^4 - u^6 - u^8 - u^10) y^30 z: the five odd entries of its
    convolution cancel to 0 and drop out, and the even ones are kept in
    order.  QQ lifts nothing and goes term by term, to the same result;
    the rational integers of Q(zeta_9) lie in t^0 * Q(theta) and lift."""
    ring = RingPresentation(domain, ("x", "y", "z"))
    f = _form(ring, [1] * 6, 3, (0, 0, 1))
    g = _form(ring, [1, -1] * 3, 3, (0, 0, 0))
    fg, gf, packed = _loops_taken(f, g)
    assert packed == (0 if domain == QQ else 2)
    expected = ring.parse("(y^30 + x^6*y^24 + x^12*y^18 - x^18*y^12 - x^24*y^6 - x^30)*z")
    assert fg == gf == _schoolbook(f, g) == expected
    assert len(fg.terms) == 6


@pytest.mark.parametrize(
    "domain",
    [QQ, CYCLO, ZZ, PrimeField(5), TruncatedPadicRing(5, 3)],
    ids=["QQ", "cyclo9", "ZZ", "F5", "Z5^3"],
)
def test_products_that_cancel(domain):
    """(x - y)(1 + z + z^2 + z^3) times the 6-term x^5 + x^4 y + ... + y^5
    is (x^6 - y^6)(1 + z + z^2 + z^3): 48 term products, 8 output terms."""
    ring = RingPresentation(domain, ("x", "y", "z"))
    f = ring.parse("(x - y)*(1 + z + z^2 + z^3)")
    g = ring.parse("x^5 + x^4*y + x^3*y^2 + x^2*y^3 + x*y^4 + y^5")
    assert len(f.terms) == 8 and len(g.terms) == 6
    expected = ring.parse("x^6*(1 + z + z^2 + z^3) - y^6*(1 + z + z^2 + z^3)")
    assert f * g == g * f == _schoolbook(f, g) == expected
    assert (f * ring.zero()).terms == (ring.zero() * f).terms == ()


def test_zero_divisor_products_vanish():
    """In Z/5^3 every product of a multiple of 5 and a multiple of 25 is
    zero, whatever the shapes of the factors; in every Z/p^N, u * p^j times
    v * p^k is zero exactly when j + k >= N, in products, one-term
    products, scalars and division steps alike."""
    ring = RingPresentation(TruncatedPadicRing(5, 3), ("x", "y"))
    f = ring.parse("5*x^3 + 10*x^2*y + 15*x*y^2 + 20*y^3 + 5*x")
    g = ring.parse("25*x^2 + 50*x*y + 75*y^2 + 100*x + 25")
    for h in (g, ring.parse("25*x"), ring.const(25)):
        assert (f * h).terms == (h * f).terms == ()
    assert f.mul_term(ring.order.key((1, 0)), ring.domain.coerce(50)).terms == ()
    # 5 * 25 vanishes but 5 * 1 does not: only the zero products drop out
    assert f * ring.parse("25*x + y") == f * ring.parse("y")
    for domain in (TruncatedPadicRing(p, n) for p in (2, 5, 7) for n in (1, 3, 8)):
        p, n = domain.p, domain.precision
        ring = RingPresentation(domain, ("x", "y"))
        for j in range(n + 1):
            k = n - j
            low = ring.poly({(1, 0): p ** j, (0, 1): -2 * p ** j})
            high = ring.poly({(0, 0): p ** k, (0, 2): 5 * p ** k})
            assert (low * high).is_zero() and (high * low).is_zero()
            assert (low * p ** k).is_zero()
            assert low.mul_term(ring.order.key((1, 1)), domain.coerce(-(p ** k))).is_zero()
            if k:
                assert not (low * p ** (k - 1)).is_zero()
            # each division step by x^2 + p^k y takes a quotient term
            # p^j * (x or y), and its update p^(j+k) * (x y or y^2) vanishes
            rem, (q,) = _divide(
                ring.parse("x^3 + x^2*y") * p ** j, [ring.parse("x^2") + p ** k * ring.var("y")]
            )
            assert rem.is_zero() and q == ring.parse("x + y") * p ** j


@st.composite
def _one_term_products(draw):
    """A polynomial and a one-term polynomial over QQ, F_p or Z/p^N in an
    elimination ring (block 1), the coefficients units times p^j."""
    domain = draw(st.sampled_from([QQ] + _RESIDUE_RINGS))
    if domain == QQ:
        coeff = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 5))
    else:
        coeff = _residues(domain)
    weights = draw(st.lists(st.sampled_from([Fraction(1), Fraction(1, 3)]), min_size=3, max_size=3))
    ring = elimination_ring(RingPresentation(domain, ("z", "x", "y"), weights))
    mono = st.tuples(*[st.integers(0, 3)] * 4)
    f = ring.poly(draw(st.dictionaries(mono, coeff, max_size=10)))
    return f, draw(mono), draw(coeff)


@settings(max_examples=200, deadline=None)
@given(problem=_one_term_products())
def test_one_term_product_keeps_the_order(problem):
    f, mono, coeff = problem
    term = f.ring.poly({mono: coeff})
    expected = _schoolbook(f, term).terms
    for product in (f * term, term * f, f.mul_term(f.ring.order.key(mono), coeff)):
        assert product.ring is f.ring
        assert product.terms == Poly(f.ring, dict(product.terms)).terms == expected
        assert all(c for _, c in product.terms)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=100, deadline=None)
@given(problem=_products((QQ, PrimeField(2), PrimeField(13))))
def test_product_matches_sympy(sympy, problem):
    """sympy's ``Poly.mul`` over QQ and modulo a prime, an oracle that
    shares no code with closurelab."""
    f, g = problem
    domain = f.ring.domain
    if domain == QQ:
        options = {"domain": "QQ"}

        def lift(c):
            return sympy.Rational(c.numerator, c.denominator)

        def lower(c):
            return Fraction(int(c.p), int(c.q))
    else:
        options = {"modulus": domain.p}

        def lift(c):
            return c

        def lower(c):
            return domain.coerce(int(c))

    gens = sympy.symbols(f.ring.variables)
    sf, sg = (
        sympy.Poly.from_dict({m: lift(c) for m, c in exponent_terms(h)}, *gens, **options)
        for h in (f, g)
    )
    assert dict(exponent_terms(f * g)) == {m: lower(c) for m, c in sf.mul(sg).as_dict().items()}


# ---------------------------------------------------------------------------
# residue arithmetic against dicts of ints reduced by hand

_DIFFERENTIAL_RINGS = [TruncatedPadicRing(p, n) for p in (2, 5, 7) for n in (1, 3, 8)]


def _reduced(d, modulus):
    """An exponent -> int dict with each value reduced, zeros dropped."""
    return {m: c % modulus for m, c in d.items() if c % modulus}


def _ref_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _ref_divide(f, divisors, ring):
    """Division on dicts of raw ints, reducing each popped coefficient;
    the order comes from the ring's keys."""
    modulus = ring.domain.modulus
    key = ring.order.key
    work, rem = dict(f), {}
    quots = [{} for _ in divisors]
    while work:
        m = min(work, key=key)
        c = work.pop(m) % modulus
        if not c:
            continue
        for q, d in zip(quots, divisors):
            lm = min(d, key=key)
            if all(map(le, lm, m)):
                qm = tuple(map(sub, m, lm))
                qc = c * pow(d[lm], -1, modulus) % modulus
                q[qm] = qc
                for dm, dc in d.items():
                    if dm != lm:
                        nm = tuple(map(add, qm, dm))
                        work[nm] = work.get(nm, 0) - qc * dc
                break
        else:
            rem[m] = c
    return rem, quots


@st.composite
def _residue_problems(draw):
    """Raw int coefficient dicts over Z/p^N: negative and out-of-range
    ints, and units times p^j (j up to N), so that products vanish."""
    domain = draw(st.sampled_from(_DIFFERENTIAL_RINGS))
    p, n, modulus = domain.p, domain.precision, domain.modulus
    raw = st.one_of(
        st.integers(-3 * modulus, 3 * modulus),
        st.builds(lambda u, j: u * p ** j, st.integers(-modulus, modulus), st.integers(0, n)),
    )
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
    polys = [draw(st.dictionaries(mono, raw, max_size=8)) for _ in range(3)]
    return RingPresentation(domain, ("x", "y")), polys, draw(mono), draw(raw)


@settings(max_examples=300, deadline=None)
@given(problem=_residue_problems())
def test_residue_arithmetic_matches_dicts_of_ints(problem):
    ring, (fd, gd, hd), mono, scalar = problem
    modulus = ring.domain.modulus

    def as_dict(poly):
        terms = exponent_terms(poly)
        assert all(type(c) is int and 0 < c < modulus for _, c in terms)
        return dict(terms)

    f, g, h = (ring.poly(d) for d in (fd, gd, hd))
    fd, gd, hd = (_reduced(d, modulus) for d in (fd, gd, hd))
    assert as_dict(f) == fd and as_dict(g) == gd
    assert as_dict(f + g) == _reduced({m: fd.get(m, 0) + gd.get(m, 0) for m in {*fd, *gd}}, modulus)
    assert as_dict(f - g) == _reduced({m: fd.get(m, 0) - gd.get(m, 0) for m in {*fd, *gd}}, modulus)
    assert as_dict(-f) == _reduced({m: -c for m, c in fd.items()}, modulus)
    assert as_dict(f * g) == as_dict(g * f) == _reduced(_ref_mul(fd, gd), modulus)
    assert as_dict(f * scalar) == _reduced({m: c * scalar for m, c in fd.items()}, modulus)
    shifted = f.mul_term(ring.order.key(mono), ring.domain.coerce(scalar))
    assert as_dict(shifted) == _reduced(_ref_mul(fd, {mono: scalar}), modulus)
    if not gd:
        return
    lc = g.lc()
    if lc % ring.domain.p == 0:
        with pytest.raises(ZeroDivisionError):
            g.monic()
        return
    inv = pow(lc, -1, modulus)
    assert as_dict(g.monic()) == _reduced({m: c * inv for m, c in gd.items()}, modulus)
    divisors = [g] + ([h] if h and h.lc() % ring.domain.p else [])
    rem, quots = _divide(f, divisors)
    ref_rem, ref_quots = _ref_divide(fd, [as_dict(d) for d in divisors], ring)
    assert as_dict(rem) == ref_rem
    assert [as_dict(q) for q in quots] == ref_quots
    # the quotients re-expand: f = sum q_i * d_i + rem
    assert sum((q * d for q, d in zip(quots, divisors)), rem) == f
    # a unit leading coefficient makes division by g exact on multiples of g
    assert exact_divide(f * g, g) == f


@st.composite
def _shifted_parts(draw):
    """(c, m, f) parts over QQ, Q(zeta_9), ZZ, F_p or Z/p^N: the two
    factors of ``_products`` and an equal one built afresh, each scaled by
    a drawn coefficient (zero included), the domain's ``one`` or -1, and
    shifted by a packed monomial that is 0 about half the time."""
    f, g = draw(_products())
    ring = f.ring
    dom = ring.domain
    coeff = st.one_of(
        _coefficients(dom, draw(st.integers(1, 200))), st.sampled_from([dom.zero, dom.one, dom.coerce(-1)])
    )
    shift = st.one_of(
        st.just(0), st.tuples(*[st.integers(0, 3)] * len(ring.variables)).map(ring.order.key)
    )
    return ring, [(draw(coeff), draw(shift), h) for h in (f, g, Poly(ring, dict(f.terms)))]


@settings(max_examples=200, deadline=None)
@given(problem=_shifted_parts())
def test_shifted_linear_combination_matches_the_chained_sum(problem):
    """Each (c, m, f) adds c * x^m * f: the Poly of the chained sum of
    ``c * f.mul_term(m, one)``, with zero and nonzero shifts, in every
    domain."""
    ring, parts = problem
    assert Poly.linear_combination(ring, parts).terms == _dict_sum(ring, parts).terms


def test_shifted_linear_combination_refuses_overflow_and_foreign_rings(qq_ring):
    """A shift that takes an exponent to EXP_LIMIT raises ``OverflowError``,
    as ``mul_term`` does, also when the shifted term cancels; a part from an
    incompatible ring raises ``ValueError``, shifted or not."""
    f = qq_ring.parse("x^3 + y")
    near = qq_ring.order.key((EXP_LIMIT - 3, 0, 0))
    assert Poly.linear_combination(qq_ring, [(QQ.one, near - qq_ring.order.key((1, 0, 0)), f)])
    for parts in ([(QQ.one, near, f)], [(QQ.one, near, f), (QQ.coerce(-1), near, f)]):
        with pytest.raises(OverflowError):
            Poly.linear_combination(qq_ring, parts)
    with pytest.raises(OverflowError):
        f.mul_term(near, QQ.one)
    other = RingPresentation(QQ, ("a", "b"))
    for shift in (0, qq_ring.order.key((0, 1, 0))):
        with pytest.raises(ValueError, match="incompatible"):
            Poly.linear_combination(qq_ring, [(QQ.one, 0, f), (QQ.one, shift, other.parse("a"))])


# ---------------------------------------------------------------------------
# one-pass construction, the shared zero and terms kept in order


def _filtered_constructor(ring, terms):
    """The constructor as it was: a sorted key list, a list of residues,
    then ``zip`` and ``filter`` to drop the zeros."""
    monos = sorted(terms)
    mod = ring.domain.modulus
    if mod:
        coeffs = [terms[m] % mod for m in monos]
    else:
        coeffs = map(terms.__getitem__, monos)
    return tuple(filter(itemgetter(1), zip(monos, coeffs)))


_PADIC_XY = RingPresentation(TruncatedPadicRing(5, 3), ("x", "y"))


@st.composite
def _raw_term_dicts(draw):
    """A packed key -> coefficient dict over QQ, Q(zeta_9), F_p or Z/p^N,
    possibly empty, with its keys in the order drawn (not sorted) and zero
    coefficients; residues are raw ints, negative, out of range or
    multiples of p^N that vanish."""
    domain = draw(st.sampled_from([QQ, CYCLO, PrimeField(7), TruncatedPadicRing(5, 3), TruncatedPadicRing(2, 6)]))
    ring = RingPresentation(domain, ("x", "y"))
    q = domain.modulus
    if q:
        coeff = st.one_of(
            st.integers(-3 * q, 3 * q),
            st.builds(lambda u, j: u * domain.p ** j, st.integers(-q, q), st.integers(0, domain.precision)),
        )
    else:
        coeff = st.one_of(_coefficients(domain, draw(st.integers(1, 60))), st.just(domain.zero))
    mono = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(ring.order.key)
    return ring, draw(st.dictionaries(mono, coeff, max_size=10))


@settings(max_examples=300, deadline=None)
@given(problem=_raw_term_dicts())
@example(problem=(_PADIC_XY, {}))
@example(
    problem=(
        _PADIC_XY,
        {_PADIC_XY.order.key(e): c for e, c in (((0, 1), 125), ((2, 0), -1), ((1, 0), 126), ((0, 0), -250))},
    )
)
def test_constructor_matches_the_filtered_constructor(problem):
    ring, terms = problem
    assert Poly(ring, terms).terms == _filtered_constructor(ring, terms)


def test_each_ring_has_one_shared_zero(qq_ring):
    zero = qq_ring.zero()
    assert zero is qq_ring.zero()
    assert zero.ring is qq_ring and zero.terms == ()
    assert zero == Poly(qq_ring, {}) == qq_ring.parse("x - x")
    twin = RingPresentation(QQ, ("x", "y", "z"))
    assert twin.zero() is not zero and twin.zero() == zero


def test_linear_combination_refuses_a_zero_part_from_a_foreign_ring(qq_ring):
    """A part with no terms adds nothing, but its ring is still checked."""
    f = qq_ring.parse("x + y")
    foreign = RingPresentation(QQ, ("a", "b")).zero()
    for shift in (0, qq_ring.order.key((0, 1, 0))):
        with pytest.raises(ValueError, match="incompatible"):
            Poly.linear_combination(qq_ring, [(QQ.one, 0, f), (QQ.one, shift, foreign)])
        assert Poly.linear_combination(qq_ring, [(QQ.one, 0, f), (QQ.one, shift, qq_ring.zero())]) == f


@settings(max_examples=200, deadline=None)
@given(problem=_raw_term_dicts())
def test_negation_and_monic_match_their_dict_built_reference(problem):
    """``-f`` and ``f.monic()`` keep f's order; each equals the Poly the
    constructor builds from the dict of its coefficients."""
    ring, terms = problem
    f = Poly(ring, terms)
    assert (-f).terms == Poly(ring, {m: -c for m, c in f.terms}).terms
    if not f:
        assert f.monic() is f
        return
    try:
        inv = ring.domain.inv(f.lc())
    except ZeroDivisionError:  # a leading residue divisible by p
        with pytest.raises(ZeroDivisionError):
            f.monic()
        return
    assert f.monic().terms == Poly(ring, {m: c * inv for m, c in f.terms}).terms


# ---------------------------------------------------------------------------
# the printer against the term-by-term printer it replaced


def _reference_cyclo(value, parenthesize):
    """A Q(zeta_9) coefficient as the earlier printer wrote it: each term
    built as text with its sign, joined by its sign, and parenthesized when
    the text holds a sign, a space or t."""
    parts = []
    for k in range(5, -1, -1):
        a = value.num[k]
        if not a:
            continue
        c = str(Fraction(a, value.den))
        if k == 0:
            term = c
        elif c == "1":
            term = ("", "t", "t^2", "t^3", "t^4", "t^5")[k]
        elif c == "-1":
            term = "-" + ("", "t", "t^2", "t^3", "t^4", "t^5")[k]
        else:
            term = f"{c}*" + ("", "t", "t^2", "t^3", "t^4", "t^5")[k]
        if not parts:
            parts.append(term)
        elif term[0] == "-":
            parts.append("- " + term[1:])
        else:
            parts.append("+ " + term)
    text = " ".join(parts) if parts else "0"
    if parenthesize and (any(ch in text for ch in "+- ") or "t" in text):
        return f"({text})"
    return text


def _reference_format(p):
    """``format_poly`` as it was: the exponents of each term decoded to a
    tuple, the monomial joined from them, the coefficient's text compared
    with 1 and -1, each later term joined by the sign its text starts with."""
    if not p.terms:
        return "0"
    ring = p.ring
    parts = []
    for m, c in p.terms:
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(ring.variables, ring.order.exponents(m)) if e
        )
        if ring.domain == CYCLO:
            ctext = _reference_cyclo(c, bool(mono))
        else:
            ctext = str(c)
        if not mono:
            term = ctext
        elif ctext == "1":
            term = mono
        elif ctext == "-1":
            term = f"-{mono}"
        else:
            term = f"{ctext}*{mono}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append("- " + term[1:])
        else:
            parts.append("+ " + term)
    return " ".join(parts)


_UNIT_POWERS = [u for k in range(9) for u in (CycloNum.zeta_power(k), -CycloNum.zeta_power(k))]


def _printed_cyclo():
    """Q(zeta_9) coefficients of every shape the printer meets: in some
    t^r * Q(theta), dense, rational, the shared 1 and -1 and equal copies,
    and the units +-t^k."""
    ints = st.integers(-(1 << 70), 1 << 70)
    dens = st.sampled_from([1, 2, 3, 9, 7 * 3 ** 20, (1 << 61) - 1])
    dense = st.builds(
        lambda num, d: CycloNum([Fraction(c, d) for c in num]), st.lists(ints, min_size=6, max_size=6), dens
    )
    coset = st.builds(
        lambda a, b, r, d: CycloNum([0] * r + [Fraction(a, d), 0, 0, Fraction(b, d)]),
        ints, ints, st.integers(0, 2), dens,
    )
    rational = st.builds(lambda a, d: CYCLO.coerce(Fraction(a, d)), ints, dens)
    units = st.sampled_from([CYCLO.one, CYCLO.minus_one, CycloNum([1]), CycloNum([-1]), *_UNIT_POWERS])
    return st.one_of(dense, coset, rational, units).filter(bool)


@st.composite
def _printed_polys(draw):
    """A polynomial over QQ, Q(zeta_9), F_7 or Z/5^3, in a plain ring or one
    with an elimination block, with a constant term half the time and
    sometimes nothing else."""
    domain = draw(st.sampled_from([QQ, CYCLO, PrimeField(7), TruncatedPadicRing(5, 3)]))
    block = draw(st.integers(0, 1))
    names = ("w", "x1", "y1", "z1")[: draw(st.integers(1 + block, 4))]
    weights = [Fraction(1, 3 ** (i % 2 + 1)) for i in range(len(names))]
    ring = RingPresentation(domain, names, weights, block=block)
    if domain == CYCLO:
        coeff = _printed_cyclo()
    elif domain == QQ:
        coeff = st.builds(Fraction, st.integers(-(1 << 70), 1 << 70), st.integers(1, 50)).filter(bool)
    else:
        coeff = st.integers(1, domain.modulus - 1)
    exps = st.tuples(*[st.integers(0, 3) | st.sampled_from([0, 1, 27, EXP_LIMIT - 1])] * len(names))
    constant = draw(st.booleans())
    terms = {} if draw(st.booleans()) and constant else draw(st.dictionaries(exps, coeff, max_size=8))
    if constant:
        terms[(0,) * len(names)] = draw(coeff)
    return ring.poly(terms)


@settings(max_examples=400, deadline=None)
@given(p=_printed_polys())
def test_format_matches_the_reference_printer(p):
    assert format_poly(p) == _reference_format(p)


@settings(max_examples=200, deadline=None)
@given(p=_printed_polys().filter(lambda p: p.ring.domain == CYCLO))
def test_cyclotomic_text_parses_back(p):
    """``parse(format_poly(f)) == f`` over Q(zeta_9), where coefficients are
    printed in parentheses and as ``(-1)*x``."""
    assert p.ring.parse(format_poly(p)) == p


def test_cyclotomic_format_keeps_its_forms():
    """The forms the printer writes over Q(zeta_9): ``(-1)*`` for a -1
    before a monomial, a positive rational bare, any other coefficient in
    parentheses, and a constant term unparenthesized."""
    ring = RingPresentation(CYCLO, ("x", "y"))
    assert format_poly(ring.parse("x - y")) == "x + (-1)*y"
    assert format_poly(ring.parse("-x + 1/2*y - 3")) == "(-1)*x + 1/2*y - 3"
    assert format_poly(ring.parse("t*x + (1 - t^5)*y - t^2 + 1/3")) == "(t)*x + (-t^5 + 1)*y - t^2 + 1/3"
    assert format_poly(ring.const(CycloNum([0, 0, -1]))) == "-t^2"
    assert CYCLO.format(CycloNum([Fraction(-2, 3)]), True) == "(-2/3)"
    assert CYCLO.format(CYCLO.zero, True) == "0"


# ---------------------------------------------------------------------------
# unit scalars of a linear combination over Q(zeta_9)


@settings(max_examples=100, deadline=None)
@given(problem=_products((CYCLO,)), data=st.data())
def test_unit_scalars_match_the_dict_sum(problem, data):
    """A linear combination whose scalars are the 18 units +-t^k, the shared
    ``one`` and ``minus_one`` and equal copies of both, each part shifted
    or not, is the sum on exponent tuples with the domain's own ``*`` and
    ``+``: a unit shifts coordinates in place of the product."""
    f, g = problem
    ring = f.ring
    n = len(ring.variables)
    shifts = [0, *(ring.order.key(tuple(int(i == j) for j in range(n))) for i in range(n))]
    scalars = [*_UNIT_POWERS, CYCLO.one, CYCLO.minus_one, CycloNum([1]), CycloNum([-1])]
    parts = [(u, data.draw(st.sampled_from(shifts)), data.draw(st.sampled_from([f, g]))) for u in scalars]
    assert Poly.linear_combination(ring, parts).terms == _dict_sum(ring, parts).terms
    for u in scalars:
        pair = [(u, 0, f), (u, 0, g)]
        assert Poly.linear_combination(ring, pair).terms == _dict_sum(ring, pair).terms
