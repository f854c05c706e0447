import random
from fractions import Fraction
from itertools import permutations
from operator import add, le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab.charp import fermat_ring
from closurelab.coefficients import CYCLO, QQ, CycloNum, PrimeField, TruncatedPadicRing
from closurelab.groebner import _divide, elimination_ring, exact_divide, normal_form
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
        assert order.lcm(kx, ky) == order.key(tuple(map(max, x, y)))
    # the product is the lcm exactly when no variable divides both
    assert (order.lcm(ka, kb) == ka + kb) == (not any(map(min, a, b)))


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
    # x+y reads 2 terms; (x+y)^2 squares (2 * 2 pairs), then 1 * (x+y)^2
    # (1 * 3); -z reads 1 term, x*(-z) forms 1 pair, the outer sum reads 3 + 1
    assert ring.parse("(x+y)^2 + x*-z", budget) == ring.parse("x^2 + 2*x*y + y^2 - x*z")
    assert PARSE_WORK_LIMIT - budget.work_left == 2 + 4 + 3 + 1 + 1 + 4
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
    # one power mapping for every call with these images, as the tower keeps
    powers = {}
    for _ in range(15):
        terms_a = {tuple(rng.randrange(0, 3) for _ in range(3)): Fraction(rng.randrange(-3, 4)) for _ in range(3)}
        terms_b = {tuple(rng.randrange(0, 3) for _ in range(3)): Fraction(rng.randrange(-3, 4)) for _ in range(3)}
        a, b = qq_ring.poly(terms_a), qq_ring.poly(terms_b)
        assert (a * b).substitute(images, target) == a.substitute(images, target) * b.substitute(images, target)
        shared = (a * b).substitute(images, target, powers)
        assert shared == a.substitute(images, target, powers) * b.substitute(images, target, powers)
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
        Poly.linear_combination(qq_ring, [(QQ.one, qq_ring.parse("x")), (QQ.one, other.parse("a"))])


@settings(max_examples=150, deadline=None)
@given(problem=_term_dicts(), scalars=st.lists(st.integers(-2, 2), min_size=2, max_size=2))
def test_linear_combination_matches_the_running_sum(problem, scalars):
    """One dict for the whole sum gives the Poly that adding one scaled
    part at a time gives, with zero scalars, cancellation and scalar one."""
    ring, term_dicts = problem
    parts = [(ring.domain.coerce(c), ring.poly(t)) for c, t in zip(scalars, term_dicts)]
    parts.append((ring.domain.one, ring.poly(term_dicts[0])))
    parts.append((ring.domain.coerce(-1), ring.poly(term_dicts[0])))
    expected = ring.zero()
    for c, f in parts:
        expected = expected + f * c
    assert Poly.linear_combination(ring, parts).terms == expected.terms


def test_pow_matches_repeated_multiplication(qq_ring):
    p = qq_ring.parse("x + 2*y - z")
    direct = qq_ring.one()
    for k in range(6):
        assert p ** k == direct
        direct = direct * p


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


@st.composite
def _products(draw, domains=(QQ, CYCLO, *_RESIDUE_RINGS)):
    """Two polynomials over one of ``domains`` with 0 to 12 terms each, on
    both sides of LIFT_MIN_TERMS.  Integers are small or
    +-(2^k - 1) for one k up to 200, denominators small, 3^j or 2^k - 1, so
    that lifted sums reach the packing width; residues are units times p^j,
    so zero-divisor products occur."""
    domain = draw(st.sampled_from(domains))
    k = draw(st.integers(1, 200))
    ints = st.sampled_from([0, 1, -1, 2, (1 << k) - 1, 1 - (1 << k)])
    dens = st.one_of(
        st.integers(1, 6),
        st.integers(0, 60).map(lambda j: 3 ** j),
        st.integers(1, 200).map(lambda j: (1 << j) - 1),
    )
    if domain == QQ:
        coeff = st.builds(Fraction, ints, dens)
    elif domain == CYCLO:
        coeff = st.builds(
            lambda num, den: CycloNum([Fraction(c, den) for c in num]),
            st.lists(ints, min_size=6, max_size=6),
            dens,
        )
    else:
        coeff = _residues(domain)
    nvars = draw(st.integers(1, 3))
    ring = RingPresentation(domain, ("x", "y", "z")[:nvars])
    # few monomials, so that many term products meet in one output term
    mono = st.tuples(*[st.integers(0, 3 if nvars > 1 else 11)] * nvars)
    f, g = (ring.poly(draw(st.dictionaries(mono, coeff, max_size=12))) for _ in range(2))
    return f, g


@settings(max_examples=300, deadline=None)
@given(problem=_products())
def test_product_matches_the_schoolbook_product(problem):
    f, g = problem
    expected = _schoolbook(f, g).terms
    assert (f * g).terms == expected
    assert (g * f).terms == _schoolbook(g, f).terms == expected


@settings(max_examples=200, deadline=None)
@given(problem=_products(), data=st.data())
def test_mul_term_by_one_matches_the_multiply_path(problem, data):
    """A coefficient equal to the domain's one only moves keys, and that
    gives the product with the monomial of coefficient one, term by term,
    in every domain; ``one`` itself and an equal element built afresh
    alike, with or without a shift."""
    f, _ = problem
    ring = f.ring
    exps = data.draw(st.tuples(*[st.integers(0, 3)] * len(ring.variables)))
    for one in (ring.domain.one, ring.domain.coerce(1)):
        term = ring.monomial(exps, one)
        assert f.mul_term(term.lm(), one).terms == _schoolbook(f, term).terms
        assert f.mul_term(0, one).terms == _schoolbook(f, ring.one()).terms


@pytest.mark.parametrize("k", [1, 2, 31, 64, 200])
@pytest.mark.parametrize("n", [LIFT_MIN_TERMS, 9])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1)])
def test_lifted_product_at_the_packing_width(k, n, signs):
    """Every coordinate of every coefficient is +-(2^k - 1) and the middle
    output term x^(n-1) y^(n-1) collects n term products, so the t^5
    coefficient of its unfolded convolution is +-6 n (2^k - 1)^2: the
    largest sum the packing width must hold."""
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


@pytest.mark.parametrize(
    "domain",
    [QQ, CYCLO, PrimeField(5), TruncatedPadicRing(5, 3)],
    ids=["QQ", "cyclo9", "F5", "Z5^3"],
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
            rem, (q,) = normal_form(
                ring.parse("x^3 + x^2*y") * p ** j, [ring.parse("x^2") + p ** k * ring.var("y")],
                with_quotients=True,
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
    rem, quots = normal_form(f, divisors, with_quotients=True)
    ref_rem, ref_quots = _ref_divide(fd, [as_dict(d) for d in divisors], ring)
    assert as_dict(rem) == ref_rem
    assert [as_dict(q) for q in quots] == ref_quots
    # the quotients re-expand: f = sum q_i * d_i + rem
    assert sum((q * d for q, d in zip(quots, divisors)), rem) == f
    # a unit leading coefficient makes division by g exact on multiples of g
    assert exact_divide(f * g, g) == f
