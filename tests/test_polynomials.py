import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab.charp import fermat_ring
from closurelab.coefficients import CYCLO, QQ
from closurelab.groebner import _divide, elimination_ring, exact_divide
from closurelab.polynomials import (
    Poly,
    PolyParseError,
    RingPresentation,
    WeightedGrevlex,
    format_poly,
)


@pytest.fixture
def qq_ring():
    return RingPresentation(QQ, ("x", "y", "z"))


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
        p = Poly(qq_ring, terms)
        keys = [_fraction_key(order.weights, order.block, m) for m, _ in p.terms]
        assert all(a > b for a, b in zip(keys, keys[1:]))


def test_grevlex_tie_break(qq_ring):
    # equal total degree: last differing variable, smaller exponent wins
    x2 = qq_ring.parse("x^2")
    xy = qq_ring.parse("x*y")
    yz = qq_ring.parse("y*z")
    p = x2 + xy + yz
    assert [format_poly(qq_ring.monomial(m)) for m, _ in p.terms] == ["x^2", "x*y", "y*z"]


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
    assert _sign(order.key(a), order.key(b)) == -_sign(
        _fraction_key(weights, block, a), _fraction_key(weights, block, b)
    )
    degree = order.degree(a)
    assert isinstance(degree, Fraction)
    assert degree == sum((w * e for w, e in zip(weights, a)), Fraction(0))


@given(
    data=st.data(),
    nvars=st.integers(1, 4),
    block=st.integers(0, 2),
)
def test_heap_key_order_is_the_reverse_of_the_key_order(data, nvars, block):
    """``order.key`` is the heap key: flat ints, smallest for the leading
    monomial, so it sorts in the reverse of the ascending Fraction key and
    tells every two monomials apart."""
    block = min(block, nvars)
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
        assert all(type(k) is int for k in ha)
        assert _sign(ha, hb) == -_sign(
            _fraction_key(weights, block, a), _fraction_key(weights, block, b)
        )
        assert (ha == hb) == (a == b)


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
    coeff = st.integers(-2, 2).map(ring.domain.from_int)
    return ring, [draw(st.dictionaries(mono, coeff, max_size=10)) for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(problem=_term_dicts())
def test_constructor_matches_the_key_sorted_constructor(problem):
    ring, (terms, divisor_terms) = problem
    f = Poly(ring, terms)
    assert f.terms == _key_sorted_terms(ring, terms)
    divisor = Poly(ring, divisor_terms)
    if divisor:
        # division builds its results already sorted and wraps them as they are
        rem, quots = _divide(f, [divisor])
        for p in [rem] + quots:
            assert p.terms == Poly(ring, dict(p.terms)).terms


def test_weighted_degrees_are_exact_fractions():
    ring = RingPresentation(CYCLO, ("z1", "x1", "y1"), weights=(Fraction(1, 3),) * 3)
    p = ring.parse("x1^2*y1")
    assert p.degree() == Fraction(1)
    assert ring.parse("x1").degree() == Fraction(1, 3)


def test_relations_must_be_weighted_homogeneous():
    with pytest.raises(ValueError, match="homogeneous"):
        RingPresentation(QQ, ("x", "y"), relations=["x^2 + y"])


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
    for _ in range(15):
        terms_a = {tuple(rng.randrange(0, 3) for _ in range(3)): Fraction(rng.randrange(-3, 4)) for _ in range(3)}
        terms_b = {tuple(rng.randrange(0, 3) for _ in range(3)): Fraction(rng.randrange(-3, 4)) for _ in range(3)}
        a, b = Poly(qq_ring, terms_a), Poly(qq_ring, terms_b)
        assert (a * b).substitute(images, target) == a.substitute(images, target) * b.substitute(images, target)


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


def test_pow_matches_repeated_multiplication(qq_ring):
    p = qq_ring.parse("x + 2*y - z")
    direct = qq_ring.one()
    for k in range(6):
        assert p ** k == direct
        direct = direct * p
