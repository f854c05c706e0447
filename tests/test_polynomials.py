import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from closurelab.coefficients import CYCLO, QQ
from closurelab.groebner import exact_divide
from closurelab.polynomials import (
    Poly,
    PolyParseError,
    RingPresentation,
    WeightedGrevlex,
    format_poly,
    parse_cyclo,
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
    assert parse_cyclo("t^3").coords[3] == 1


def test_unknown_variable_rejected(qq_ring):
    with pytest.raises(PolyParseError, match="unknown variable"):
        qq_ring.parse("x + w")


def test_zero_polynomial_is_empty(qq_ring):
    assert qq_ring.parse("x - x").terms == ()
    assert not qq_ring.parse("0")


def test_terms_strictly_decreasing(qq_ring):
    rng = random.Random(5)
    key = qq_ring.order.key
    for _ in range(30):
        terms = {}
        for _ in range(6):
            m = tuple(rng.randrange(0, 4) for _ in range(3))
            terms[m] = Fraction(rng.randrange(-4, 5))
        p = Poly(qq_ring, terms)
        monos = [m for m, _ in p.terms]
        assert all(key(a) > key(b) for a, b in zip(monos, monos[1:]))


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
    assert _sign(order.key(a), order.key(b)) == _sign(
        _fraction_key(weights, block, a), _fraction_key(weights, block, b)
    )
    degree = order.degree(a)
    assert isinstance(degree, Fraction)
    assert degree == sum((w * e for w, e in zip(weights, a)), Fraction(0))


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
