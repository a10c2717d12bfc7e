import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from superflip.grassmann import (
    DimensionError,
    DomainError,
    GrassmannNumber as G,
    NotInvertibleError,
    allclose,
)

from conftest import random_grassmann


def grassmann_strategy(n=3, body=None):
    masks = list(range(1, 1 << n))

    def build(draw_coeffs, body_val):
        coeffs = {m: v for m, v in zip(masks, draw_coeffs) if v != 0.0}
        x = G(n, coeffs)
        return x + body_val

    coeff = st.floats(min_value=-2, max_value=2, allow_nan=False)
    body_strategy = (
        st.floats(min_value=-3, max_value=3, allow_nan=False)
        if body is None
        else st.just(body)
    )
    return st.builds(build, st.lists(coeff, min_size=len(masks), max_size=len(masks)), body_strategy)


# ----------------------------------------------------------------------
# multiplication and structure maps
# ----------------------------------------------------------------------
def test_generator_products_anticommute():
    b1, b2 = G.generator(2, 1), G.generator(2, 2)
    assert b1 * b2 == G.monomial(2, (1, 2))
    assert b2 * b1 == G.monomial(2, (1, 2), -1.0)
    assert (b1 * b1).is_zero()


def test_product_of_unit_and_inverse_pair():
    b12 = G.monomial(2, (1, 2))
    x = 2 + b12
    y = 0.5 - b12 * 0.25
    assert x * y == G.one(2)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        G.one(2) * G.one(3)


def test_banach_submultiplicative(rng):
    for _ in range(1000):
        x = random_grassmann(rng, n=4)
        y = random_grassmann(rng, n=4)
        assert (x * y).norm() <= x.norm() * y.norm() + 1e-12


def test_degree_soul_worked_example():
    x = G.from_terms(
        8, [((), math.sqrt(7)), ((1,), 3), ((1, 3), 5), ((3, 7), -4), ((2, 3, 4, 5), -19)]
    )
    assert x.degree_soul(2) == G.from_terms(8, [((1, 3), 5), ((3, 7), -4)])
    assert x.degree_soul(0) == G.scalar(8, math.sqrt(7))


def test_soul_of_scalar_is_zero():
    assert G.scalar(3, -2.75).soul().is_zero()


def test_homogeneous_decomposition(rng):
    for _ in range(50):
        x = random_grassmann(rng, n=4)
        total = G.zero(4)
        for k in range(5):
            total = total + x.degree_soul(k)
        assert x == total


def test_norm_and_parity_split():
    x = G.from_terms(4, [((), 2), ((1,), 3), ((2, 3), -1)])
    assert x.norm() == 6.0
    ev = G.from_terms(8, [((), math.sqrt(7)), ((1,), 3), ((1, 3), 5)])
    assert ev.even_part() == G.from_terms(8, [((), math.sqrt(7)), ((1, 3), 5)])
    assert ev.odd_part() == G.from_terms(8, [((1,), 3)])


def test_odd_times_odd_is_even(rng):
    for _ in range(30):
        x = random_grassmann(rng, n=4).odd_part()
        y = random_grassmann(rng, n=4).odd_part()
        assert (x * y).is_even()
        # odd elements square to zero (up to accumulation round-off)
        assert (x * x).norm() <= 1e-15 * max(1.0, x.norm() ** 2)


# ----------------------------------------------------------------------
# inverse, square root, analytic maps
# ----------------------------------------------------------------------
def test_inverse_worked_example():
    b12 = G.monomial(2, (1, 2))
    assert (2 + b12).inverse() == 0.5 - b12 * 0.25
    assert G.one(2).inverse() == G.one(2)


def test_inverse_requires_body():
    with pytest.raises(NotInvertibleError):
        G.monomial(2, (1,)).inverse()


def test_inverse_round_trip(rng):
    for _ in range(1000):
        x = random_grassmann(rng, n=3)
        if abs(x.body) < 0.1:
            x = x + (0.5 if x.body >= 0 else -0.5)
        assert allclose(x.inverse().inverse(), x, 1e-12)


def test_sqrt_worked_examples():
    b12 = G.monomial(2, (1, 2))
    assert allclose((4 + b12 * 4).sqrt(), 2 + b12, 1e-15)
    assert allclose(G.scalar(2, 9).sqrt(), 3, 1e-15)
    with pytest.raises(DomainError):
        (G.scalar(2, -1)).sqrt()


def test_sqrt_round_trip(rng):
    for _ in range(1000):
        x = random_grassmann(rng, n=3, body=rng.uniform(0.1, 3.0))
        assert allclose(x.sqrt() ** 2, x, 1e-12)


def test_analytic_worked_examples():
    b12 = G.monomial(2, (1, 2))
    assert allclose(b12.exp(), 1 + b12, 1e-15)
    assert allclose((2 + b12).log(), math.log(2) + b12 * 0.5, 1e-15)


def test_arcosh_round_trip(rng):
    for _ in range(300):
        x = random_grassmann(rng, n=3, body=rng.uniform(1.05, 4.0))
        assert allclose(x.arcosh().cosh(), x, 1e-12)


def test_log_and_arcosh_domain_errors():
    with pytest.raises(DomainError):
        G.scalar(2, -1).log()
    with pytest.raises(DomainError):
        G.scalar(2, 0.5).arcosh()


def test_exp_log_sinh_cosh_consistency(rng):
    for _ in range(200):
        x = random_grassmann(rng, n=3, body=rng.uniform(0.2, 2.0))
        assert allclose(x.log().exp(), x, 1e-12)
        assert allclose(x.cosh() ** 2 - x.sinh() ** 2, 1, 1e-12)


# ----------------------------------------------------------------------
# algebra axioms (property-based)
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(grassmann_strategy(), grassmann_strategy(), grassmann_strategy())
def test_ring_axioms(x, y, z):
    lhs = (x * y) * z
    rhs = x * (y * z)
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm(), rhs.norm())
    d = x * (y + z) - (x * y + x * z)
    assert d.norm() <= 1e-12 * max(1.0, (x * y).norm() + (x * z).norm())


@settings(max_examples=100, deadline=None)
@given(grassmann_strategy(), grassmann_strategy())
def test_graded_anticommutativity(x, y):
    # exact per-term; accumulated coefficients may differ in the last bit
    for p in (0, 1):
        for q in (0, 1):
            xp = x.even_part() if p == 0 else x.odd_part()
            yq = y.even_part() if q == 0 else y.odd_part()
            sign = -1.0 if (p and q) else 1.0
            d = (xp * yq - (yq * xp) * sign).norm()
            assert d <= 1e-15 * max(1.0, xp.norm() * yq.norm())


def test_graded_anticommutativity_exact_on_monomials():
    b = [G.generator(4, i) for i in range(1, 5)]
    m1 = b[0] * b[1]          # degree 2 (even)
    m2 = b[2]                 # degree 1 (odd)
    m3 = b[1] * b[2] * b[3]   # degree 3 (odd)
    assert m1 * m2 == m2 * m1
    assert m2 * m3 == -(m3 * m2)


@settings(max_examples=100, deadline=None)
@given(grassmann_strategy())
def test_soul_nilpotency(x):
    s = x.soul()
    power = G.one(x.n)
    for _ in range(x.n + 1):
        power = power * s
    assert power.is_zero()


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_json_round_trip(rng):
    x = G.from_terms(2, [((), 2.0), ((1, 2), 1.0)])
    assert x.to_json() == '{"N": 2, "terms": [{"idx": [], "c": 2.0}, {"idx": [1, 2], "c": 1.0}]}'
    for _ in range(20):
        y = random_grassmann(rng, n=4)
        assert G.from_json(y.to_json()) == y


def test_multi_index_validation():
    with pytest.raises(ValueError):
        G.monomial(2, (2, 1))
    with pytest.raises(ValueError):
        G.monomial(2, (0,))
    with pytest.raises(ValueError):
        G.monomial(2, (3,))
