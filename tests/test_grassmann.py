import json
import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from superflip.grassmann import (
    MAX_GENERATORS,
    PLAN_CACHE_SIZE,
    DimensionError,
    DomainError,
    GrassmannNumber as G,
    NotInvertibleError,
    _degree_masks,
    _filled,
    _mask_plan,
    _parity_above,
    _product_plan,
    allclose,
)

from conftest import (
    even_element, mp_copy, mp_log, mp_relative_error, mp_sqrt, parity_part, random_grassmann,
)


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
    assert b1 * b2 == G.from_terms(2, [((1, 2), 1.0)])
    assert b2 * b1 == G.from_terms(2, [((1, 2), -1.0)])
    assert (b1 * b1).is_zero()


def test_product_of_unit_and_inverse_pair():
    b12 = G.from_terms(2, [((1, 2), 1.0)])
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
    assert parity_part(ev, 0) == G.from_terms(8, [((), math.sqrt(7)), ((1, 3), 5)])
    assert parity_part(ev, 1) == G.from_terms(8, [((1,), 3)])


# ----------------------------------------------------------------------
# the planned product against the pairwise reference loop
# ----------------------------------------------------------------------
def inversion_sign(a, b):
    """Sign of b_A * b_B: -1 to the number of pairs (i in A, j in B) with i > j."""
    count = 0
    t = b
    while t:
        low = t & -t
        count += (a >> low.bit_length()).bit_count()
        t ^= low
    return -1 if count & 1 else 1


def reference_product(x, y):
    """The pairwise loop over stored coefficients, in storage order."""
    out = {}
    for ma, va in x._c.items():
        for mb, vb in y._c.items():
            if ma & mb:
                continue
            m = ma | mb
            out[m] = out.get(m, 0.0) + va * vb * inversion_sign(ma, mb)
    return G(x.n, out)


def random_canonical(rng, n, fill, masks=None):
    masks = range(1 << n) if masks is None else masks
    return G(n, {m: rng.uniform(-2, 2) for m in masks if rng.random() < fill})


def is_canonical(x):
    return list(x._c) == sorted(x._c)


def test_product_equals_reference_loop(rng):
    for n in (0, 1, 2, 3, 4, 6, 8):
        for fill in (0.2, 0.7, 1.0):
            for _ in range(3 if n == 8 else 6):
                x, y = random_canonical(rng, n, fill), random_canonical(rng, n, fill)
                assert is_canonical(x) and is_canonical(y)
                xy = x * y
                assert xy == reference_product(x, y)
                assert is_canonical(xy)
    for cache in (_product_plan, _mask_plan, _degree_masks):
        assert cache.cache_info().maxsize == PLAN_CACHE_SIZE == 32


def exact_shape_plan(keys_a, keys_b):
    """The plan keyed by the operands' exact masks, as products ran before degree filling."""
    terms = {}
    for i, ma in enumerate(keys_a):
        above = _parity_above(ma)
        for j, mb in enumerate(keys_b):
            if not ma & mb:
                sign = -1.0 if (above & mb).bit_count() & 1 else 1.0
                terms.setdefault(ma | mb, []).append((i, j, sign))
    return tuple((m, tuple(terms[m])) for m in sorted(terms))


def exact_shape_product(x, y):
    av, bv = tuple(x._c.values()), tuple(y._c.values())
    out = {}
    for m, terms in exact_shape_plan(tuple(x._c), tuple(y._c)):
        acc = 0.0
        for i, j, sign in terms:
            acc += av[i] * bv[j] * sign
        out[m] = acc
    return G._make(x.n, out)


def test_padded_product_keeps_the_bits_of_the_exact_shape_product(rng):
    padded = 0
    for n in (2, 4, 6, 8):
        classes = {
            "even": [m for m in range(1 << n) if not m.bit_count() & 1],
            "odd": [m for m in range(1 << n) if m.bit_count() & 1],
            "mixed": list(range(1 << n)),
        }
        for fill in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            for ka in classes:
                for kb in classes:
                    x = random_canonical(rng, n, fill, classes[ka])
                    y = random_canonical(rng, n, fill, classes[kb])
                    pad_a, pad_b, _ = _product_plan(n, tuple(x._c), tuple(y._c))
                    padded += (pad_a is not None) + (pad_b is not None)
                    assert list((x * y)._c.items()) == list(exact_shape_product(x, y)._c.items())
    assert padded > 100


def test_filled_shape_pads_to_whole_degrees_and_at_most_doubles(rng):
    for n in (1, 2, 4, 6, 8, 12, MAX_GENERATORS):
        for fill in (0.05, 0.3, 0.5, 0.7, 0.95):
            degrees = rng.sample(range(n + 1), rng.randint(1, min(3, n + 1)))
            masks = [m for k in degrees for m in _degree_masks(n, frozenset([k]))]
            keys = tuple(sorted(m for m in masks if rng.random() < fill)) or (masks[0],)
            filled = _filled(n, keys)
            assert len(filled) <= 2 * len(keys)
            if filled is not keys:
                present = {m.bit_count() for m in keys}
                assert list(filled) == [m for m in range(1 << n) if m.bit_count() in present]
    assert _degree_masks(4, frozenset({1, 3})) == (1, 2, 4, 7, 8, 11, 13, 14)
    assert _filled(4, (1, 2, 4)) == (1, 2, 4, 8)
    assert _filled(4, (0, 1, 2, 4, 8)) == (0, 1, 2, 4, 8)  # already whole degrees
    assert _filled(4, (1, 3)) == (1, 3)  # degrees 1 and 2 hold 10 masks, more than twice 2


def test_infinite_coefficient_keeps_a_product_non_finite(rng):
    n = 6
    even = [m for m in range(1 << n) if not m.bit_count() & 1]
    y = G(n, {m: rng.uniform(-2, 2) for m in rng.sample(even, 22)})
    x = G(n, {0: math.inf, 3: 0.5, 12: -0.25})
    assert _product_plan(n, tuple(x._c), tuple(y._c))[1] is not None
    for z in (x * y, y * x):
        # 0 * inf at a padded mask is NaN, where the exact shapes gave inf
        assert not math.isfinite(z.norm())


def test_product_equals_reference_on_special_operands(rng):
    n = 4
    zero, scalar = G.zero(n), G.scalar(n, -1.75)
    odd = [m for m in range(1 << n) if m.bit_count() & 1]
    even = [m for m in range(1 << n) if not m.bit_count() & 1]
    operands = [
        zero,
        scalar,
        random_canonical(rng, n, 1.0, odd),
        random_canonical(rng, n, 0.6, odd),
        random_canonical(rng, n, 1.0, even),
        random_canonical(rng, n, 0.7),
        random_canonical(rng, n, 1.0),
    ]
    for x in operands:
        for y in operands:
            assert x * y == reference_product(x, y)
    assert (zero * operands[-1]).is_zero() and (operands[-1] * zero).is_zero()


def test_product_equals_reference_at_sixteen_generators(rng):
    n = MAX_GENERATORS
    top = 1 << (n - 1)
    for _ in range(20):
        masks = {0, top} | {rng.getrandbits(n) for _ in range(10)}
        masks |= {top | rng.getrandbits(6) for _ in range(4)}
        x = random_canonical(rng, n, 0.8, sorted(masks))
        y = random_canonical(rng, n, 0.8, sorted({rng.getrandbits(n) for _ in range(12)} | {top, 1}))
        assert _product_plan(n, tuple(x._c), tuple(y._c))[:2] == (None, None)
        assert x * y == reference_product(x, y)
    b1, b16 = G.generator(n, 1), G.generator(n, n)
    assert b16 * b1 == -(b1 * b16) == G.from_terms(n, [((1, n), -1.0)])


def test_parity_above_sign_matches_inversion_count(rng):
    for _ in range(5000):
        a = rng.getrandbits(MAX_GENERATORS)
        b = rng.getrandbits(MAX_GENERATORS) & ~a
        parity = (_parity_above(a) & b).bit_count() & 1
        assert (-1 if parity else 1) == inversion_sign(a, b)


def test_every_operation_keeps_ascending_masks(rng):
    n = 4
    terms = [((), 1.5), ((4,), 0.25), ((1, 2), -0.5), ((2, 3, 4), 0.125), ((1,), 2.0), ((1, 2, 3, 4), 0.75)]
    for _ in range(5):
        rng.shuffle(terms)
        assert is_canonical(G.from_terms(n, terms))
    x = G.from_terms(n, terms)
    y = G(n, {15: 0.5, 3: -1.0, 8: 0.25})
    assert is_canonical(y)
    made = [
        x + y, y + x, x - y, y - x, -x, x * 2.5, 2.5 * x, x * y, y * x, x + 1, 1 - x,
        x.inverse(), x.sqrt(), x.exp(), x.log(), (x + 1).arcosh(),
        x.soul(), x.degree_soul(2),
    ]
    for z in made:
        assert is_canonical(z)
    assert list((x + y)._c.items()) == list((y + x)._c.items())
    assert list((y.soul() + 3.0)._c.items()) == list((3.0 + y.soul())._c.items())


def test_odd_times_odd_is_even(rng):
    for _ in range(30):
        x = parity_part(random_grassmann(rng, n=4), 1)
        y = parity_part(random_grassmann(rng, n=4), 1)
        assert (x * y).is_even()
        # odd elements square to zero (up to accumulation round-off)
        assert (x * x).norm() <= 1e-15 * max(1.0, x.norm() ** 2)


# ----------------------------------------------------------------------
# inverse, square root, analytic maps
# ----------------------------------------------------------------------
def test_inverse_worked_example():
    b12 = G.from_terms(2, [((1, 2), 1.0)])
    assert (2 + b12).inverse() == 0.5 - b12 * 0.25
    assert G.one(2).inverse() == G.one(2)


def test_number_over_element_scales_the_inverse(rng):
    for n in (2, 4, 6):
        x = random_canonical(rng, n, 0.7) + 1.5
        for k in (1, 2.5, -3):
            assert k / x == G.scalar(n, k) * x.inverse()


def test_inverse_requires_body():
    with pytest.raises(NotInvertibleError):
        G.from_terms(2, [((1,), 1.0)]).inverse()


def test_inverse_round_trip(rng):
    for _ in range(1000):
        x = random_grassmann(rng, n=3)
        if abs(x.body) < 0.1:
            x = x + (0.5 if x.body >= 0 else -0.5)
        assert allclose(x.inverse().inverse(), x, 1e-12)


def test_sqrt_worked_examples():
    b12 = G.from_terms(2, [((1, 2), 1.0)])
    assert allclose((4 + b12 * 4).sqrt(), 2 + b12, 1e-15)
    assert allclose(G.scalar(2, 9).sqrt(), 3, 1e-15)
    with pytest.raises(DomainError):
        (G.scalar(2, -1)).sqrt()


def test_sqrt_round_trip(rng):
    for _ in range(1000):
        x = random_grassmann(rng, n=3, body=rng.uniform(0.1, 3.0))
        assert allclose(x.sqrt() ** 2, x, 1e-12)


def test_analytic_worked_examples():
    b12 = G.from_terms(2, [((1, 2), 1.0)])
    assert allclose(b12.exp(), 1 + b12, 1e-15)
    assert allclose((2 + b12).log(), math.log(2) + b12 * 0.5, 1e-15)


@pytest.mark.parametrize("b, s", [(1e-200, 1e-210), (1e200, 1e190)])
def test_series_keep_extreme_bodies_in_range(b, s):
    # the series expand in soul/body; with unscaled coefficients 1/b^k or
    # b^k overflow, and the soul comes out infinite or lost
    x = G(2, {0: b, 3: s})
    expected = {
        "inverse": (1 / b, -(s / b) / b),
        "sqrt": (math.sqrt(b), s / (2 * math.sqrt(b))),
        "log": (math.log(b), s / b),
    }
    for name, (body, soul) in expected.items():
        y = getattr(x, name)()
        assert set(y._c) == {0, 3} and all(math.isfinite(v) for v in y._c.values())
        assert abs(y.body - body) <= 1e-15 * abs(body)
        assert abs(y._c[3] - soul) <= 1e-15 * abs(soul)


def test_arcosh_round_trip(rng):
    for _ in range(300):
        x = random_grassmann(rng, n=3, body=rng.uniform(1.05, 4.0))
        assert allclose(x.arcosh().cosh(), x, 1e-12)


def test_arcosh_matches_mpmath_near_one():
    # the margin (t - 1)(t + 1) keeps the digits that t*t - 1 cancels as the body nears 1
    rng = random.Random(20240817)
    worst = 0.0
    with mpmath.workdps(50):
        for n in range(2, 7):
            for body in (1.000001, 1.0001, 1.01, 1.5, 3.0, 10.0):
                x = even_element(rng, n, body, 1e-3)
                xm = mp_copy(x)
                worst = max(worst, mp_relative_error(x.arcosh(), mp_log(xm + mp_sqrt(xm * xm - 1))))
    assert worst <= 2e-14


def _loop_series(x, jet, scale=1.0):
    """The soul-power sum as one loop, stopped at the first power that vanishes."""
    step = x.soul() * scale
    acc = G._make(x.n, {0: jet[0]})
    power = step
    k = 1
    while not power.is_zero():
        acc = acc + power * jet[k]
        power = power * step
        k += 1
    return acc


@pytest.mark.parametrize("n", range(2, 9))
def test_analytic_maps_match_the_loop_series_bit_for_bit(n, monkeypatch):
    rng = random.Random(f"series:{n}")
    xs = [random_grassmann(rng, n, scale=0.3, body=rng.uniform(1.1, 3.0)) for _ in range(5)]
    maps = ("inverse", "sqrt", "exp", "log", "cosh", "sinh", "arcosh")
    got = [getattr(x, f)().to_obj() for x in xs for f in maps]
    monkeypatch.setattr(G, "_series", _loop_series)
    assert got == [getattr(x, f)().to_obj() for x in xs for f in maps]


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
            xp, yq = parity_part(x, p), parity_part(y, q)
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
    text = json.dumps(x.to_obj())
    assert text == '{"N": 2, "terms": [{"idx": [], "c": 2.0}, {"idx": [1, 2], "c": 1.0}]}'
    for _ in range(20):
        y = random_grassmann(rng, n=4)
        assert G.from_obj(json.loads(json.dumps(y.to_obj()))) == y


def test_multi_index_validation():
    with pytest.raises(ValueError):
        G.from_terms(2, [((2, 1), 1.0)])
    with pytest.raises(ValueError):
        G.from_terms(2, [((0,), 1.0)])
    with pytest.raises(ValueError):
        G.from_terms(2, [((3,), 1.0)])
