import math
import random

import mpmath
import pytest

from superflip.grassmann import DomainError, GrassmannNumber as G, allclose
from superflip import torus as T

from conftest import (
    even_element, general_ptolemy, mp_copy, mp_relative_error, mp_sqrt, super_unit_state, twist_orbit,
    unit_state,
)

N = 2


# ----------------------------------------------------------------------
# flip
# ----------------------------------------------------------------------
def test_flip_classical_unit_point():
    out = T.flip(unit_state(), "c")
    assert sorted(x.body for x in out.lambdas()) == [1.0, 1.0, 2.0]
    assert allclose(out.c, 2, 1e-15)


def test_flip_super_unit_point():
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    st = unit_state(sigma=b1 * 0.1, theta=b2 * 0.1)
    out = T.flip(st, "c")
    assert allclose(out.c, 2 + G.from_terms(N, [((1, 2), 0.01)]), 1e-15)
    assert allclose(out.theta, (b2 * 0.1 + b1 * 0.1) * (1 / math.sqrt(2)), 1e-15)
    assert allclose(out.sigma, (b1 * 0.1 - b2 * 0.1) * (1 / math.sqrt(2)), 1e-15)


@pytest.mark.parametrize("edge", ["a", "b", "c"])
def test_flip_involution(rng, edge):
    for _ in range(40):
        st = T.random_state(rng)
        assert T.flip(T.flip(st, edge), edge).isclose(st, 1e-12)


def test_flip_bad_edge():
    with pytest.raises(ValueError):
        T.flip(unit_state(), "d")


# ----------------------------------------------------------------------
# general Ptolemy
# ----------------------------------------------------------------------
def test_ptolemy_classical_reduction(rng):
    z = G.zero(N)
    for _ in range(20):
        vals = [G.scalar(N, rng.uniform(0.5, 2)) for _ in range(5)]
        f, s2, t2 = general_ptolemy(*vals, z, z)
        a, b, c, d, e = (v.body for v in vals)
        assert abs(f.body - (a * c + b * d) / e) <= 1e-14
        assert s2.is_zero() and t2.is_zero()


def test_ptolemy_torus_specialization(rng):
    for _ in range(60):
        st = T.random_state(rng, spin=(1, 1, 1))
        a, b, c = st.a, st.b, st.c
        f, s2, t2 = general_ptolemy(a, b, a, b, c, st.sigma, st.theta)
        direct = (a * a + b * b + a * b * st.sigma * st.theta) / c
        assert (f - direct).norm() <= 1e-14 * max(1.0, direct.norm())
        flipped = T.flip(st, "c")
        assert (f - flipped.c).norm() <= 1e-14 * max(1.0, direct.norm())


def test_ptolemy_mu_product_invariant(rng):
    for _ in range(60):
        st = T.random_state(rng)
        vals = [
            G.scalar(N, rng.uniform(0.5, 2)) + G.from_terms(N, [((1, 2), rng.uniform(-0.2, 0.2))])
            for _ in range(5)
        ]
        f, s2, t2 = general_ptolemy(*vals, st.sigma, st.theta)
        assert (s2 * t2 - st.sigma * st.theta).norm() <= 1e-13


# ----------------------------------------------------------------------
# W-invariants and the semi-perimeter
# ----------------------------------------------------------------------
def test_w_reference_spin_of_figure():
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    sigma, theta = b1 * 0.3, b2 * 0.5
    # the class whose diagonal orientation is reversed relative to the
    # stored convention: W_c = theta*sigma = -sigma*theta
    st = T.DecoratedTorusState(
        G.scalar(N, 1), G.scalar(N, 1), G.scalar(N, 1), sigma, theta, spin=(1, 1, -1)
    )
    _, _, wc = T.w_invariants(st)
    assert allclose(wc, theta * sigma, 1e-15)
    assert allclose(wc, -(sigma * theta), 1e-15)


def test_w_zero_for_classical():
    assert all(w.is_zero() for w in T.w_invariants(unit_state()))


def test_w_invariant_under_flips_preserving_edge(rng):
    keep = {"a": (1, 2), "b": (0, 2), "c": (0, 1)}
    for _ in range(50):
        st = T.random_state(rng)
        ws = T.w_invariants(st)
        lams = st.lambdas()
        for edge, kept in keep.items():
            out = T.flip(st, edge)
            out_l, out_w = list(out.lambdas()), T.w_invariants(out)
            for idx in kept:
                match = [
                    i for i in range(3) if (out_l[i] - lams[idx]).norm() <= 1e-10
                ]
                assert match
                assert min((out_w[i] - ws[idx]).norm() for i in match) <= 1e-13


def test_semi_perimeter_values():
    assert allclose(T.semi_perimeter(unit_state()), 3, 1e-15)
    st = T.DecoratedTorusState(
        G.scalar(N, 1), G.scalar(N, 1), G.scalar(N, 2), G.zero(N), G.zero(N)
    )
    assert allclose(T.semi_perimeter(st), 3, 1e-15)


@pytest.mark.parametrize(
    "bodies, named",
    # b*c = 1e-320 is subnormal, so a/(bc) overflows; b*c = inf, so a/(bc) is 0
    [((1, 1e-160, 1e-160), "inf"), ((1e160, 1e160, 1e160), "0.0")],
    ids=["body_inf", "body_zero"],
)
def test_semi_perimeter_leaving_float64_is_a_domain_error(bodies, named):
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    st = T.DecoratedTorusState(*(G.scalar(N, x) for x in bodies), b1 * 0.1, b2 * 0.1)
    with pytest.raises(DomainError, match=f"body {named},"):
        T.semi_perimeter(st)


def test_semi_perimeter_flip_invariance(rng):
    worst = 0.0
    for _ in range(120):
        st = T.random_state(rng)
        h0 = T.semi_perimeter(st)
        cur = T.flip_word(st, 25, rng)[0]
        h1 = T.semi_perimeter(cur)
        worst = max(worst, (h1 - h0).norm() / max(1.0, h0.norm()))
    assert worst <= 1e-11


def test_h_drift_is_relative_to_h():
    # h is about 3e-120 here, so a drift relative to max(1, ||h0||) could not fail
    big = T.DecoratedTorusState(*(G.scalar(N, 1e120) for _ in range(3)), G.zero(N), G.zero(N))
    h0 = T.semi_perimeter(big)
    assert math.isclose(T.h_drift(h0, h0 * (1 + 1e-6)), 1e-6, rel_tol=1e-9)
    assert T.h_drift(h0, h0 * (1 + 1e-6)) > T.MOVE_DRIFT_TOL


def test_h_lengths():
    one = G.one(N)
    al, be, ga = T.h_lengths(one, one, one)
    assert al == one and be == one and ga == one
    two = G.scalar(N, 2)
    al, be, ga = T.h_lengths(one, one, two)
    assert allclose(al, 0.5, 1e-15) and allclose(be, 0.5, 1e-15) and allclose(ga, 2, 1e-15)


def test_perimeter_formula(rng):
    for _ in range(20):
        st = T.random_state(rng)
        a, b, c = st.a, st.b, st.c
        total = sum(T.h_lengths(a, b, c), G.zero(N)) * 2
        formula = (a * a + b * b + c * c) / (a * b * c) * 2
        assert (total - formula).norm() <= 1e-12 * max(1.0, formula.norm())


def test_eigen_r_matches_mpmath_near_trace_two():
    # the margin (x - 2)(x + 2) keeps the digits that x*x - 4 cancels as the trace body nears 2
    def error(x, r):
        xm = mp_copy(x)
        return mp_relative_error(r, (xm + mp_sqrt(xm * xm - 4)) * 0.5)

    rng = random.Random(20240817)
    errors = []
    with mpmath.workdps(50):
        for n in range(2, 9):
            for body in (2.0001, 2.001, 2.01, 2.5, 10.0, 1e3, 1e6):
                x = even_element(rng, n, body, 0.01)
                errors.append(error(x, T.eigen_r(G.one(n), x, G.zero(n))))
        # the near-cusp state: the trace body of a is 2.000001
        b1, b2 = G.generator(N, 1), G.generator(N, 2)
        st = T.DecoratedTorusState(G.scalar(N, 0.001), G.one(N), G.one(N), b1 * 0.1, b2 * 0.1)
        h, w = T.semi_perimeter(st), T.w_invariants(st)[0]
        errors.append(error(st.a * h - w, T.eigen_r(st.a, h, w)))
    assert max(errors) <= 2e-15


# ----------------------------------------------------------------------
# spin classes
# ----------------------------------------------------------------------
def test_four_spin_classes():
    assert sorted({T.spin_class_id(T.spin_for_class(i)) for i in range(4)}) == [0, 1, 2, 3]
    # all-flip acts trivially on the class
    for spin in ((1, 1, 1), (1, -1, 1), (-1, 1, -1), (-1, -1, -1)):
        flipped = tuple(-s for s in spin)
        assert T.spin_class_id(spin) == T.spin_class_id(flipped)


def test_spin_class_orbits_under_flips(rng):
    # one class is fixed by every flip; the other three close up among
    # themselves (one odd and three even structures)
    for _ in range(30):
        st = T.random_state(rng, spin=T.spin_for_class(0))
        for edge in "abc":
            assert T.flip(st, edge).spin_class() == 0
    for cls in (1, 2, 3):
        st = T.random_state(rng, spin=T.spin_for_class(cls))
        for edge in "abc":
            assert T.flip(st, edge).spin_class() in (1, 2, 3)


def test_global_mu_sign_flip_invariance(rng):
    for _ in range(30):
        st = T.random_state(rng)
        st2 = T.DecoratedTorusState(st.a, st.b, st.c, -st.sigma, -st.theta, st.spin)
        assert allclose(T.semi_perimeter(st), T.semi_perimeter(st2), 1e-13)
        for w1, w2 in zip(T.w_invariants(st), T.w_invariants(st2)):
            assert (w1 - w2).norm() <= 1e-13
        f1, f2 = T.flip(st, "c"), T.flip(st2, "c")
        assert (f1.c - f2.c).norm() <= 1e-13 * max(1.0, f1.c.norm())


# ----------------------------------------------------------------------
# twists and the recursion
# ----------------------------------------------------------------------
# The moves written as permute, flip the diagonal, permute back: the
# bitwise reference for the single Ptolemy move of flip and dehn_twist.
_AXIS_TO_BACK = {"a": (0, 1, 2), "b": (1, 0, 2), "c": (1, 2, 0)}


def _permuted(state, perm):
    """The state with slot i holding the lambda-length and sign of ``perm[i]``."""
    lam, signs = state.lambdas(), state.spin
    return T.DecoratedTorusState(*(lam[i] for i in perm), state.sigma, state.theta, tuple(signs[i] for i in perm))


def _flip_diagonal(state):
    a, b, c = state.a, state.b, state.c
    si, th = state.sigma, state.theta
    sa, sb, _ = state.spin
    f = T.ptolemy(a, b, si * th, c)
    d_inv = (a * a + b * b).sqrt().inverse()
    si2 = (b * si - a * th) * d_inv
    th2 = (b * th + a * si) * d_inv
    return T.DecoratedTorusState(b, a, f, si2, th2, (sb, sa, 1))


def _reference_flip(state, edge):
    if edge == "c":
        return _flip_diagonal(state)
    perm, back = ((1, 2, 0), (2, 0, 1)) if edge == "a" else ((2, 0, 1), (1, 2, 0))
    return _permuted(_flip_diagonal(_permuted(state, perm)), back)


def _quarter_turn(state, k):
    si, th = state.sigma, state.theta
    for _ in range(k % 4):
        si, th = -th, si
    return T.DecoratedTorusState(state.a, state.b, state.c, si, th, state.spin)


def _twist_once(state, direction):
    if direction > 0:
        return _permuted(_flip_diagonal(_permuted(state, (0, 2, 1))), (1, 0, 2))
    out = _flip_diagonal(_quarter_turn(_permuted(state, (1, 0, 2)), -1))
    return _permuted(out, (0, 2, 1))


def _reference_dehn_twist(state, axis, power):
    cur = _permuted(state, T._AXIS_TO_FRONT[axis])
    for _ in range(abs(power)):
        cur = _twist_once(cur, 1 if power >= 0 else -1)
    return _permuted(cur, _AXIS_TO_BACK[axis])


@pytest.mark.parametrize("n", [2, 4, 6])
def test_moves_match_the_permuted_reference_bitwise(rng, n):
    for cls in range(4):
        st = T.random_state(rng, n, spin=T.spin_for_class(cls))
        for start in (st, T.flip_word(st, 5, rng)[0]):
            for edge in "abc":
                assert T.flip(start, edge).to_obj() == _reference_flip(start, edge).to_obj()
                for power in range(-3, 4):
                    got = T.dehn_twist(start, edge, power)
                    assert got.to_obj() == _reference_dehn_twist(start, edge, power).to_obj()


def test_each_flip_and_twist_step_builds_one_state(monkeypatch):
    built, init = [], T.DecoratedTorusState.__post_init__
    monkeypatch.setattr(T.DecoratedTorusState, "__post_init__", lambda st: built.append(st) or init(st))
    st = super_unit_state(spin=(1, -1, 1))
    for edge in "abc":
        built.clear()
        T.flip(st, edge)
        assert len(built) == 1
        for power in (-3, -1, 1, 2):
            built.clear()
            T.dehn_twist(st, edge, power)
            assert len(built) == abs(power)


def test_an_overflowing_twist_names_its_own_slot():
    # (c^2 + b^2)/a overflows and lands in slot b
    tall = T.DecoratedTorusState(G.scalar(N, 1), G.scalar(N, 1e200), G.scalar(N, 1), G.zero(N), G.zero(N))
    with pytest.raises(DomainError, match="^b has a non-finite coefficient"):
        T.dehn_twist(tall, "c")


def test_twist_markoff_example():
    st = T.DecoratedTorusState(
        G.scalar(N, 1), G.scalar(N, 1), G.scalar(N, 2), G.zero(N), G.zero(N)
    )
    out = T.dehn_twist(st, "a")
    bodies = sorted(x.body for x in out.lambdas())
    assert bodies == [1.0, 2.0, 5.0]
    a, b, c = (x.body for x in out.lambdas())
    assert abs(a * a + b * b + c * c - 3 * a * b * c) <= 1e-12


def test_twist_round_trip(rng):
    for _ in range(30):
        st = T.random_state(rng)
        for axis in "abc":
            back = T.dehn_twist(T.dehn_twist(st, axis), axis, power=-1)
            assert back.isclose(st, 1e-11)


def test_twist_orbit_w_behavior(rng):
    # W is constant along the axis-a orbit iff the two non-axis signs agree, and alternates otherwise
    for cls, const in ((0, True), (1, False), (2, True), (3, False)):
        st = T.random_state(rng, spin=T.spin_for_class(cls))
        ws = [w for _, w in twist_orbit(st, "a", -5, 5).values()]
        sign = 1 if const else -1
        assert all((ws[i] - ws[i + 1] * sign).norm() <= 1e-13 for i in range(len(ws) - 1))
        assert ws[0].norm() > 1e-3  # a W near 0 would pass either way


def test_recursion_classical_values():
    st = T.DecoratedTorusState(
        G.scalar(N, 1), G.scalar(N, 1), G.scalar(N, 2), G.zero(N), G.zero(N)
    )
    # iterating the classical recursion from (a, b0, b_-1) = (1, 1, 2), h = 3
    assert abs(T.recursion_closed_form(st, "a", 1).body - 1.0) <= 1e-10
    st2 = T.DecoratedTorusState(
        G.scalar(N, 1), G.scalar(N, 2), G.scalar(N, 1), G.zero(N), G.zero(N)
    )
    vals = [T.recursion_closed_form(st2, "a", k).body for k in (0, 1, 2, 3)]
    assert [round(v, 8) for v in vals] == [2.0, 5.0, 13.0, 34.0]


@pytest.mark.parametrize("cls", [0, 1, 2, 3])
def test_recursion_matches_flips(rng, cls):
    for _ in range(6):
        st = T.random_state(rng, spin=T.spin_for_class(cls))
        for k, (lam, _) in twist_orbit(st, "a", -15, 15).items():
            bn = T.recursion_closed_form(st, "a", k)
            assert (bn - lam).norm() <= 1e-8 * max(1.0, lam.norm())


def test_recursion_coefficient_bodies_positive(rng):
    # implicitly checked inside recursion_closed_form; exercise both cases
    for cls in (0, 1):
        st = T.random_state(rng, spin=T.spin_for_class(cls))
        T.recursion_closed_form(st, "a", 5)


def test_recursion_bound():
    with pytest.raises(ValueError):
        T.recursion_closed_form(unit_state(), "a", 100)


# ----------------------------------------------------------------------
# state validation and serialization
# ----------------------------------------------------------------------
def test_state_validation():
    sc = lambda v: G.scalar(N, v)
    with pytest.raises(DomainError):
        T.DecoratedTorusState(sc(0), sc(1), sc(1), G.zero(N), G.zero(N))
    with pytest.raises(DomainError):
        T.DecoratedTorusState(sc(1), sc(1), sc(1), G.one(N), G.zero(N))
    with pytest.raises(DomainError):
        T.DecoratedTorusState(sc(1), sc(1), sc(1), G.zero(N), G.zero(N), spin=(1, 0, 1))
    with pytest.raises(DomainError):
        T.DecoratedTorusState(sc(math.nan), sc(1), sc(1), G.zero(N), G.zero(N))
    with pytest.raises(DomainError):
        inf_soul = sc(1) + G.from_terms(N, [([1, 2], math.inf)])
        T.DecoratedTorusState(sc(1), inf_soul, sc(1), G.zero(N), G.zero(N))


def test_state_json_round_trip(rng):
    for _ in range(10):
        st = T.random_state(rng)
        back = T.DecoratedTorusState.from_obj(st.to_obj())
        assert back.isclose(st, 0.0) or back.isclose(st, 1e-15)
        assert back.spin == st.spin
