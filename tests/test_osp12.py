import math
import random

import pytest

from superflip.grassmann import DomainError, GrassmannNumber as G, allclose
from superflip import osp12 as O
from superflip import torus as T

from conftest import eigenvectors

N = 2


def rnd_matrix_pair(rng, n=N):
    """Two random parity-pure 3x3 matrices (not group elements)."""

    def even():
        coeffs = {
            m: rng.uniform(-1, 1)
            for m in range(1 << n)
            if m.bit_count() % 2 == 0 and rng.random() < 0.8
        }
        return G(n, coeffs)

    def odd():
        coeffs = {
            m: rng.uniform(-1, 1)
            for m in range(1, 1 << n)
            if m.bit_count() % 2 == 1 and rng.random() < 0.8
        }
        return G(n, coeffs)

    def make():
        return O.SuperMatrix(
            [
                [even(), even(), odd()],
                [even(), even(), odd()],
                [odd(), odd(), even()],
            ]
        )

    return make(), make()


def random_osp(rng, n=N):
    """Random group element built from a random state's holonomy."""
    pair = O.build_generators(T.random_state(rng, n=n))
    g = O.smul(pair.g_a, pair.g_b)
    return O.smul(g, O.matrix_J(n)) if rng.random() < 0.5 else g


def identity_matrix(n=N):
    """diag(1, 1, 1) as J2 J2."""
    return O.smul(O.matrix_J2(n), O.matrix_J2(n))


def osp_inverse(g):
    """g^-1 = J^-1 g^st J with J^-1 = J2 J; exact in the algebra, valid for OSp elements."""
    J = O.matrix_J(g.n)
    return O.smul(O.smul(O.smul(O.matrix_J2(g.n), J), O.supertranspose(g)), J)


def inner(u, v):
    """The invariant pairing <u, v> = (x1 x2' + x1' x2)/2 - y y' + phi theta' + phi' theta."""
    return (u.x1 * v.x2 + v.x1 * u.x2) * 0.5 - u.y * v.y + u.phi * v.theta + v.phi * u.theta


def geodesic_point(e, f, t):
    """Point x = u cosh t + v sinh t and its velocity on the geodesic with asymptote rays e, f.

    e and f are isotropic with positive-body pairing, rescaled so that
    <e,f> = 2; then u = (e+f)/2 and v = (e-f)/2 have <u,u> = 1 and <v,v> = -1.
    """
    s = (inner(e, f).inverse() * 2.0).sqrt()
    es, fs = [s * x for x in e.components()], [s * x for x in f.components()]
    u = [(p + q) * 0.5 for p, q in zip(es, fs)]
    v = [(p - q) * 0.5 for p, q in zip(es, fs)]
    ch, sh = math.cosh(t), math.sinh(t)
    return (O.MinkowskiSuperVector(*(ch * p + sh * q for p, q in zip(u, v))),
            O.MinkowskiSuperVector(*(sh * p + ch * q for p, q in zip(u, v))))


def random_vector(rng, n=N):
    def even():
        coeffs = {
            m: rng.uniform(-1, 1) * 0.4
            for m in range(1, 1 << n)
            if m.bit_count() % 2 == 0
        }
        return G(n, coeffs) + rng.uniform(-2, 2)

    def odd():
        coeffs = {
            m: rng.uniform(-1, 1) * 0.4 for m in range(1, 1 << n) if m.bit_count() % 2
        }
        return G(n, coeffs)

    return O.MinkowskiSuperVector(even(), even(), even(), odd(), odd())


# ----------------------------------------------------------------------
# product, transpose, group relation
# ----------------------------------------------------------------------
def test_smul_matches_explicit_nine_entry_formula(rng):
    g1, g2 = rnd_matrix_pair(rng)
    (a1, b1, al1), (c1, d1, be1), (ga1, de1, f1) = g1.rows
    (a2, b2, al2), (c2, d2, be2), (ga2, de2, f2) = g2.rows
    explicit = O.SuperMatrix(
        [
            [a1 * a2 + b1 * c2 - al1 * ga2, a1 * b2 + b1 * d2 - al1 * de2,
             a1 * al2 + b1 * be2 + al1 * f2],
            [c1 * a2 + d1 * c2 - be1 * ga2, c1 * b2 + d1 * d2 - be1 * de2,
             c1 * al2 + d1 * be2 + be1 * f2],
            [ga1 * a2 + de1 * c2 + f1 * ga2, ga1 * b2 + de1 * d2 + f1 * de2,
             -(ga1 * al2) - de1 * be2 + f1 * f2],
        ]
    )
    assert O.smul(g1, g2).sub(explicit).norm() <= 1e-14


def test_J_powers():
    J = O.matrix_J(N)
    J2 = O.smul(J, J)
    assert J2.sub(O.matrix_J2(N)).norm() == 0.0
    J4 = O.smul(J2, J2)
    assert all(J4[i, j] == (1.0 if i == j else 0.0) for i in range(3) for j in range(3))


def test_osp_residual_of_identity_and_J():
    assert O._osp_residual(identity_matrix()) == 0.0
    assert O._osp_residual(O.matrix_J(N)) == 0.0


def test_group_closure_and_inverse(rng):
    for _ in range(10):
        g = random_osp(rng)
        h = random_osp(rng)
        assert O._osp_residual(g) <= 1e-10 and O._osp_residual(h) <= 1e-10
        assert O._osp_residual(O.smul(g, h)) <= 1e-9
        gi = osp_inverse(g)
        assert O.smul(g, gi).sub(identity_matrix()).norm() <= 1e-11
        # transpose reverses products
        lhs = O.supertranspose(O.smul(g, h))
        rhs = O.smul(O.supertranspose(h), O.supertranspose(g))
        assert lhs.sub(rhs).norm() <= 1e-12


def test_supertrace_conjugation_invariant(rng):
    for _ in range(8):
        g, h = random_osp(rng), random_osp(rng)
        conj = O.smul(O.smul(osp_inverse(h), g), h)
        d = (O.supertrace(conj) - O.supertrace(g)).norm()
        assert d <= 1e-10 * max(1.0, O.supertrace(g).norm())


# ----------------------------------------------------------------------
# Berezinian
# ----------------------------------------------------------------------
def test_berezinian_identity_and_J():
    assert O.berezinian(identity_matrix()) == G.one(N)
    # hand evaluation on J: f = 1, even block (0 1; -1 0), det = 1
    assert allclose(O.berezinian(O.matrix_J(N)), 1, 1e-15)


def test_berezinian_singular_when_corner_has_no_body():
    z, one = G.zero(N), G.one(N)
    odd = G.generator(N, 1)
    g = O.SuperMatrix([[one, z, z], [z, one, z], [z, z, G.from_terms(N, [((1, 2), 0.5)]) * 0 + z]])
    with pytest.raises(DomainError):
        O.berezinian(g)


def test_berezinian_multiplicative_and_unit_on_group(rng):
    for _ in range(8):
        g, h = random_osp(rng), random_osp(rng)
        assert (O.berezinian(g) - 1).norm() <= 1e-10
        prod = O.berezinian(O.smul(g, h))
        assert (prod - O.berezinian(g) * O.berezinian(h)).norm() <= 1e-10


# ----------------------------------------------------------------------
# vectors, inner products, adjoint
# ----------------------------------------------------------------------
def test_inner_examples():
    z = G.zero(N)
    one = G.one(N)
    e1 = O.MinkowskiSuperVector(one, z, z, z, z)
    e2 = O.MinkowskiSuperVector(z, one, z, z, z)
    assert allclose(inner(e1, e2), 0.5, 1e-15)
    assert inner(e1, e1).is_zero()


def test_adjoint_identity_and_invariance(rng):
    u = random_vector(rng)
    same = O.adjoint(identity_matrix(), u)
    assert same.dist(u) == 0.0
    for _ in range(6):
        g = random_osp(rng)
        u, v = random_vector(rng), random_vector(rng)
        gu, gv = O.adjoint(g, u), O.adjoint(g, v)
        scale = max(
            1.0,
            max(c.norm() for c in gu.components())
            * max(c.norm() for c in gv.components()),
        )
        assert (inner(gu, gv) - inner(u, v)).norm() <= 1e-12 * scale


def test_adjoint_J2_flips_odd_parts(rng):
    u = random_vector(rng)
    out = O.adjoint(O.matrix_J2(N), u)
    assert (out.x1 - u.x1).is_zero() and (out.x2 - u.x2).is_zero() and (out.y - u.y).is_zero()
    assert (out.phi + u.phi).is_zero() and (out.theta + u.theta).is_zero()


# ----------------------------------------------------------------------
# lifts of the fundamental domain
# ----------------------------------------------------------------------
def test_lifts_at_unit_point():
    s2 = math.sqrt(2)
    st = T.DecoratedTorusState(
        G.scalar(N, 1), G.scalar(N, 1), G.scalar(N, 1), G.zero(N), G.zero(N)
    )
    A, B, C, D = O.lift_fundamental_domain(st)
    assert [c.body for c in A.components()] == [0, s2, 0, 0, 0]
    assert [c.body for c in C.components()] == [s2, 0, 0, 0, 0]
    assert [c.body for c in B.components()] == [s2, s2, s2, 0, 0]
    assert [c.body for c in D.components()] == [s2, s2, -s2, 0, 0]


def test_lifts_isotropic_and_lambda_lengths(rng):
    for _ in range(15):
        st = T.random_state(rng)
        A, B, C, D = O.lift_fundamental_domain(st)
        for v in (A, B, C, D):
            assert inner(v, v).norm() <= 1e-12
        a, b, c = st.a, st.b, st.c
        f = (a * a + b * b + a * b * st.sigma * st.theta) / c
        for u, v, lam in (
            (A, B, a), (C, D, a), (B, C, b), (A, D, b), (A, C, c), (B, D, f),
        ):
            assert allclose(inner(u, v).sqrt(), lam, 1e-12)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def test_generators_mapping_contract(rng):
    for _ in range(25):
        st = T.random_state(rng, spin=(1, 1, 1))
        pair = O.build_generators(st)
        A, B, C, D = O.lift_fundamental_domain(st)
        assert O.adjoint(pair.g_a, B).dist(A) <= 1e-9
        assert O.adjoint(pair.g_a, C).dist(D) <= 1e-9
        assert O.adjoint(pair.g_b, A).dist(D) <= 1e-9
        assert O.adjoint(pair.g_b, B).dist(C) <= 1e-9
        assert O._osp_residual(pair.g_a) <= 1e-10 and O._osp_residual(pair.g_b) <= 1e-10
        assert (O.berezinian(pair.g_a) - 1).norm() <= 1e-10
        assert (O.berezinian(pair.g_b) - 1).norm() <= 1e-10


def test_generator_supertrace_relation(rng):
    for _ in range(25):
        st = T.random_state(rng, spin=(1, 1, 1))
        pair = O.build_generators(st)
        lhs_a = O.supertrace(pair.g_a) + 1
        assert (lhs_a - (pair.r_a + pair.r_a.inverse())).norm() <= 1e-10
        lhs_b = O.supertrace(pair.g_b) + 1
        assert (lhs_b - (pair.r_b + pair.r_b.inverse())).norm() <= 1e-10


def composed_generators(st):
    """Base g_a = S(q_a, beta_a) K_C and g_b = J S(1, -theta) K_A, with the square roots."""
    a, b, c, si, th = st.a, st.b, st.c, st.sigma, st.theta
    zero, one = G.zero(st.n), G.one(st.n)
    A, _, C, D = O.lift_fundamental_domain(st)
    x1, x2, rho = D.x1, D.x2, D.phi

    def carrier(s):
        return O.SuperMatrix([
            [(x1 / s).sqrt(), -((x2 / s).sqrt()), rho * (x1 * s).sqrt().inverse()],
            [(s / x2).sqrt(), zero, zero],
            [-(rho * (x1 * x2).sqrt().inverse()), zero, one],
        ])

    def stabilizer(q, beta):
        return O.SuperMatrix([[one, zero, zero], [q, one, beta], [beta, zero, one]])

    q_a = -1.0 - c * c / (a * a) - (c / a) * si * th
    g_a = O.smul(stabilizer(q_a, (c / a) * si - th), carrier(C.x1))
    g_b = O.smul(O.matrix_J(st.n), O.smul(stabilizer(one, -th), carrier(A.x2)))
    return g_a, g_b


def test_explicit_generators_match_the_stabilizer_carrier_product(rng):
    for i in range(24):
        st = T.random_state(rng, n=(2, 4, 6)[i % 3], spin=(1, 1, 1))
        pair = O.build_generators(st)
        for g, ref in zip((pair.g_a, pair.g_b), composed_generators(st)):
            for i in range(3):
                for j in range(3):
                    assert allclose(g[i, j], ref[i, j], 1e-13)


def test_overflowing_generator_entry_is_a_domain_error():
    # b^2/(ac) = 1e320 overflows; the entries are checked before the lifts
    sc = lambda v: G.scalar(N, v)
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    st = T.DecoratedTorusState(sc(1), sc(1e160), sc(1), b1 * 0.1, b2 * 0.1)
    with pytest.raises(DomainError, match="g_b"):
        O.build_generators(st)


def test_overflowing_lift_is_a_domain_error():
    # b^3/(ca) = 1e330 overflows in the lift D; every generator entry is finite
    sc = lambda v: G.scalar(N, v)
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    st = T.DecoratedTorusState(sc(1), sc(1e110), sc(1), b1 * 0.1, b2 * 0.1)
    with pytest.raises(DomainError, match="lift D"):
        O.lift_fundamental_domain(st)
    with pytest.raises(DomainError, match="lift D"):
        O.build_generators(st)


def test_failures_hold_each_residual_to_its_bound(rng):
    pair = O.build_generators(T.random_state(rng))
    assert pair.failures() == {}
    # 5e-10 passes the mapping bound 1e-9 and fails the relation bound 1e-10
    pair.residuals.update(g_a_mapping=5e-10, g_b_mapping=2e-9, g_a_osp=math.nan,
                          g_b_supertrace=5e-10)
    bad = pair.failures()
    assert set(bad) == {"g_b_mapping", "g_a_osp", "g_b_supertrace"}
    assert math.isnan(bad["g_a_osp"])


def test_nan_adjoint_image_is_not_a_vector():
    # max(0.0, nan) is 0.0: the structure check must not let a NaN through
    z = G.zero(N)
    nan = G.scalar(N, math.nan)
    m = O.SuperMatrix([[z, z, z], [z, z, z], [z, nan, z]], check=False)
    with pytest.raises(O.ParityError):
        O._vector_from_matrix(m, 1.0)


def test_nan_mapping_residual_is_degenerate():
    # a NaN in the y component of the second pair: max() would drop it twice
    z, one = G.zero(N), G.one(N)
    u = O.MinkowskiSuperVector(one, one, one, z, z)
    v = O.MinkowskiSuperVector(one, one, G.scalar(N, math.nan), z, z)
    with pytest.raises(O.DegenerateStateError):
        O._mapping_residual("g", identity_matrix(), [(u, u), (u, v)])


def test_generators_spin_reversal_is_osp(rng):
    for cls in range(4):
        st = T.random_state(rng, spin=T.spin_for_class(cls))
        pair = O.build_generators(st)
        assert O._osp_residual(pair.g_a) <= 1e-10 and O._osp_residual(pair.g_b) <= 1e-10
        assert (O.berezinian(pair.g_a) - 1).norm() <= 1e-10


# ----------------------------------------------------------------------
# eigen-theory and lengths
# ----------------------------------------------------------------------
def test_eigen_r_values():
    r = T.eigen_r(G.scalar(N, 1), G.scalar(N, 3), G.zero(N))
    assert abs(r.body - (3 + math.sqrt(5)) / 2) <= 1e-12
    r2 = T.eigen_r(G.scalar(N, 2), G.scalar(N, 3), G.zero(N))
    assert abs(r2.body - (3 + 2 * math.sqrt(2))) <= 1e-12
    with pytest.raises(DomainError):
        T.eigen_r(G.scalar(N, 0.5), G.scalar(N, 3), G.zero(N))


def test_eigen_r_functional_equation(rng):
    for _ in range(100):
        st = T.random_state(rng)
        h = T.semi_perimeter(st)
        w = T.w_invariants(st)[0]
        if (st.a * h).body <= 2.05:
            continue
        r = T.eigen_r(st.a, h, w)
        assert (r + r.inverse() - (st.a * h - w)).norm() <= 1e-12 * max(
            1.0, (st.a * h).norm()
        )


def test_eigenvectors_residuals(rng):
    for _ in range(15):
        st = T.random_state(rng, spin=(1, 1, 1))
        pair = O.build_generators(st)
        *_, residuals = eigenvectors(pair.g_a, st)
        assert max(residuals) <= 1e-9


def test_eigenvectors_classical_reduction():
    st = T.DecoratedTorusState(
        G.scalar(N, 1.2), G.scalar(N, 0.8), G.scalar(N, 1.1), G.zero(N), G.zero(N)
    )
    pair = O.build_generators(st)
    v_plus, v_minus, v0, residuals = eigenvectors(pair.g_a, st)
    assert max(residuals) <= 1e-10
    assert v0[0].is_zero() and v0[1].is_zero()


def test_length_from_r():
    r = G.scalar(N, (3 + math.sqrt(5)) / 2)
    ell = O.length_from_r(r)
    assert abs(ell.body - 2 * math.acosh(1.5)) <= 1e-12
    assert allclose((ell * 0.5).cosh() * 2, r + r.inverse(), 1e-12)
    with pytest.raises(DomainError):
        O.length_from_r(G.scalar(N, 1.0) + G.from_terms(N, [((1, 2), 0.1)]))


def test_exp_length_is_r_squared(rng):
    for _ in range(50):
        st = T.random_state(rng)
        h = T.semi_perimeter(st)
        w = T.w_invariants(st)[0]
        if (st.a * h).body <= 2.05:
            continue
        r = T.eigen_r(st.a, h, w)
        ell = O.length_from_r(r)
        assert allclose(ell.exp(), r * r, 1e-12)


# ----------------------------------------------------------------------
# geodesics
# ----------------------------------------------------------------------
def test_geodesic_point(rng):
    for _ in range(10):
        st = T.random_state(rng)
        A, B, C, D = O.lift_fundamental_domain(st)
        for t in (-2.0, 0.0, 2.0):
            x, xdot = geodesic_point(A, B, t)
            assert allclose(inner(x, x), 1, 1e-12)
            assert allclose(inner(xdot, xdot), -1, 1e-12)
    # x(0) is the midpoint direction u
    A, B, *_ = O.lift_fundamental_domain(
        T.DecoratedTorusState(
            G.scalar(N, 1), G.scalar(N, 1), G.scalar(N, 1), G.zero(N), G.zero(N)
        )
    )
    scale = (inner(A, B).inverse() * 2.0).sqrt()
    u = O.MinkowskiSuperVector(*((scale * p + scale * q) * 0.5 for p, q in zip(A.components(), B.components())))
    assert geodesic_point(A, B, 0.0)[0].dist(u) <= 1e-14


def test_geodesic_point_classical_reduction():
    z = G.zero(N)
    e = O.MinkowskiSuperVector(G.scalar(N, 2), z, z, z, z)
    f = O.MinkowskiSuperVector(z, G.scalar(N, 2), z, z, z)
    x, xdot = geodesic_point(e, f, 0.7)
    assert allclose(inner(x, x), 1, 1e-12) and allclose(inner(xdot, xdot), -1, 1e-12)
    # classical hyperboloid geodesic between the standard light rays
    assert x.phi.is_zero() and x.theta.is_zero()
    assert allclose(x.x1 * x.x2 - x.y * x.y, 1, 1e-12)


def test_parity_validation():
    z, one = G.zero(N), G.one(N)
    with pytest.raises(O.ParityError):
        O.SuperMatrix([[one, one, one], [one, one, z], [z, z, one]])
    with pytest.raises(O.ParityError):
        O.MinkowskiSuperVector(one, one, G.generator(N, 1), z, z)
