import json
import math
import random

import pytest

from superflip.grassmann import DomainError, GrassmannNumber as G, allclose
from superflip import identity as I
from superflip import markoff as M
from superflip import osp12 as O
from superflip import torus as T

from conftest import spectrum_with_sidecar, super_unit_state, unit_state

N = 2


# ----------------------------------------------------------------------
# summands
# ----------------------------------------------------------------------
def test_summand_region_values():
    sc = lambda v: G.scalar(N, v)
    z = G.zero(N)
    r = (3 + math.sqrt(5)) / 2
    assert abs(I.summand_region(sc(1), sc(3), z).body - 1 / (3 * r)) <= 1e-15
    assert abs(I.summand_region(sc(1), sc(3), z).body - 1 / (r * r + 1)) <= 1e-12
    r2 = 3 + 2 * math.sqrt(2)
    assert abs(I.summand_region(sc(2), sc(3), z).body - 1 / (6 * r2)) <= 1e-15
    with pytest.raises(DomainError):
        I.summand_region(sc(0.5), sc(3), z)


def _reference_summand_region(lam, h, w):
    """The summand by the eigenvalue r and two inverses, as summand_region computed it before."""
    ah = lam * h
    x = ah - w
    T.check_hyperbolic(x.body)
    r = (x + (x * x - 4).sqrt()) * 0.5
    return (ah * r).inverse() + w * (ah * 2).inverse()


def _random_element(rng, n, parity, body=0.0):
    coeffs = {m: rng.uniform(-0.3, 0.3) for m in range(1, 1 << n) if m.bit_count() % 2 == parity}
    return G(n, {0: body, **coeffs} if parity == 0 else coeffs)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_closed_form_summand_matches_the_eigenvalue_form(n):
    rng = random.Random(f"summand:{n}")
    for y in (2.01, 2.5, 10.0, 1e3, 1e5, 1e8):
        for _ in range(2):
            lam = _random_element(rng, n, 0, rng.uniform(0.5, 2.0))
            h = _random_element(rng, n, 0, 1.0) * (y / lam.body)
            w = _random_element(rng, n, 1) * _random_element(rng, n, 1)
            assert not w.is_zero() and abs((lam * h).body - y) <= 1e-12 * y
            want = _reference_summand_region(lam, h, w)
            assert (I.summand_region(lam, h, w) - want).norm() <= 1e-13 * want.norm()


def _loop_jet_pow(a, alpha):
    f = [a[0] ** alpha]
    for k in range(1, len(a)):
        f.append(sum(((alpha + 1) * j - k) * a[j] * f[k - j] for j in range(1, k + 1)) / (k * a[0]))
    return f


def _loop_summand_region(lam, h, w):
    """The closed-form summand with its own loop over the powers of soul(y)/body(y)."""
    y = lam * h
    y0 = y.body
    u = y.soul() * (1.0 / y0)
    powers, p = [G.one(y.n)], u
    while not p.is_zero():
        powers.append(p)
        p = p * u
    q = ([((y0 - 2.0) / y0) * ((y0 + 2.0) / y0), 2.0, 1.0] + [0.0] * len(powers))[: len(powers)]
    g = _loop_jet_pow(q, 0.5)
    d = [v + x + z for v, x, z in zip([1.0, 2.0, 1.0] + [0.0] * len(g), g, [0.0] + g)]
    a_jet = [c * 2.0 / y0 / y0 for c in _loop_jet_pow(d, -1.0)]
    b_jet = [c * 0.5 / y0 for c in _loop_jet_pow(q, -0.5)]
    return sum(x * c for x, c in zip(powers, a_jet)) + w * sum(x * c for x, c in zip(powers, b_jet))


@pytest.mark.parametrize("n", range(2, 9))
def test_summand_matches_the_loop_form_bit_for_bit(n):
    rng = random.Random(f"summand-bits:{n}")
    for y in (2.01, 2.5, 10.0, 1e3, 1e8) * 4:
        lam = _random_element(rng, n, 0, rng.uniform(0.5, 2.0))
        h = _random_element(rng, n, 0, 1.0) * (y / lam.body)
        w = _random_element(rng, n, 1) * _random_element(rng, n, 1)
        assert I.summand_region(lam, h, w).to_obj() == _loop_summand_region(lam, h, w).to_obj()


def test_summand_names_the_trace_margin():
    with pytest.raises(DomainError, match=r"margin body - 2 = -0\.5 is not positive"):
        I.summand_region(G.scalar(N, 0.5), G.scalar(N, 3), 0)


def test_identity_takes_a_fixed_number_of_inverses(monkeypatch):
    counts, inverse = [], G.inverse
    monkeypatch.setattr(G, "inverse", lambda x: counts.append(1) or inverse(x))
    per_length = []
    for length in (12.0, 24.0, 36.0):
        counts.clear()
        rep = I.verify_identity(super_unit_state(), cutoff_length=length)
        per_length.append((rep.region_count, len(counts)))
    assert per_length[0][0] < per_length[1][0] < per_length[2][0]
    assert per_length[0][1] == per_length[1][1] == per_length[2][1]


def test_summand_geodesic_values():
    sc = lambda v: G.scalar(N, v)
    z = G.zero(N)
    ell = sc(2 * math.acosh(1.5))
    r = (3 + math.sqrt(5)) / 2
    assert abs(I.summand_geodesic(ell, z).body - 1 / (r * r + 1)) <= 1e-12
    with pytest.raises(DomainError):
        I.summand_geodesic(sc(-1), z)


def test_w_term_vanishes_classically(rng):
    sc = lambda v: G.scalar(N, v)
    z = G.zero(N)
    for _ in range(20):
        lam = sc(rng.uniform(1, 5))
        s = I.summand_region(lam, sc(3), z)
        assert s.soul().is_zero()


def test_summand_forms_agree(rng):
    for _ in range(60):
        st = T.random_state(rng)
        h = T.semi_perimeter(st)
        for lam, w in zip(st.lambdas(), T.w_invariants(st)):
            if (lam * h).body <= 2.05:
                continue
            s1 = I.summand_region(lam, h, w)
            ell = O.length_from_r(T.eigen_r(lam, h, w))
            s2 = I.summand_geodesic(ell, w)
            assert (s1 - s2).norm() <= 1e-12


def test_summand_body_in_range(rng):
    regs = M.enumerate_regions(M.find_sink(super_unit_state()), 2 * math.cosh(9.0))
    h = T.semi_perimeter(super_unit_state())
    for r in regs:
        s = I.summand_region(r.lam, h, r.w)
        assert 0.0 < s.body < 0.5


# ----------------------------------------------------------------------
# the identity
# ----------------------------------------------------------------------
def test_identity_classical():
    rep = I.verify_identity(unit_state(), cutoff_length=24.0)
    assert rep.deviation_body <= 1e-6
    assert rep.converged
    first = [row["summand_body"] for row in rep.rows[:3]]
    assert all(abs(v - 0.127322) <= 1e-6 for v in first)


@pytest.mark.parametrize("cls", [0, 1, 2, 3])
def test_identity_super_all_classes(cls):
    rep = I.verify_identity(super_unit_state(T.spin_for_class(cls)), cutoff_length=24.0)
    assert rep.deviation_norm <= 1e-5
    assert rep.deviation_body <= 1e-6
    assert rep.converged


def test_identity_walks_to_the_sink_once(monkeypatch):
    st = super_unit_state()
    for edge in "abca":  # body-increasing flips away from the unit sink
        st = T.flip(st, edge)
    assert M.find_sink(st).steps > 0
    built = []
    root_triple = M._root_triple
    monkeypatch.setattr(M, "_root_triple", lambda s: built.append(s) or root_triple(s))
    I.verify_identity(st, cutoff_length=12.0)
    assert len(built) == 1


def test_identity_deviation_monotone_in_cutoff():
    st = super_unit_state()
    devs = [
        I.verify_identity(st, cutoff_length=L).deviation_norm for L in (12.0, 18.0, 24.0)
    ]
    assert devs[0] > devs[1] > devs[2]


def test_identity_report_invariant_under_global_mu_flip():
    # at N=4 the lambda souls have parts besides the W terms, so a W sign shows in their norms
    for st in (super_unit_state(), T.random_state(random.Random(4), n=4)):
        st2 = T.DecoratedTorusState(st.a, st.b, st.c, -st.sigma, -st.theta, st.spin)
        r1 = I.verify_identity(st, cutoff_length=16.0)
        r2 = I.verify_identity(st2, cutoff_length=16.0)
        assert json.dumps(r1.to_obj(), sort_keys=True) == json.dumps(r2.to_obj(), sort_keys=True)
        # the rows carry each curve's soul norm, which the flip keeps
        assert r1.rows == r2.rows and any(row["norm_soul"] > 0 for row in r1.rows)


REPORT_KEYS = {
    "cutoff", "cutoff_length", "region_count", "partial_sum", "deviation_body",
    "deviation_norm", "tol_body", "tol_norm", "converged", "spin_class",
}


def test_identity_report_keys_are_the_documented_ten():
    report = I.verify_identity(super_unit_state(), cutoff_length=12.0)
    assert set(report.to_obj()) == REPORT_KEYS


def test_identity_three_shortest_curves():
    rep = I.verify_identity(unit_state(), cutoff_length=24.0)
    partial3 = sum(row["summand_body"] for row in rep.rows[:3])
    assert abs(partial3 - 0.381966) <= 1e-5


# ----------------------------------------------------------------------
# growth counts
# ----------------------------------------------------------------------
def test_growth_count():
    st = unit_state()
    cutoff = math.exp(math.log(15.0)) * 2 * 3.0 * 1.01
    regs = M.enumerate_regions(M.find_sink(st), cutoff)
    table = I.growth_count(regs, [math.log(15.0)], cutoff, 3.0)
    # markoff numbers 1,1,1,2,5,13 with curve multiplicities 3+3+6+6
    assert table[0]["N_super"] == 18
    assert table[0]["N_super"] <= table[0]["N_body"]


def test_growth_super_dominated_by_body(tmp_path):
    _, sidecar = spectrum_with_sidecar(tmp_path, super_unit_state(), 5)
    assert len(sidecar["growth"]) == 10
    for row in sidecar["growth"]:
        assert row["N_super"] <= row["N_body"]


def test_growth_insufficient_cutoff():
    st = unit_state()
    regs = M.enumerate_regions(M.find_sink(st), 10.0)
    with pytest.raises(I.InsufficientCutoffError):
        I.growth_count(regs, [10.0], 10.0, 3.0)


def test_growth_ratio_stabilizes():
    # N(L)/L^2 within +-20 percent over the last two doublings at desk scale
    st = unit_state()
    L = [5.0, 10.0, 20.0]
    cutoff = math.exp(L[-1]) * 2 * 3.0
    regs = M.enumerate_regions(M.find_sink(st), cutoff)
    table = I.growth_count(regs, L, cutoff, 3.0)
    r1 = table[1]["N_super_over_L2"]
    r2 = table[2]["N_super_over_L2"]
    assert abs(r2 - r1) <= 0.2 * max(r1, r2)
