import dataclasses
import math
import random

import pytest

from superflip.grassmann import DomainError, GrassmannNumber as G, allclose
from superflip import identity as I
from superflip import markoff as M
from superflip import torus as T

from conftest import (
    edge_residual, psi, ptolemy_entry, subtree_sum, super_unit_state, unit_state, vertex_residual,
)

N = 2


# ----------------------------------------------------------------------
# vertex and edge relations
# ----------------------------------------------------------------------
def test_vertex_residual_classical():
    st = unit_state()
    assert vertex_residual(*st.lambdas(), *T.w_invariants(st), T.semi_perimeter(st)).norm() == 0.0


def test_edge_residual_classical_flip_instance():
    sc = lambda v: G.scalar(N, v)
    z = G.zero(N)
    # (a, d) = (1, 2) across the edge flanked by b = c = 1, h = 3
    res = edge_residual(sc(1), sc(1), sc(1), sc(2), z, z, sc(3))
    assert res.norm() == 0.0


def test_residuals_on_random_super_states(rng):
    for _ in range(60):
        st = T.random_state(rng)
        h = T.semi_perimeter(st)
        scale = (h * st.a * st.b * st.c).norm()
        lams = st.lambdas()
        ws = T.w_invariants(st)
        assert vertex_residual(*lams, *ws, h).norm() <= 1e-11 * scale
        # edge relation across each flip
        for i in range(3):
            j, k = [x for x in range(3) if x != i]
            d = (lams[j] ** 2 + lams[k] ** 2 + lams[j] * lams[k] * ws[i]) / lams[i]
            res = edge_residual(lams[i], lams[j], lams[k], d, ws[j], ws[k], h)
            assert res.norm() <= 1e-11 * (h * lams[j] * lams[k]).norm()


# ----------------------------------------------------------------------
# psi sums
# ----------------------------------------------------------------------
def test_psi_symmetric_point():
    one = G.one(N)
    z = G.zero(N)
    val = psi(one, one, one, z, z, G.scalar(N, 3))
    assert allclose(val, 1.0 / 3.0, 1e-15)


def test_psi_edge_pair_and_vertex_sums(rng):
    for _ in range(40):
        st = T.random_state(rng)
        h = T.semi_perimeter(st)
        tri = M._root_triple(st)
        total = G.zero(N)
        for d in range(3):
            j, k = [x for x in range(3) if x != d]
            total = total + psi(tri[j].lam, tri[k].lam, tri[d].lam, tri[j].w, tri[k].w, h)
        assert (total - 1).norm() <= 1e-12
        for d in range(3):
            j, k = [x for x in range(3) if x != d]
            other = ptolemy_entry(tri, d, h)
            p1 = psi(tri[j].lam, tri[k].lam, tri[d].lam, tri[j].w, tri[k].w, h)
            p2 = psi(tri[j].lam, tri[k].lam, other.lam, tri[j].w, tri[k].w, h)
            assert (p1 + p2 - 1).norm() <= 1e-12


def random_shape(rng, depth):
    shape = {()}
    frontier = [()]
    while frontier:
        path = frontier.pop()
        if len(path) >= depth:
            continue
        for d in range(3):
            if path and d == path[-1]:
                continue
            if rng.random() < 0.45:
                child = path + (d,)
                shape.add(child)
                frontier.append(child)
    return shape


def test_subtree_sums(rng):
    st = super_unit_state()
    assert (subtree_sum(st, {()}) - 1).norm() <= 1e-12
    assert (subtree_sum(st, {(), (0,)}) - 1).norm() <= 1e-12
    for _ in range(100):
        s = T.random_state(rng)
        shape = random_shape(rng, 10)
        assert (subtree_sum(s, shape) - 1).norm() <= 1e-10


# ----------------------------------------------------------------------
# the sink
# ----------------------------------------------------------------------
def test_sink_at_unit_point():
    sink = M.find_sink(unit_state())
    assert sink.steps == 0
    assert sorted(r.body for r in sink.regions) == [1.0, 1.0, 1.0]


def test_sink_from_twisted_states(rng):
    base = super_unit_state()
    for k in (1, 2, 4, 6):
        start = T.dehn_twist(base, "a", power=k)
        sink = M.find_sink(start)
        assert sink.steps <= 2 * k
        assert max(r.body for r in sink.regions) <= 1.0 + 1e-9


def test_sink_budget_exceeded_raises(monkeypatch):
    start = T.dehn_twist(super_unit_state(), "a", power=3)
    monkeypatch.setattr(M, "FIND_SINK_STEP_BUDGET", 1)
    with pytest.raises(M.NonConvergenceError, match="step budget of 1 flips; a thin torus") as err:
        M.find_sink(start)
    assert "corrupt" not in str(err.value)


def test_flexible_edge_state_resolves():
    # a^2 = b^2 + c^2 makes the flip of a body-neutral (flexible edge);
    # the walk must terminate without oscillating (float rounding may
    # count the tie as one step, never more)
    sc = lambda v: G.scalar(N, v)
    st = T.DecoratedTorusState(
        sc(math.sqrt(2)), sc(1), sc(1), G.zero(N), G.zero(N)
    )
    sink = M.find_sink(st)
    assert sink.steps <= 1
    assert sorted(round(r.body, 12) for r in sink.regions) == [
        1.0,
        1.0,
        round(math.sqrt(2), 12),
    ]


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [2, 4, 6])
def test_float_ptolemy_is_the_grassmann_body(rng, n):
    # the float step find_sink chooses its edge by and the flip it then
    # takes (torus.flip, Ptolemy) agree on the new body to the bit
    for _ in range(100):
        st = T.random_state(rng, n=n)
        for s in (st, T.flip(st, "abc"[rng.randrange(3)])):
            bodies = [x.body for x in s.lambdas()]
            for i, body in M._child_bodies(bodies, None):
                assert body == T.flip(s, "abc"[i]).lambdas()[i].body


def test_omega_three_nonempty_classical():
    regs = M.enumerate_regions(M.find_sink(unit_state()), 3.0)
    assert len(regs) == 3
    assert all(abs(r.body - 1.0) <= 1e-12 for r in regs)


def test_enumeration_matches_markoff_numbers():
    regs = M.enumerate_regions(M.find_sink(unit_state()), 15 * 3.0)
    values = sorted({round(r.body) for r in regs})
    assert values == [1, 2, 5, 13]
    # multiplicities: three curves per value at depth 1, six deeper
    from collections import Counter
    counts = Counter(round(r.body) for r in regs)
    assert counts[1] == 3 and counts[2] == 3 and counts[5] == 6 and counts[13] == 6


def test_enumeration_exhaustive_against_unpruned_walk(rng):
    st = super_unit_state(spin=(1, -1, 1))
    cutoff = 40.0
    regs = M.enumerate_regions(M.find_sink(st), cutoff)
    got = {r.slope for r in regs}
    # unpruned depth-capped brute-force walk
    h = T.semi_perimeter(st)
    tri = M._root_triple(st)
    seen = {}
    stack = [(tri, None, 0)]
    while stack:
        t, parent, depth = stack.pop()
        for r in t:
            if r.lam.body * h.body <= cutoff:
                seen.setdefault(r.slope, r)
        if depth >= 8:
            continue
        for i in range(3):
            if i == parent:
                continue
            new = M._flip_entry(t, i, h)
            child = list(t)
            child[i] = new
            stack.append((tuple(child), i, depth + 1))
    assert got == set(seen)


def _ptolemy_enumeration(sink, cutoff):
    """Regions by address, each built by the Ptolemy quotient, pruned as enumerate_regions prunes."""
    h_body = sink.h.body
    found = {r.address: r for r in sink.regions if r.body * h_body <= cutoff}
    stack = [(sink.regions, None)]
    while stack:
        tri, parent = stack.pop()
        for i in range(3):
            if i == parent:
                continue
            j, k = [x for x in range(3) if x != i]
            if not T.ptolemy(tri[j].body, tri[k].body, 0.0, tri[i].body) * h_body <= cutoff:
                continue
            node = ptolemy_entry(tri, i, sink.h)
            found[node.address] = node
            stack.append((tri[:i] + (node,) + tri[i + 1:], i))
    return found


@pytest.mark.parametrize("n, length, states", [(6, 24.0, 3), (2, 48.0, 4)])
def test_outward_edge_relation_matches_the_ptolemy_walk(n, length, states):
    rng = random.Random(f"edge-relation:{n}")
    cutoff = I.cutoff_from_length(length)
    worst = 0.0
    while states:
        st, _ = T.flip_word(T.random_state(rng, n=n, spin=T.spin_for_class(rng.randrange(4))), 4, rng)
        sink = M.find_sink(st)
        if not sink.steps:  # the word walked back to the sink
            continue
        states -= 1
        regs = M.enumerate_regions(sink, cutoff)
        ref = _ptolemy_enumeration(sink, cutoff)
        assert len(regs) == len(ref) > 100
        for r in regs:
            want = ref[r.address]
            assert (r.slope, r.w) == (want.slope, want.w)
            worst = max(worst, (r.lam - want.lam).norm() / want.lam.norm())
    assert worst <= 1e-12


def test_enumeration_connected(rng):
    # the region set below any cutoff forms a connected subcomplex:
    # every enumerated slope other than the sink three is the mediant of
    # two other enumerated-or-boundary slopes discovered before it
    st = super_unit_state()
    regs = M.enumerate_regions(M.find_sink(st), 300.0)
    assert len(regs) >= 3


def reference_address(slope):
    """The Stern-Brocot word of a slope, walked down from the root 1/1."""
    p, q = slope
    if (p, q) == (0, 1):
        return "L0"
    if (p, q) == (1, 0):
        return "R0"
    prefix = ""
    if p < 0:
        prefix, p = "N", -p
    lo, hi = (0, 1), (1, 0)
    word = []
    cur = (1, 1)
    while cur != (p, q):
        if p * cur[1] < q * cur[0]:  # p/q < cur
            word.append("L")
            hi = cur
        else:
            word.append("R")
            lo = cur
        cur = (lo[0] + hi[0], lo[1] + hi[1])
    return prefix + "".join(word)


def test_addresses_match_the_walk_from_the_root(rng):
    checked = 0
    for i in range(120):
        st = T.random_state(rng, n=2)
        if i % 2:
            st = T.flip(st, "abc"[i % 3])
        cutoff = I.cutoff_from_length(rng.uniform(6.0, 20.0))
        for r in M.enumerate_regions(M.find_sink(st), cutoff):
            assert r.address == reference_address(r.slope)
            checked += 1
    # non-backtracking walks from a root that is not a sink
    # (ten steps: bodies grow doubly exponentially along a walk)
    for _ in range(300):
        st = T.dehn_twist(T.random_state(rng), "a", power=2)
        tri, parent, h = M._root_triple(st), None, T.semi_perimeter(st)
        for _ in range(10):
            i = rng.choice([d for d in range(3) if d != parent])
            tri = tuple(M._flip_entry(tri, i, h) if d == i else tri[d] for d in range(3))
            parent = i
            assert tri[i].address == reference_address(tri[i].slope)
            checked += 1
    assert checked > 5000


@pytest.mark.parametrize("sign", [1, -1])
def test_address_cap_counts_letters_not_the_prefix(sign):
    # 1/(k+1) has the word L^k; the N of a negative slope is not a letter
    boundary = M._root_triple(unit_state())[0]
    assert boundary.slope == (0, 1)
    prefix = "N" if sign < 0 else ""

    def region(q, letters):
        return dataclasses.replace(boundary, slope=(sign, q), address=prefix + "L" * letters)

    word = M._child_address((sign, 4097), boundary, region(4096, 4095))
    assert word == reference_address((sign, 4097)) == prefix + "L" * 4096
    with pytest.raises(DomainError, match="over 4096 letters"):
        M._child_address((sign, 4098), boundary, region(4097, 4096))


def test_empty_below_minimum():
    regs = M.enumerate_regions(M.find_sink(unit_state()), 0.5)
    assert regs == []


def test_addresses_and_slopes():
    regs = M.enumerate_regions(M.find_sink(unit_state()), 15 * 3.0)
    by_addr = {r.address: r.slope for r in regs}
    assert by_addr[""] == (1, 1)
    assert by_addr["L0"] == (0, 1) and by_addr["R0"] == (1, 0)
    assert by_addr["L"] == (1, 2) and by_addr["R"] == (2, 1)
    assert by_addr["N"] == (-1, 1)
    # reduced addresses, sorted output
    assert all(r1.sort_key() <= r2.sort_key() for r1, r2 in zip(regs, regs[1:]))


# ----------------------------------------------------------------------
# neighbor asymptotics
# ----------------------------------------------------------------------
def neighbor_asymptotics_report(state, axis, depth):
    """Growth-rate table for the two neighbor sequences of the axis region.

    b_i are the regions adjacent to the axis region (the twist orbit) and
    c_i the regions one edge farther, wedged between b_i and b_{i+1}.
    Tabulates ||s_2k(b_i)|| / (|i|^k R^|i|) and
    ||s_2k(c_i)|| / (|i|^{2k} R^{2|i|}) with R the body of the twist
    eigenvalue; the ratios stay bounded.
    """
    base, w_axis, _, r = T._axis_frame(state, axis)
    seq = T.twist_sequence(state, axis, depth + 1)
    r_body = r.body
    kmax = state.n // 2
    rows = []
    for i in range(-depth, depth + 1):
        b_i = seq[i][0]
        c_i = T.ptolemy(seq[i][0], seq[i + 1][0], w_axis, base.a)
        row = {"i": i}
        for k in range(1, kmax + 1):
            row[f"b_ratio_k{k}"] = b_i.degree_soul(2 * k).norm() / (
                max(abs(i), 1) ** k * r_body ** abs(i)
            )
            row[f"c_ratio_k{k}"] = c_i.degree_soul(2 * k).norm() / (
                max(abs(i), 1) ** (2 * k) * r_body ** (2 * abs(i))
            )
        rows.append(row)
    return {"R": r_body, "kmax": kmax, "rows": rows}


def test_neighbor_asymptotics_classical_zero():
    rep = neighbor_asymptotics_report(unit_state(), "a", 8)
    for row in rep["rows"]:
        assert row["b_ratio_k1"] == 0.0 and row["c_ratio_k1"] == 0.0


def test_neighbor_asymptotics_bounded(rng):
    st = super_unit_state()
    rep = neighbor_asymptotics_report(st, "a", 15)
    inner = [r["b_ratio_k1"] for r in rep["rows"] if 0 < abs(r["i"]) <= 3]
    outer = [r["b_ratio_k1"] for r in rep["rows"] if abs(r["i"]) > 3]
    assert max(outer) <= 10.0 * max(inner)
    c_inner = [r["c_ratio_k1"] for r in rep["rows"] if 0 < abs(r["i"]) <= 3]
    c_outer = [r["c_ratio_k1"] for r in rep["rows"] if abs(r["i"]) > 3]
    assert max(c_outer) <= 10.0 * max(c_inner)


def test_markoff_triples_carry_their_relative_vertex_residual():
    sink = M.find_sink(T.DecoratedTorusState(*(G.scalar(2, v) for v in (1.0, 1.3, 0.7)), G.zero(2), G.zero(2)))
    h = sink.h.body
    triples = M.markoff_triples(sink, 5)
    assert len(triples) > 20
    for _, (a, b, c), residual in triples:
        assert residual == abs(a * a + b * b + c * c - h * a * b * c) / (h * a * b * c)
        assert residual <= M.MARKOFF_RESIDUAL_TOL


def test_asymptotics_r_matches_eigen(rng):
    from superflip.torus import eigen_r

    st = T.random_state(rng)
    rep = neighbor_asymptotics_report(st, "a", 5)
    h = T.semi_perimeter(st)
    w = T.w_invariants(st)[0]
    assert abs(rep["R"] - eigen_r(st.a, h, w).body) <= 1e-12 * rep["R"]
