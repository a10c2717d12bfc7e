"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Random sweeps are seeded and flip words are kept inside floating-point
range (the invariance statements under test are scale-free).
"""

import bisect
import json
import math
import random
import time

import pytest

from superflip import identity as I
from superflip import markoff as M
from superflip import osp12 as O
from superflip import torus as T

from conftest import (
    edge_residual, eigenvectors, frame_lifts, general_ptolemy, run_cli, spectrum_with_sidecar,
    subtree_sum, super_unit_state, twist_orbit, unit_state, vertex_residual,
)

N = 2
SEED = 987123


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{label} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


def test_ac1_identity_classical():
    t0 = time.time()
    rep = I.verify_identity(unit_state(), cutoff_length=24.0)
    elapsed = time.time() - t0
    first3 = [row["summand_body"] for row in rep.rows[:3]]
    ok = (
        rep.deviation_body <= 1e-6
        and all(abs(v - 0.127322) <= 1e-6 for v in first3)
        and elapsed <= 10.0
    )
    _report(
        "AC-1",
        ok,
        f"|sum-1/2|={rep.deviation_body:.3e} (<=1e-6), first terms "
        f"{[round(v, 6) for v in first3]} (0.127322 +-1e-6), {elapsed:.2f}s (<=10s)",
    )


def test_ac2_identity_super_all_spin_classes():
    t0 = time.time()
    devs = []
    for cls in range(4):
        rep = I.verify_identity(
            super_unit_state(T.spin_for_class(cls)), cutoff_length=24.0
        )
        devs.append(rep.deviation_norm)
    elapsed = time.time() - t0
    ok = all(d <= 1e-5 for d in devs) and elapsed <= 30.0
    _report(
        "AC-2",
        ok,
        f"||sum-1/2|| per class {[f'{d:.2e}' for d in devs]} (<=1e-5), {elapsed:.1f}s (<=30s)",
    )


def test_ac3_semi_perimeter_invariance():
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(1000):
        st = T.random_state(rng)
        h0 = T.semi_perimeter(st)
        h1 = T.semi_perimeter(T.flip_word(st, 25, rng)[0])
        for mask in range(1 << N):
            d = abs(h1._c.get(mask, 0.0) - h0._c.get(mask, 0.0))
            worst = max(worst, d / max(1.0, abs(h0._c.get(mask, 0.0))))
    _report("AC-3", worst <= 1e-9, f"1000 states x 25 flips, worst drift {worst:.2e} (<=1e-9)")


def test_ac4_involution_and_ptolemy_specialization():
    rng = random.Random(SEED + 1)
    worst_inv, worst_spec, worst_mu = 0.0, 0.0, 0.0
    for _ in range(200):
        st = T.random_state(rng)
        for edge in "abc":
            back = T.flip(T.flip(st, edge), edge)
            assert back.isclose(st, 1e-12)
        a, b, c = st.a, st.b, st.c
        f, s2, t2 = general_ptolemy(a, b, a, b, c, st.sigma, st.theta)
        direct = (a * a + b * b + a * b * st.sigma * st.theta) / c
        worst_spec = max(worst_spec, (f - direct).norm() / max(1.0, direct.norm()))
        worst_mu = max(worst_mu, (s2 * t2 - st.sigma * st.theta).norm())
    _report(
        "AC-4",
        worst_spec <= 1e-14 and worst_mu <= 1e-13,
        f"double flips returned states (<=1e-12); quadrilateral vs torus formula "
        f"{worst_spec:.2e} (<=1e-14); mu-product drift {worst_mu:.2e} (<=1e-13)",
    )


def test_ac5_generators():
    rng = random.Random(SEED + 2)
    worst_map = worst_osp = worst_ber = worst_str = worst_eig = 0.0
    for i in range(200):
        st = T.random_state(rng, spin=T.spin_for_class(i % 4))
        pair = O.build_generators(st)
        A, B, C, D = frame_lifts(st, pair.frame)
        worst_map = max(
            worst_map,
            O.adjoint(pair.g_a, B).dist(A),
            O.adjoint(pair.g_a, C).dist(D),
            O.adjoint(pair.g_b, A).dist(D),
            O.adjoint(pair.g_b, B).dist(C),
        )
        worst_osp = max(worst_osp, pair.residuals["g_a_osp"], pair.residuals["g_b_osp"])
        worst_ber = max(
            worst_ber, pair.residuals["g_a_berezinian"], pair.residuals["g_b_berezinian"]
        )
        worst_str = max(
            worst_str, pair.residuals["g_a_supertrace"], pair.residuals["g_b_supertrace"]
        )
        if i % 8 == 0:  # the eigenvectors are those of class 0
            *_, eigres = eigenvectors(pair.g_a, st)
            worst_eig = max(worst_eig, max(eigres))
    ok = (
        worst_map <= 1e-9
        and worst_osp <= 1e-10
        and worst_ber <= 1e-10
        and worst_str <= 1e-10
        and worst_eig <= 1e-9
    )
    _report(
        "AC-5",
        ok,
        f"200 states, 50 per spin class: mapping {worst_map:.2e} (<=1e-9), osp {worst_osp:.2e} (<=1e-10), "
        f"Ber {worst_ber:.2e} (<=1e-10), supertrace {worst_str:.2e} (<=1e-10), "
        f"eigvec {worst_eig:.2e} (<=1e-9)",
    )


def test_ac6_recursion_closed_form():
    rng = random.Random(SEED + 3)
    worst = {"constant": 0.0, "oscillating": 0.0}
    for cls, kind in ((0, "constant"), (1, "oscillating"), (2, "constant"), (3, "oscillating")):
        for _ in range(5):
            st = T.random_state(rng, spin=T.spin_for_class(cls))
            for n, (lam, _) in twist_orbit(st, "a", -15, 15).items():
                bn = T.recursion_closed_form(st, "a", n)
                worst[kind] = max(worst[kind], (bn - lam).norm() / max(1.0, lam.norm()))
    ok = worst["constant"] <= 1e-8 and worst["oscillating"] <= 1e-8
    _report(
        "AC-6",
        ok,
        f"closed form vs the dehn_twist orbit |n|<=15: constant-W {worst['constant']:.2e}, "
        f"oscillating-W {worst['oscillating']:.2e} (<=1e-8)",
    )


def test_ac7_tree_relations():
    rng = random.Random(SEED + 4)
    st = super_unit_state(spin=(1, -1, 1))
    h = T.semi_perimeter(st)
    cutoff = I.cutoff_from_length(24.0)
    # the vertices the pruned enumeration visits: st is its own sink
    vertices = []
    stack = [(M._root_triple(st), None)]
    while stack:
        tri, parent = stack.pop()
        vertices.append(tri)
        for i in range(3):
            if i == parent:
                continue
            new = M._flip_entry(tri, i, h)
            if new.lam.body * h.body <= cutoff:
                child = list(tri)
                child[i] = new
                stack.append((tuple(child), i))
    depth = max(len(max(tri, key=lambda r: r.lam.body).address) for tri in vertices)
    worst_v = worst_e = 0.0
    for tri in vertices:
        a, b, c = (tri[i].lam for i in range(3))
        wa, wb, wc = (tri[i].w for i in range(3))
        scale = (h * a * b * c).norm()
        worst_v = max(worst_v, vertex_residual(a, b, c, wa, wb, wc, h).norm() / scale)
        for i in range(3):
            j, k = [x for x in range(3) if x != i]
            d = (tri[j].lam ** 2 + tri[k].lam ** 2 + tri[j].lam * tri[k].lam * tri[i].w) / tri[i].lam
            res = edge_residual(tri[i].lam, tri[j].lam, tri[k].lam, d, tri[j].w, tri[k].w, h)
            worst_e = max(worst_e, res.norm() / (h * tri[j].lam * tri[k].lam).norm())

    from test_markoff import random_shape

    worst_psi = 0.0
    for _ in range(100):
        s = T.random_state(rng)
        shape = random_shape(rng, 10)
        worst_psi = max(worst_psi, (subtree_sum(s, shape) - 1).norm())
    ok = worst_v <= 1e-11 and worst_e <= 1e-11 and worst_psi <= 1e-10 and depth >= 10
    _report(
        "AC-7",
        ok,
        f"{len(vertices)} vertices (depth {depth}): vertex {worst_v:.2e}, edge {worst_e:.2e} "
        f"(<=1e-11); 100 subtree psi-sums {worst_psi:.2e} (<=1e-10)",
    )


def test_ac8_sink_and_bounded_regions():
    rng = random.Random(SEED + 5)
    worst_min = 0.0
    for _ in range(20):
        spin = T.spin_for_class(rng.randrange(4))
        seed_state = super_unit_state(spin)
        start = T.flip_word(seed_state, rng.randrange(1, 13), rng)[0]
        sink = M.find_sink(start)
        regs = M.enumerate_regions(sink, 3.0 + 1e-6)
        assert regs, "Omega(3) empty"
        worst_min = max(worst_min, min(r.body * sink.h.body for r in regs))
    _report(
        "AC-8",
        worst_min <= 3.0 + 1e-6,
        f"20 flip-word states: sink found, Omega(3) non-empty, "
        f"max over states of min body(a h) = {worst_min:.9f} (<=3)",
    )


def _markoff_numbers_by_search(limit: int) -> set:
    """Independent oracle: exhaustive integer search of a^2+b^2+c^2 = 3abc."""
    found = set()
    for a in range(1, limit + 1):
        for b in range(a, limit + 1):
            # c solves c^2 - 3ab c + a^2 + b^2 = 0
            disc = 9 * a * a * b * b - 4 * (a * a + b * b)
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for c in ((3 * a * b + root) // 2, (3 * a * b - root) // 2):
                if c >= 1 and a * a + b * b + c * c == 3 * a * b * c:
                    found.update({a, b, c})
    return {v for v in found if v <= limit}


def test_ac9_markoff_triples():
    triples = {key for _, key, _ in M.markoff_triples(M.find_sink(unit_state()), 6)}
    worst = 0.0
    for a, b, c in triples:
        worst = max(worst, abs(a * a + b * b + c * c - 3 * a * b * c) / (3 * a * b * c))
    values = {round(v) for key in triples for v in key if v <= 200.5}
    oracle = _markoff_numbers_by_search(200)
    ok = worst <= 1e-12 and values == oracle
    _report(
        "AC-9",
        ok,
        f"depth-6 BFS: worst Markoff residual {worst:.2e} (<=1e-12); values<=200 "
        f"{sorted(values)} == oracle {sorted(oracle)}",
    )


def _fitted_c(rep) -> float:
    """Growth constant c of N(l) ~ c l^2 from a run's rows: (N(L) - N(L/2)) / (3/4 L^2).

    N(l) counts the rows with body_length below l, so only lengths between
    L/2 and L enter the fit, and one half does not.
    """
    L = rep.cutoff_length
    lengths = [row["body_length"] for row in rep.rows]
    return sum(L / 2 <= x < L for x in lengths) / (0.75 * L * L)


# Zagier: #{Markoff triples with largest entry below x} ~ C (log 3x)^2; each
# Markoff number above 2 labels six regions, so N(L) ~ 6 C (L + log 3)^2
ZAGIER_C = 0.180717104711


def _markoff_region_logs(top: float) -> list:
    """Sorted log m over the regions of the integer Markoff tree from (1, 1, 1) with log m < top."""
    logs, stack = [0.0, 0.0, 0.0], [((1, 1, 1), None)]
    while stack:
        tri, parent = stack.pop()
        for i in range(3):
            if i == parent:
                continue
            j, k = [x for x in range(3) if x != i]
            new = 3 * tri[j] * tri[k] - tri[i]
            log_new = math.log(new)
            if log_new < top:
                logs.append(log_new)
                stack.append((tri[:i] + (new,) + tri[i + 1:], i))
    return sorted(logs)


def test_ac10_growth_against_exact_count(tmp_path):
    st = super_unit_state()
    rows, sidecar = spectrum_with_sidecar(tmp_path, st, 40)
    growth = {row["L"]: row for row in sidecar["growth"]}
    # the CSV holds every curve with log-norm below 40, so every body below e^30
    logs_csv = [math.log(float(row.split(",")[3])) for row in rows]
    n_body = {L: growth[L]["N_body"] if L in growth else sum(x < L for x in logs_csv)
              for L in (10.0, 20.0, 30.0, 40.0)}
    top = math.log(1e100)
    logs = _markoff_region_logs(top)
    exact = {L: bisect.bisect_left(logs, L) for L in n_body}
    zagier = {L: bisect.bisect_left(logs, L) / (6 * ZAGIER_C * (L + math.log(3)) ** 2) - 1
              for L in (*n_body, top)}
    c_fit = [_fitted_c(I.verify_identity(st, L)) / (6 * ZAGIER_C / 4) - 1 for L in (18.0, 24.0, 30.0)]
    ok = (
        n_body == exact
        and all(abs(zagier[L]) <= 0.02 for L in n_body)
        and abs(zagier[top]) <= 0.001
        and all(abs(e) <= 0.15 for e in c_fit)
    )
    _report(
        "AC-10",
        ok,
        f"N_body(L=10,20,30,40) {list(n_body.values())} == integer Markoff count "
        f"{list(exact.values())}; vs 6C(L+log 3)^2 {[f'{zagier[L]:+.2%}' for L in n_body]} (<=2%), "
        f"{len(logs)} regions below 1e100 {zagier[top]:+.3%} (<=0.1%); fitted c vs 6C/4 "
        f"{[f'{e:+.1%}' for e in c_fit]} (<=15%); N_super/N_body at L=20,40 "
        f"{[round(growth[L]['N_super'] / growth[L]['N_body'], 4) for L in (20.0, 40.0)]}",
    )


def test_ac11_determinism_across_hash_seeds(tmp_path):
    src = tmp_path / "s.json"
    src.write_text(json.dumps(super_unit_state(spin=(1, -1, 1)).to_obj()))
    blobs = []
    for seed in ("0", "1"):
        out, table = tmp_path / f"report{seed}.json", tmp_path / f"curves{seed}.csv"
        proc = run_cli(
            ["identity", "--state", str(src), "--cutoff-length", "24",
             "--out", str(out), "--csv", str(table)],
            PYTHONHASHSEED=seed,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((out.read_bytes(), table.read_bytes()))
    ok = blobs[0] == blobs[1]
    _report(
        "AC-11",
        ok,
        f"report ({len(blobs[0][0])} bytes) and CSV ({len(blobs[0][1])} bytes) identical "
        "under PYTHONHASHSEED 0 and 1",
    )


def test_ac12_truncation_law():
    # body: the remainder sum_{l > L} 1/(1 + e^l) over N(l) ~ c l^2 is 2c(L + 1)e^-L;
    # soul: the W term W/(2s) falls like e^(-l/2), so the norm falls like L e^(-L/2)
    rng = random.Random(SEED + 6)
    t0 = time.time()
    body_ratios, soul_rates = [], []
    for n in (2, 4, 6):
        for cls in range(4):
            st = T.random_state(rng, n=n, spin=T.spin_for_class(cls))
            q = []
            for L in (18.0, 24.0, 30.0):
                rep = I.verify_identity(st, L)
                body_ratios.append(rep.deviation_body / (2 * _fitted_c(rep) * (L + 1) * math.exp(-L)))
                q.append(rep.deviation_norm / (L * math.exp(-L / 2)))
            soul_rates += [q2 / q1 for q1, q2 in zip(q, q[1:])]
    elapsed = time.time() - t0
    ok = all(0.5 <= x <= 2.0 for x in body_ratios + soul_rates)
    _report(
        "AC-12",
        ok,
        f"12 states (N=2,4,6 x 4 classes), L=18,24,30: deviation_body / 2c(L+1)e^-L in "
        f"[{min(body_ratios):.3f}, {max(body_ratios):.3f}], q(L') / q(L) for "
        f"q = deviation_norm / (L e^(-L/2)) in [{min(soul_rates):.3f}, {max(soul_rates):.3f}] "
        f"(each within a factor 2), {elapsed:.2f}s",
    )
