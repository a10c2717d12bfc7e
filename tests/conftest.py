import dataclasses
import json
import os
import random
import subprocess
import sys

import mpmath
import pytest

import superflip
from superflip.grassmann import DomainError, GrassmannNumber
from superflip.markoff import _flip_entry, _root_triple
from superflip.osp12 import MinkowskiSuperVector, SuperMatrix, lift_fundamental_domain, smul, supertrace
from superflip.torus import (
    _AXIS_TO_FRONT, DecoratedTorusState, dehn_twist, eigen_r, ptolemy, semi_perimeter, w_invariants,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(superflip.__file__)))


@pytest.fixture
def rng():
    return random.Random(20240817)


def scalar(v, n=2):
    return GrassmannNumber.scalar(n, v)


def gens(n=2):
    return [GrassmannNumber.generator(n, i) for i in range(1, n + 1)]


def unit_state(sigma=None, theta=None, spin=(1, 1, 1)):
    """The square torus a = b = c = 1 at N = 2, classical unless sigma, theta are given."""
    one, zero = GrassmannNumber.scalar(2, 1), GrassmannNumber.zero(2)
    return DecoratedTorusState(
        one, one, one,
        sigma if sigma is not None else zero,
        theta if theta is not None else zero,
        spin=spin,
    )


def super_unit_state(spin=(1, 1, 1)):
    """The super unit torus (1, 1, 1 | 0.1 b1, 0.1 b2) at N = 2."""
    b1, b2 = GrassmannNumber.generator(2, 1), GrassmannNumber.generator(2, 2)
    return unit_state(sigma=b1 * 0.1, theta=b2 * 0.1, spin=spin)


def parity_part(x, parity):
    """The even (parity 0) or odd (parity 1) part of x, as a sum of its homogeneous degrees."""
    return sum((x.degree_soul(k) for k in range(parity, x.n + 1, 2)), GrassmannNumber.zero(x.n))


def general_ptolemy(a, b, c, d, e, sigma, theta):
    """Flip of a generic decorated quadrilateral with diagonal e: the reference for the torus flip.

    Returns (f, sigma', theta') with e f = (ac + bd)(1 + sigma theta
    sqrt(chi)/(1 + chi)) and the rotated mu-invariants, where
    chi = ac/(bd) is the super cross ratio.  The product sigma' theta' =
    sigma theta is asserted.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("d", d), ("e", e)):
        if v.body <= 0.0:
            raise DomainError(f"lambda-length {name} needs positive body")
    chi = (a * c) / (b * d)
    sq_chi = chi.sqrt()
    inv_1chi = (1 + chi).inverse()
    f = (a * c + b * d) * (1 + sigma * theta * sq_chi * inv_1chi) / e
    sq_1chi_inv = (1 + chi).sqrt().inverse()
    sigma2 = (sigma - sq_chi * theta) * sq_1chi_inv
    theta2 = (theta + sq_chi * sigma) * sq_1chi_inv
    drift = (sigma2 * theta2 - sigma * theta).norm()
    if not drift <= 1e-12 * max(1.0, (sigma * theta).norm()):
        raise AssertionError(f"mu-product not preserved (drift {drift:.2e})")
    return f, sigma2, theta2


def eigenvectors(g_a, state):
    """Eigenvectors (v_plus, v_minus, v_zero) of g_a for the base spin class, and their residuals.

    Valid for the spin class whose edge invariants on b and c both equal
    sigma*theta (the class the base construction lives in).  The residuals
    are ||g v - lam v|| for lam = r, 1/r and 1, with g v the graded product
    taking v as a column: column 0 (even, even, odd) for v_plus and v_minus,
    column 2 (odd, odd, even) for v_zero.
    """
    a, b, c, si, th = state.a, state.b, state.c, state.sigma, state.theta
    W = si * th
    r = eigen_r(a, semi_perimeter(dataclasses.replace(state, spin=(1, 1, 1))), W)
    one, zero = GrassmannNumber.one(a.n), GrassmannNumber.zero(a.n)

    def v_pm(rr):
        return [
            (a * a + c * c + a * c * W - b * c * rr) * (one - rr) - a * b * rr * W,
            b * b * (one - rr),
            a * b * si + b * (c - b * rr) * th,
        ]

    v0 = [a * (c - b) * si - a * a * th, a * b * si + b * (c - b) * th, a * a + (b - c) * (b - c)]
    vecs, residuals = [v_pm(r), v_pm(r.inverse()), v0], []
    for v, lam, col in zip(vecs, (r, r.inverse(), one), (0, 0, 2)):
        img = smul(g_a, SuperMatrix([[v[i] if j == col else zero for j in range(3)] for i in range(3)]))
        residuals.append(sum((img[i, col] - lam * v[i]).norm() for i in range(3)))
    return (*vecs, residuals)


def frame_lifts(state, frame):
    """Lifts (A, B, C, D) of the generators' frame: the state's slots ``frame``, D-bar outside class 0.

    Class 3 builds on the half-turn (sigma, theta) -> (theta, sigma) of its
    stored form; in classes 1-3, where the generators carry J^2 on the
    right, D's odd parts are negated.
    """
    cls = state.spin_class()
    si, th = (state.theta, state.sigma) if cls == 3 else (state.sigma, state.theta)
    A, B, C, D = lift_fundamental_domain(DecoratedTorusState(*(getattr(state, e) for e in frame), si, th))
    if cls:
        D = MinkowskiSuperVector(D.x1, D.x2, D.y, -D.phi, -D.theta)
    return A, B, C, D


def slot_traces(state):
    """x_e = lambda_e h - W_e for the slots e = a, b, c, with the state's own semi-perimeter h."""
    h = semi_perimeter(state)
    return [lam * h - w for lam, w in zip(state.lambdas(), w_invariants(state))]


def trace_error(g, x):
    """Distance of str(g) + 1 from the nearer of +x and -x, relative to ||x||."""
    lhs = supertrace(g) + 1
    return min((lhs - x).norm(), (lhs + x).norm()) / x.norm()


def vertex_residual(a, b, c, w_a, w_b, w_c, h):
    """LHS minus RHS of the vertex relation a^2 + b^2 + c^2 + a b W_c + a c W_b + b c W_a = h a b c."""
    return a * a + b * b + c * c + a * b * w_c + a * c * w_b + b * c * w_a - h * a * b * c


def edge_residual(a, b, c, d, w_b, w_c, h):
    """LHS minus RHS of the edge relation a + d + (b W_c + c W_b) = h b c."""
    return a + d + b * w_c + c * w_b - h * b * c


def psi(a, b, c, w_a, w_b, h):
    """Edge weight for the oriented edge flanked by a, b pointing at region c.

    psi + psi(reversed) = 1 across each edge and the three inward edges at
    a vertex sum to 1.
    """
    return h.inverse() * (c / (a * b) + w_a / (a * 2) + w_b / (b * 2))


def ptolemy_entry(triple, i, h):
    """``markoff._flip_entry`` with lambda built by the Ptolemy quotient (b^2 + c^2 + b c W_a) / a.

    Slope, address, W and neighbours are ``_flip_entry``'s; only the
    relation that builds lambda differs.  The quotient does not cancel
    toward the sink, where the edge relation would.
    """
    a, b, c = triple[i], *[triple[x] for x in range(3) if x != i]
    return dataclasses.replace(_flip_entry(triple, i, h), lam=ptolemy(b.lam, c.lam, a.w, a.lam))


def subtree_sum(state, shape):
    """Sum of psi over the oriented boundary edges of a finite subtree; the sum is 1.

    ``shape`` is a set of vertices as direction words from the root vertex
    of ``state`` (the empty word): each step names which of the three
    regions the crossed edge replaces.  It holds the root, is connected and
    never steps back (the shapes of ``test_markoff.random_shape``).
    """
    h, root = semi_perimeter(state), _root_triple(state)
    total = GrassmannNumber.zero(state.n)
    for path in sorted(shape):
        tri = root
        for d in path:
            tri = tuple(ptolemy_entry(tri, d, h) if x == d else tri[x] for x in range(3))
        for d in range(3):
            if (path and d == path[-1]) or path + (d,) in shape:
                continue
            j, k = [x for x in range(3) if x != d]
            total = total + psi(tri[j].lam, tri[k].lam, tri[d].lam, tri[j].w, tri[k].w, h)
    return total


def twist_orbit(state, axis, lo, hi):
    """{n: (b_n, W_{b_n})} for lo <= n <= hi: the slot-q entries of ``dehn_twist(state, axis, -n)``.

    (p, q, r) = ``torus._AXIS_TO_FRONT[axis]``.  The walk steps one twist
    at a time away from n = 0 in each direction, so no orbit is recomputed.
    """
    q = _AXIS_TO_FRONT[axis][1]
    states = {0: state}
    for n in range(1, hi + 1):
        states[n] = dehn_twist(states[n - 1], axis, -1)
    for n in range(-1, lo - 1, -1):
        states[n] = dehn_twist(states[n + 1], axis, 1)
    return {n: (states[n].lambdas()[q], w_invariants(states[n])[q]) for n in range(lo, hi + 1)}


def even_element(rng, n, body, soul_norm):
    """Random even element with the given body and a soul of the given norm over every even mask."""
    soul = {m: rng.uniform(-1, 1) for m in range(1, 1 << n) if m.bit_count() % 2 == 0}
    k = soul_norm / sum(map(abs, soul.values()))
    return GrassmannNumber(n, {0: body, **{m: v * k for m, v in soul.items()}})


def mp_copy(x):
    """x with mpmath coefficients; the ring operations carry them at mpmath's working precision."""
    return GrassmannNumber._make(x.n, {m: mpmath.mpf(v) for m, v in x._c.items()})


def _mp_taylor(x, jet):
    """sum_k jet[k] soul(x)^k for k = 0..n, jet[k] = f^(k)(body)/k! as mpmath numbers."""
    soul, total = x.soul(), GrassmannNumber.zero(x.n)
    for k, c in enumerate(jet):
        total = total + soul ** k * GrassmannNumber._make(x.n, {0: c})
    return total


def mp_sqrt(x):
    """Square root of an element with mpmath coefficients, by the binomial series."""
    b = x.body
    return _mp_taylor(x, [mpmath.sqrt(b) * mpmath.binomial(0.5, k) / b ** k for k in range(x.n + 1)])


def mp_log(x):
    """Logarithm of an element with mpmath coefficients, by the series of log(1 + t)."""
    b = x.body
    return _mp_taylor(x, [mpmath.log(b)] + [(-1) ** (k + 1) / (k * b ** k) for k in range(1, x.n + 1)])


def mp_relative_error(x, exact):
    """||x - exact|| / ||exact|| for a float element x against an mpmath one."""
    return float((mp_copy(x) - exact).norm() / exact.norm())


def random_grassmann(rng, n=3, scale=0.5, body=None):
    coeffs = {}
    for mask in range(1, 1 << n):
        if rng.random() < 0.7:
            coeffs[mask] = rng.uniform(-1, 1) * scale
    x = GrassmannNumber(n, coeffs)
    if body is not None:
        x = x + body
    else:
        x = x + rng.uniform(-2, 2)
    return x


def run_cli(argv, **env):
    """Run the superflip command in a fresh interpreter on this checkout's sources."""
    full_env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run(
        [sys.executable, "-m", "superflip.cli", *argv],
        capture_output=True, text=True, env=full_env, timeout=120,
    )


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as strict parsers do."""

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def spectrum_with_sidecar(tmp_path, state, lmax):
    """Run ``superflip spectrum --sidecar`` in-process; return its CSV rows and its sidecar.

    The sidecar is parsed as strict JSON.
    """
    from superflip.cli import main

    src, out, side = tmp_path / "state.json", tmp_path / "spec.csv", tmp_path / "side.json"
    src.write_text(json.dumps(state.to_obj()))
    argv = ["spectrum", "--state", str(src), "--Lmax", str(lmax), "--out", str(out)]
    assert main(argv + ["--sidecar", str(side)]) == 0
    return out.read_text().strip().splitlines()[1:], strict_loads(side.read_text())

