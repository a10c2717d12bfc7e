"""Decorated coordinates of the once-punctured super torus and their flips.

A state holds three lambda-lengths ``(a, b, c)`` for the two sides and the
diagonal of the fundamental-domain quadrilateral, two odd mu-invariants
``(sigma, theta)`` for the two triangles, and three orientation signs
``spin = (s_a, s_b, s_c)``.  The sign of edge ``e`` fixes its W-invariant

    W_e = s_e * sigma * theta,

the product of the two mu-invariants ordered by the edge orientation.
Two gauge moves act trivially on the underlying geometry and are used for
normalization:

- the half-turn of the quadrilateral exchanges the two triangles,
  swapping ``sigma`` and ``theta`` and reversing every edge orientation
  (all three signs flip);
- a triangle reversal negates one mu-invariant and flips all three signs.

Both preserve every ``W_e``.  States are stored with ``s_c = +1`` (each
orbit has such a representative), so the four spin components are indexed
by ``(s_a, s_b)``.

Flips and Dehn twists are one super Ptolemy move.  Edge e with sides
x, y flips, in the gauge where s_e = +1, by the W-form relation

    e f = x^2 + y^2 + x y W_e,

the new edge inherits W_e, and the mu-invariants rotate by

    sigma' = (y sigma - x theta) / sqrt(x^2 + y^2),
    theta' = (y theta + x sigma) / sqrt(x^2 + y^2).

A flip keeps the new edge in e's slot and swaps the sides' slots and signs;
a twist step places them by its axis, its inverse taking the half-turn
gauge before the quarter turn (``flip``, ``dehn_twist``); each builds one state.

These are exactly the transformation rules of the general quadrilateral
Ptolemy transformation specialized to the torus (both sides of the
quadrilateral are identified in pairs), and they keep the semi-perimeter

    h = a/(bc) + b/(ac) + c/(ab) + W_a/a + W_b/b + W_c/c

exactly invariant.  A double flip returns the same point of the decorated
moduli space; the raw mu-pair comes back rotated by a quarter turn in the
(sigma, theta) plane, which is one of the trivial gauge moves, so state
comparison (`isclose`) works modulo that finite gauge group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Iterable

from .grassmann import DomainError, GrassmannNumber, allclose

__all__ = [
    "DecoratedTorusState",
    "flip",
    "flip_word",
    "ptolemy",
    "w_invariants",
    "semi_perimeter",
    "h_drift",
    "check_hyperbolic",
    "eigen_r",
    "h_lengths",
    "dehn_twist",
    "recursion_closed_form",
    "spin_class_id",
    "spin_for_class",
    "random_state",
]


@dataclass(frozen=True)
class DecoratedTorusState:
    """Point of decorated super Teichmueller space in fundamental-domain form."""

    a: GrassmannNumber
    b: GrassmannNumber
    c: GrassmannNumber
    sigma: GrassmannNumber
    theta: GrassmannNumber
    spin: tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self):
        n = self.a.n
        for name in ("a", "b", "c", "sigma", "theta"):
            v = getattr(self, name)
            if v.n != n:
                raise DomainError("mixed generator counts in state")
            if not all(map(math.isfinite, v._c.values())):
                raise DomainError(f"{name} has a non-finite coefficient")
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not v.is_even():
                raise DomainError(f"lambda-length {name} must be even")
            if not v.body > 0.0:
                raise DomainError(f"lambda-length {name} needs positive body")
        for name in ("sigma", "theta"):
            if not getattr(self, name).is_odd():
                raise DomainError(f"mu-invariant {name} must be odd")
        if len(self.spin) != 3 or any(s not in (-1, 1) for s in self.spin):
            raise DomainError("spin must be three signs +-1")
        # the stored representative always has positive diagonal sign
        for name, v in zip(("sigma", "theta", "spin"), _gauged(self.sigma, self.theta, self.spin, 2)):
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.a.n

    def lambdas(self) -> tuple[GrassmannNumber, ...]:
        return (self.a, self.b, self.c)

    def spin_class(self) -> int:
        return spin_class_id(self.spin)

    def mu_product(self) -> GrassmannNumber:
        return self.sigma * self.theta

    def isclose(self, other: "DecoratedTorusState", tol: float = 1e-12) -> bool:
        """Same point of the moduli space, modulo the trivial gauge moves.

        Lambda-lengths and spin signs must agree; the mu-pair may differ
        by a quarter-turn rotation (sigma, theta) -> (-theta, sigma),
        whose square is the global sign flip.
        """
        if self.spin != other.spin:
            return False
        for p, q in zip(self.lambdas(), other.lambdas()):
            if not allclose(p, q, tol):
                return False
        si, th = other.sigma, other.theta
        for _ in range(4):
            if allclose(self.sigma, si, tol) and allclose(self.theta, th, tol):
                return True
            si, th = -th, si
        return False

    def to_obj(self) -> dict:
        return {
            "N": self.n,
            "a": self.a.to_obj(),
            "b": self.b.to_obj(),
            "c": self.c.to_obj(),
            "sigma": self.sigma.to_obj(),
            "theta": self.theta.to_obj(),
            "spin": list(self.spin),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "DecoratedTorusState":
        """Inverse of ``to_obj``; TypeError unless N is an int equal to every element's N and every spin an int,
        ValueError on a key ``to_obj`` does not write (``spin`` may be left out)."""
        n, spin = obj["N"], tuple(obj.get("spin", (1, 1, 1)))
        unknown = set(obj) - {"N", "a", "b", "c", "sigma", "theta", "spin"}
        if unknown:
            raise ValueError(f"unknown state keys {sorted(unknown)}")
        parts = {name: GrassmannNumber.from_obj(obj[name]) for name in ("a", "b", "c", "sigma", "theta")}
        if type(n) is not int or any(v.n != n for v in parts.values()) or any(type(s) is not int for s in spin):
            raise TypeError(f"state N {n!r} must be an int equal to every element's N, spin {list(spin)!r} ints")
        return cls(**parts, spin=spin)


def spin_class_id(spin: Iterable[int]) -> int:
    """Orbit of the sign triple under flipping all three signs, as 0..3."""
    sa, sb, sc = spin
    if sc < 0:
        sa, sb = -sa, -sb
    return (2 if sa < 0 else 0) + (1 if sb < 0 else 0)


def spin_for_class(class_id: int) -> tuple[int, int, int]:
    if class_id not in (0, 1, 2, 3):
        raise ValueError("spin class id must be 0..3")
    return (-1 if class_id & 2 else 1, -1 if class_id & 1 else 1, 1)


def w_invariants(state: DecoratedTorusState) -> tuple[GrassmannNumber, ...]:
    """Edge invariants (W_a, W_b, W_c); each is +-sigma*theta by orientation."""
    w = state.mu_product()
    sa, sb, sc = state.spin
    return (w * sa, w * sb, w * sc)


def h_lengths(a, b, c) -> tuple[GrassmannNumber, ...]:
    """Horocyclic segment lengths opposite the three edges: a/(bc) etc."""
    return (a / (b * c), b / (a * c), c / (a * b))


def semi_perimeter(state: DecoratedTorusState) -> GrassmannNumber:
    """Flip-invariant h = a/(bc) + b/(ac) + c/(ab) + sum W_e / e; DomainError off float64."""
    a, b, c = state.lambdas()
    wa, wb, wc = w_invariants(state)
    al, be, ga = h_lengths(a, b, c)
    h = al + be + ga + wa / a + wb / b + wc / c
    if not (h.body > 0.0 and math.isfinite(h.norm())):
        raise DomainError(f"semi-perimeter leaves float64: body {h.body!r}, norm {h.norm()!r}")
    return h


# bounds on h_drift: one flip or twist, and a whole flip word (rounding accumulates per letter)
MOVE_DRIFT_TOL = 1e-11
WORD_DRIFT_TOL = 1e-9


def h_drift(h0: GrassmannNumber, h1: GrassmannNumber) -> float:
    """Change of the semi-perimeter relative to ||h0|| (positive: semi_perimeter refuses body <= 0)."""
    return (h1 - h0).norm() / h0.norm()


def check_hyperbolic(trace_body: float) -> None:
    """DomainError naming the margin body - 2 unless it is positive (hyperbolic monodromy)."""
    if not trace_body > 2.0:
        raise DomainError(
            f"elliptic/parabolic trace: margin body - 2 = {trace_body - 2.0:.6g} is not positive"
        )


def eigen_r(aa: GrassmannNumber, h: GrassmannNumber, w: GrassmannNumber) -> GrassmannNumber:
    """r with r + 1/r = x = aa*h - w and body > 1: the eigenvalue of the holonomy along aa."""
    x = aa * h - w
    check_hyperbolic(x.body)
    return (x + ((x - 2) * (x + 2)).sqrt()) * 0.5  # (x - 2)(x + 2) keeps the digits x*x - 4 cancels near 2


# ----------------------------------------------------------------------
# flips
# ----------------------------------------------------------------------
def ptolemy(x, y, w, z):
    """Entry replacing z across the edge flanked by x, y: (x^2 + y^2 + x y w) / z.

    On Grassmann numbers ``1 / z`` is ``1 * z.inverse()``, an exact copy of
    z^-1, so on float bodies with w = 0.0 it gives the Grassmann body bit for bit.
    """
    return (x * x + y * y + x * y * w) * (1 / z)


def _gauged(sigma, theta, spin, i: int):
    """The half-turn representative (swap the mu-pair, flip every sign) with s_i = +1."""
    if spin[i] > 0:
        return sigma, theta, tuple(spin)
    return theta, sigma, tuple(-s for s in spin)


def _ptolemy_move(lam, sigma, theta, spin, i: int, j: int, k: int):
    """Flip edge i across x = lam[j], y = lam[k], gauged to s_i = +1: f, x, y, sigma', theta', spin."""
    sigma, theta, spin = _gauged(sigma, theta, spin, i)
    x, y = lam[j], lam[k]
    f = ptolemy(x, y, sigma * theta, lam[i])
    d_inv = (x * x + y * y).sqrt().inverse()
    return f, x, y, (y * sigma - x * theta) * d_inv, (y * theta + x * sigma) * d_inv, spin


def flip(state: DecoratedTorusState, edge: str) -> DecoratedTorusState:
    """Flip one edge of the triangulation; an involution on the quotient.

    Edge i flips across its sides (i+1, i+2) in cyclic order.  The new
    edge keeps slot i, and the two sides swap slots and signs.
    """
    if edge not in ("a", "b", "c"):
        raise ValueError("edge must be one of 'a', 'b', 'c'")
    i = "abc".index(edge)
    j, k = (i + 1) % 3, (i + 2) % 3
    f, x, y, si, th, spin = _ptolemy_move(state.lambdas(), state.sigma, state.theta, state.spin, i, j, k)
    lam, signs = [f] * 3, list(spin)
    lam[j], lam[k], signs[j], signs[k] = y, x, spin[k], spin[j]
    return DecoratedTorusState(*lam, si, th, signs)


FLIP_WORD_BODY_CAP = 1e100  # largest lambda body a flip word keeps, far below float64 overflow


def flip_word(state: DecoratedTorusState, length: int, rng: Random) -> tuple[DecoratedTorusState, str]:
    """Seeded random word of ``length`` flips kept inside float64; returns (state, word).

    Each letter shuffles the three edges with ``rng`` and takes the first
    flip that keeps every lambda body below FLIP_WORD_BODY_CAP; DomainError,
    naming the letter and the smallest largest body, if none does.
    """
    word = ""
    for letter in range(1, length + 1):
        edges = ["a", "b", "c"]
        rng.shuffle(edges)
        largest = []
        for e in edges:
            nxt = flip(state, e)
            largest.append(max(x.body for x in nxt.lambdas()))
            if largest[-1] < FLIP_WORD_BODY_CAP:
                state, word = nxt, word + e
                break
        else:
            raise DomainError(f"flip word letter {letter}: every flip takes a body above the cap "
                              f"{FLIP_WORD_BODY_CAP:g}; the smallest largest body is {min(largest):.6g}")
    return state, word


# ----------------------------------------------------------------------
# Dehn twists and the strip recursion
# ----------------------------------------------------------------------
_AXIS_TO_FRONT = {"a": (0, 1, 2), "b": (1, 0, 2), "c": (2, 0, 1)}


def dehn_twist(state: DecoratedTorusState, axis: str, power: int = 1) -> DecoratedTorusState:
    """Dehn twist along the curve disjoint from ``axis``, iterated ``power`` times.

    With (p, q, r) = ``_AXIS_TO_FRONT[axis]``, lam[p] is fixed.  A +1 step
    flips q across (p, r), then lam[q], lam[r] = y, f: classically (x, y, z)
    -> (x, z, (x^2+z^2)/y) in slots (p, q, r).  A -1 step, the exact inverse,
    takes the gauge s_r = +1, then the quarter turn (sigma, theta) ->
    (theta, -sigma), then flips r across (q, p), then lam[q], lam[r] = f, x.
    Both then swap the signs of q and r.  Each step builds one state.
    """
    if axis not in _AXIS_TO_FRONT:
        raise ValueError("axis must be one of 'a', 'b', 'c'")
    p, q, r = _AXIS_TO_FRONT[axis]
    for _ in range(abs(power)):
        lam, si, th, spin = list(state.lambdas()), state.sigma, state.theta, state.spin
        if power > 0:
            f, x, y, si, th, spin = _ptolemy_move(lam, si, th, spin, q, p, r)
            lam[q], lam[r] = y, f
        else:  # gauge first: a half-turn after the quarter turn would negate the mu-pair
            si, th, spin = _gauged(si, th, spin, r)
            f, x, y, si, th, spin = _ptolemy_move(lam, th, -si, spin, r, q, p)
            lam[q], lam[r] = f, x
        signs = list(spin)
        signs[q], signs[r] = spin[r], spin[q]
        state = DecoratedTorusState(*lam, si, th, signs)
    return state


def recursion_closed_form(state, axis: str, n: int):
    """b_n, the slot-q lambda-length of ``dehn_twist(state, axis, -n)``, in closed form.

    With (p, q, r) = ``_AXIS_TO_FRONT[axis]``, a = lam[p] and h the state's
    semi-perimeter, b_n = x R^n + y R^{-n} + a W_{b_n} / (a h - W_p -+ 2),
    where R + 1/R = a h - W_p, W_{b_n} is W_q for even n and W_r for odd n,
    and the sign is minus when s_q = s_r (constant W) and plus when W
    alternates.  x, y are solved from b_0 = lam[q] and one Ptolemy step
    b_1 = ptolemy(a, b_0, W_r, lam[r]).
    """
    if abs(n) > 64:
        raise ValueError(f"|n| = {abs(n)} exceeds the bound 64")
    p, q, r = _AXIS_TO_FRONT[axis]
    lam, w = state.lambdas(), w_invariants(state)
    aa, h = lam[p], semi_perimeter(state)
    big_r = eigen_r(aa, h, w[p])
    shift = -2.0 if state.spin[q] == state.spin[r] else 2.0
    denom = (aa * h - w[p] + shift).inverse()
    particular = (aa * w[q] * denom, aa * w[r] * denom)  # by the parity of n
    u0 = lam[q] - particular[0]
    u1 = ptolemy(aa, lam[q], w[r], lam[r]) - particular[1]
    r_inv = big_r.inverse()
    y = (u0 * big_r - u1) * (big_r - r_inv).inverse()
    x = u0 - y
    if x.body <= 0 or y.body <= 0:
        raise DomainError("recursion coefficients lost positive body")
    rn = big_r**n if n >= 0 else r_inv ** (-n)
    rmn = r_inv**n if n >= 0 else big_r ** (-n)
    return x * rn + y * rmn + particular[n % 2]


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
def random_state(
    rng: Random, n: int = 2, spin: tuple[int, int, int] | None = None
) -> DecoratedTorusState:
    """Random valid state for property sweeps; deterministic given the rng."""

    def signed(scale):
        return rng.choice((-1, 1)) * rng.uniform(0.3, 1.0) * scale

    def even(body):
        coeffs = {}
        for m in range(1, 1 << n):
            if m.bit_count() % 2 == 0 and rng.random() < 0.7:
                coeffs[m] = signed(0.1)
        return GrassmannNumber(n, coeffs) + body

    def odd():
        # every odd mask present, so mu-products are never degenerate
        coeffs = {
            m: signed(0.2)
            for m in range(1, 1 << n)
            if m.bit_count() % 2 == 1
        }
        return GrassmannNumber(n, coeffs)

    if spin is None:
        spin = spin_for_class(rng.randrange(4))
    return DecoratedTorusState(
        a=even(rng.uniform(0.6, 1.8)),
        b=even(rng.uniform(0.6, 1.8)),
        c=even(rng.uniform(0.6, 1.8)),
        sigma=odd(),
        theta=odd(),
        spin=tuple(spin),
    )
