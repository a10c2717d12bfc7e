"""Truncated sums for the super McShane identity, and length-spectrum growth counts.

Each simple closed curve (a complementary region of the dual tree with
super lambda-length ``a``, edge invariant ``W`` and semi-perimeter ``h``)
contributes

    1/(a h r) + W/(2 a h),       r = (a h - W + sqrt((a h - W)^2 - 4))/2,

equivalently, with super length ``l = 2 log r``,

    1/(e^l + 1) + (W/4) sinh(l/2) / cosh(l/2)^2 ,

and the sum over all curves is exactly one half.  W = +-sigma theta is a
product of two odd elements, so W^2 = 0 and f(y - W) = f(y) - W f'(y); with
y = a h and s = sqrt(y^2 - 4) the summand is 2/(y (y + s)) + W/(2 s).  Both
parts are analytic in y, and ``summand_region`` sums their scalar jets at
body(y) over the powers ``y._soul_powers(1/body(y))``, with no Grassmann inverse.  The
equal form (1 - sqrt(1 - 4/y^2))/2 of the first part cancels, losing about
1e-8 relative at large y: do not use it.  The series is
absolutely convergent, so the summation order is mathematically free;
each Grassmann component is summed correctly rounded (``math.fsum``), so
reports do not depend on the order and are reproducible to the byte.

A truncated sum converges when its deviation from one half lies within
the tolerance, in the body and in the full Grassmann norm; the report adds
a body-soul comparison.  The growth count ``N(L) = #{log||a|| < L}`` is a
separate result, for the ``spectrum`` sidecar, outside the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .grassmann import DomainError, GrassmannNumber, _jet_pow
from .markoff import RegionNode, enumerate_regions, find_sink, region_table_rows
from .torus import DecoratedTorusState, check_hyperbolic

__all__ = [
    "IdentityReport",
    "InsufficientCutoffError",
    "summand_region",
    "summand_geodesic",
    "verify_identity",
    "body_soul_report",
    "growth_cutoff",
    "growth_count",
    "cutoff_from_length",
    "BODY_TOL", "NORM_TOL", "BODY_SOUL_DELTA",
]

# acceptance tolerances of the truncated sum: |body(sum) - 1/2| and the
# full Grassmann norm ||sum - 1/2||; exponent of the body-soul comparison
BODY_TOL = 1e-6
NORM_TOL = 1e-5
BODY_SOUL_DELTA = 0.5


class InsufficientCutoffError(ValueError):
    """Enumeration cutoff too small for the requested count to be complete."""


def cutoff_from_length(body_length: float) -> float:
    """Translate a geodesic body-length cutoff into a cutoff on body(a h)."""
    return 2.0 * math.cosh(body_length / 2.0)


def summand_region(lam: GrassmannNumber, h: GrassmannNumber, w: GrassmannNumber) -> GrassmannNumber:
    """Identity summand in region form, 1/(a h r) + W/(2 a h), in closed form (module docstring)."""
    y = lam * h
    y0 = y.body
    check_hyperbolic(y0)
    powers = y._soul_powers(1.0 / y0)
    # jets in u of q = (y^2 - 4)/y0^2, g = s/y0 = sqrt(q) and d = y (y + s)/y0^2, y = y0 (1 + u)
    q = ([((y0 - 2.0) / y0) * ((y0 + 2.0) / y0), 2.0, 1.0] + [0.0] * len(powers))[: len(powers)]
    g = _jet_pow(q, 0.5)
    d = [v + x + z for v, x, z in zip([1.0, 2.0, 1.0] + [0.0] * len(g), g, [0.0] + g)]
    a_jet = [c * 2.0 / y0 / y0 for c in _jet_pow(d, -1.0)]
    b_jet = [c * 0.5 / y0 for c in _jet_pow(q, -0.5)]
    return sum(x * c for x, c in zip(powers, a_jet)) + w * sum(x * c for x, c in zip(powers, b_jet))


def summand_geodesic(ell: GrassmannNumber, w: GrassmannNumber) -> GrassmannNumber:
    """Identity summand in length form, 1/(e^l + 1) + (W/4) sinh(l/2)/cosh^2(l/2)."""
    if ell.body <= 0.0:
        raise DomainError("geodesic length needs positive body")
    half = ell * 0.5
    ch = half.cosh()
    return (ell.exp() + 1).inverse() + (w * 0.25) * half.sinh() * (ch * ch).inverse()


def _compensated_grassmann_sum(terms: list[GrassmannNumber], n: int) -> GrassmannNumber:
    """Correctly rounded sum of each coefficient over the terms."""
    columns: dict[int, list[float]] = {}
    for t in terms:
        for mask, v in t._c.items():
            columns.setdefault(mask, []).append(v)
    return GrassmannNumber(n, {mask: math.fsum(vals) for mask, vals in columns.items()})


@dataclass
class IdentityReport:
    """Everything a truncated identity run produces."""

    cutoff: float
    cutoff_length: float
    region_count: int
    partial_sum: GrassmannNumber
    deviation_body: float
    deviation_norm: float
    tol_body: float
    tol_norm: float
    converged: bool
    spin_class: int
    body_soul_M: float
    body_soul_delta: float
    body_soul_violations: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def to_obj(self) -> dict:
        """Every field but the per-curve ``rows``, which go to the CSV."""
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}
        obj["partial_sum"] = self.partial_sum.to_obj()
        return obj


def verify_identity(state: DecoratedTorusState, cutoff_length: float) -> IdentityReport:
    """Sum the identity over all curves below the cutoff and compare with 1/2.

    The deviation is reported for the body alone and for the full
    Grassmann norm; ``converged`` records whether each stays within its
    tolerance, BODY_TOL and NORM_TOL.  Raises InsufficientCutoffError when
    no region lies below the cutoff.
    """
    cutoff = cutoff_from_length(cutoff_length)
    sink = find_sink(state)
    regions = enumerate_regions(sink, cutoff)
    if not regions:
        raise InsufficientCutoffError(
            f"no region below cutoff length {cutoff_length:g} (body(a h) cutoff {cutoff:.6g})"
        )
    h = sink.h

    terms = [summand_region(r.lam, h, r.w) for r in regions]
    partial = _compensated_grassmann_sum(terms, state.n)
    dev = partial - 0.5
    deviation_body = abs(dev.body)
    deviation_norm = dev.norm()
    converged = deviation_body <= BODY_TOL and deviation_norm <= NORM_TOL

    m_val, violations = body_soul_report(regions)

    rows = region_table_rows(regions, h)
    for row, t in zip(rows, terms):
        row["summand_body"] = t.body
        row["summand_norm"] = t.norm()

    return IdentityReport(
        cutoff=cutoff,
        cutoff_length=cutoff_length,
        region_count=len(regions),
        partial_sum=partial,
        deviation_body=deviation_body,
        deviation_norm=deviation_norm,
        tol_body=BODY_TOL,
        tol_norm=NORM_TOL,
        converged=converged,
        spin_class=state.spin_class(),
        body_soul_M=m_val,
        body_soul_delta=BODY_SOUL_DELTA,
        body_soul_violations=violations,
        rows=rows,
    )


def body_soul_report(regions: list[RegionNode]) -> tuple[float, list]:
    """Max of ||soul(a)|| / body(a)^(1+BODY_SOUL_DELTA) plus a prefix sanity check.

    The first 100 regions in body order set a reference maximum; later
    regions exceeding ten times it are flagged (a diagnostic, not a
    theorem-level assertion).
    """
    if not regions:
        raise ValueError("empty region list")
    ordered = sorted(regions, key=RegionNode.sort_key)
    ratios = [r.lam.soul().norm() / r.body ** (1.0 + BODY_SOUL_DELTA) for r in ordered]
    m_val = max(ratios)
    prefix_max = max(ratios[:100])
    violations = [
        {"address": r.address, "ratio": ratio, "prefix_max": prefix_max}
        for r, ratio in zip(ordered[100:], ratios[100:])
        if ratio > 10.0 * prefix_max
    ]
    return m_val, violations


def growth_cutoff(l_max: float, h_body: float) -> float:
    """Cutoff 2 e^l_max body(h) on body(a h), complete up to log-norm l_max (2 for the soul)."""
    return math.exp(l_max) * 2.0 * h_body


def growth_count(
    regions: list[RegionNode],
    l_grid: list[float],
    cutoff: float,
    h_body: float,
) -> list[dict]:
    """Counts N(L) = #{log||a|| < L} together with the classical comparison.

    Refuses a ``cutoff`` below ``growth_cutoff(max(L), h_body)``: the counts would miss regions.
    """
    l_max = max(l_grid)
    required = growth_cutoff(l_max, h_body)
    if cutoff < required:
        raise InsufficientCutoffError(
            f"cutoff {cutoff:.6g} insufficient for L_max={l_max:.4g}; "
            f"need body(a h) cutoff >= {required:.6g}"
        )
    logs = [(math.log(r.lam.norm()), math.log(r.body)) for r in regions]
    out = []
    for L in l_grid:
        n_super = sum(1 for log_norm, _ in logs if log_norm < L)
        n_body = sum(1 for _, log_body in logs if log_body < L)
        out.append(
            {
                "L": L,
                "N_super": n_super,
                "N_body": n_body,
                "N_super_over_L2": n_super / L / L if L > 0 else float("nan"),
            }
        )
    return out
