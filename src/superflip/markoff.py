"""The dual trivalent tree of triangulations and super Markoff maps.

Vertices of the tree are ideal triangulations of the torus; crossing an
edge flips one arc.  Complementary regions of the tree correspond to
simple closed curves, each carrying the super lambda-length of its dual
arc and a W-invariant; a super Markoff map is this assignment.  At every
vertex with regions (a, b, c) the vertex relation

    a^2 + b^2 + c^2 + a b W_c + a c W_b + b c W_a = h a b c

holds, and across every edge (regions a, d at the ends, b, c flanking)

    a + d + b W_c + c W_b = h b c.

Region identities are Stern-Brocot slopes p/q (the slope of the dual
simple closed curve): the three regions at the sink carry (0,1), (1,0)
and (1,1), and each new region is the mediant of the two flanking it.
The address of a region is the L/R word of its slope in the
Stern-Brocot tree ("L0"/"R0" for the two boundary slopes); a new
region's word is the word of its deeper flanking region plus one letter.

W is nilpotent, so bodies follow the classical Markoff recursion exactly
(``torus.ptolemy`` on floats with W = 0).  Walking body-decreasing flips
from any start vertex reaches the unique sink.  Enumeration of
Omega(m) = {regions with body(lambda h) <= m} expands from the sink and
prunes a branch on the float body of its new region, before building it;
bodies strictly increase away from the sink, so the pruned search is
exhaustive.

A new region's lambda is built outward by the edge relation and toward the
sink by ``torus.flip``.  Outward d = h b c - a - b W_c - c W_b takes four
products and no inverse, and since d >= a there and h b c = a + d + O(W), the
subtraction loses at most a factor of about 2.  Toward the sink d < a and it
would cancel, so ``find_sink`` takes ``torus.flip``, which divides by a (Ptolemy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .grassmann import DomainError, GrassmannNumber
from .torus import DecoratedTorusState, flip, ptolemy, semi_perimeter, w_invariants

__all__ = [
    "RegionNode",
    "TreeVertexState",
    "NonConvergenceError",
    "find_sink",
    "enumerate_regions",
    "markoff_triples",
    "region_table_rows",
    "region_sidecar",
    "FIND_SINK_STEP_BUDGET",
    "MARKOFF_RESIDUAL_TOL",
]

FIND_SINK_STEP_BUDGET = 10**6
MARKOFF_RESIDUAL_TOL = 1e-12  # bound on the relative vertex residual of a triple (markoff_triples)


class NonConvergenceError(RuntimeError):
    """The sink walk exceeded its step budget: a thin torus walks its twist runs one flip at a time."""


@dataclass(frozen=True)
class RegionNode:
    """One complementary region: a simple closed curve with its super data."""

    address: str
    slope: tuple[int, int]
    lam: GrassmannNumber
    w: GrassmannNumber
    neighbors: tuple[GrassmannNumber, GrassmannNumber]

    @property
    def body(self) -> float:
        return self.lam.body

    def sort_key(self):
        return (self.lam.body, self.address)


@dataclass(frozen=True)
class TreeVertexState:
    """A tree vertex: the torus state there plus its three region identities."""

    state: DecoratedTorusState
    regions: tuple[RegionNode, RegionNode, RegionNode]
    h: GrassmannNumber
    steps: int = 0


def _slope_normalize(p: int, q: int) -> tuple[int, int]:
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def _slope_child(
    kept1: tuple[int, int], kept2: tuple[int, int], old: tuple[int, int]
) -> tuple[int, int]:
    """Slope of the region replacing ``old`` across the edge flanked by the kept two.

    The two curves completing a pair of once-intersecting curves are the
    mediant and the co-mediant of their slopes; the flip exchanges them.
    """
    med = _slope_normalize(kept1[0] + kept2[0], kept1[1] + kept2[1])
    if med != old:
        return med
    return _slope_normalize(kept1[0] - kept2[0], kept1[1] - kept2[1])


_ROOT_ADDRESS = {(0, 1): "L0", (1, 0): "R0", (1, 1): ""}


def _child_address(slope: tuple[int, int], kept1: RegionNode, kept2: RegionNode) -> str:
    """L/R word of ``slope`` in the (sign-extended) Stern-Brocot tree.

    Positive slopes get their usual word from the root 1/1; negative
    slopes mirror the positive tree under an N prefix.  ``slope`` is the
    mediant of the two flanking regions, so its Stern-Brocot parent is
    the one with the larger |p| + q, and the word is the parent's word
    plus L or R.  Between the boundary slopes 0/1 and 1/0 lie 1/1 ("")
    and -1/1 ("N").
    """
    p, q = slope
    parent = max(kept1, kept2, key=lambda r: abs(r.slope[0]) + r.slope[1])
    if parent.slope in ((0, 1), (1, 0)):
        return "" if p > 0 else "N"
    pp, pq = parent.slope
    word = parent.address + ("L" if abs(p) * pq < q * abs(pp) else "R")
    if len(word) - (p < 0) > 4096:
        raise DomainError(f"slope {slope} has a Stern-Brocot address over 4096 letters")
    return word


# ----------------------------------------------------------------------
# tree walking in (lambda, W) form
# ----------------------------------------------------------------------
def _flip_entry(triple: Sequence[RegionNode], i: int, h: GrassmannNumber) -> RegionNode:
    """Region replacing entry i, built outward by the edge relation; toward the sink ``torus.flip`` builds it."""
    a, b, c = triple[i], *[triple[x] for x in range(3) if x != i]
    slope = _slope_child(b.slope, c.slope, a.slope)
    return RegionNode(
        address=_child_address(slope, b, c),
        slope=slope,
        lam=h * (b.lam * c.lam) - a.lam - b.lam * c.w - c.lam * b.w,  # h (b c): body symmetric in b, c
        w=a.w,
        neighbors=(b.lam, c.lam),
    )


def _child_bodies(bodies: Sequence[float], parent: int | None):
    """(i, float body of the region replacing entry i) for each i but ``parent``: ``torus.ptolemy``, W = 0.

    Where x^2 + y^2 overflows, the quotient is recomputed as x (x/z) + y (y/z).
    """
    for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        if i != parent:
            x, y, z = bodies[j], bodies[k], bodies[i]
            body = ptolemy(x, y, 0.0, z)
            yield i, body if math.isfinite(body) else x * (x / z) + y * (y / z)


def _root_triple(state: DecoratedTorusState) -> tuple[RegionNode, RegionNode, RegionNode]:
    """Regions at the state's vertex, slopes (0,1), (1,0), (1,1) by ascending body."""
    lams = state.lambdas()
    ws = w_invariants(state)
    order = sorted(range(3), key=lambda i: (lams[i].body, i))
    slope = dict(zip(order, [(0, 1), (1, 0), (1, 1)]))
    return tuple(
        RegionNode(
            address=_ROOT_ADDRESS[slope[i]],
            slope=slope[i],
            lam=lams[i],
            w=ws[i],
            neighbors=(lams[(i + 1) % 3], lams[(i + 2) % 3]),
        )
        for i in range(3)
    )


def find_sink(start: DecoratedTorusState) -> TreeVertexState:
    """Walk body-decreasing flips until no strict decrease remains.

    Flexible directions (equal bodies) are never crossed, so the walk
    cannot oscillate; the terminal vertex has every edge incoming or
    flexible.  A walk longer than FIND_SINK_STEP_BUDGET steps raises
    NonConvergenceError.
    """
    cur = start
    steps = 0
    while True:
        b = [x.body for x in cur.lambdas()]
        best = None
        for i, body in _child_bodies(b, None):
            if body < b[i] and (best is None or body < best[0]):
                best = (body, i)
        if best is None:
            break
        cur = flip(cur, "abc"[best[1]])
        steps += 1
        if steps > FIND_SINK_STEP_BUDGET:
            raise NonConvergenceError(
                f"sink not found within the step budget of {FIND_SINK_STEP_BUDGET} flips; "
                "a thin torus walks its twist runs one flip at a time"
            )
    return TreeVertexState(cur, _root_triple(cur), semi_perimeter(cur), steps)


def enumerate_regions(sink: TreeVertexState, cutoff: float) -> list[RegionNode]:
    """All regions with body(lambda h) <= cutoff, sorted by (body, address).

    The expansion runs from ``sink``, the result of ``find_sink``.  A
    cutoff that is not finite raises DomainError.
    """
    if not math.isfinite(cutoff):
        raise DomainError(f"region cutoff {cutoff!r} is not finite")
    h_body = sink.h.body
    regions = [r for r in sink.regions if r.body * h_body <= cutoff]
    # depth-first; every region is created at exactly one edge, so the
    # visiting order does not change what lands in regions.  The prune
    # walks float Ptolemy bodies alongside, so it decides as the float walk does.
    stack = [(sink.regions, tuple(r.body for r in sink.regions), None)]
    while stack:
        tri, bodies, parent = stack.pop()
        for i, body in _child_bodies(bodies, parent):
            if not body * h_body <= cutoff:  # a NaN body is pruned too
                continue
            node = _flip_entry(tri, i, sink.h)
            regions.append(node)
            stack.append((tri[:i] + (node,) + tri[i + 1:], bodies[:i] + (body,) + bodies[i + 1:], i))

    regions.sort(key=RegionNode.sort_key)
    return regions


def markoff_triples(sink: TreeVertexState, depth: int) -> list[tuple[int, tuple[float, ...], float]]:
    """Classical body triples within ``depth`` flips of the sink, breadth first.

    Returns (depth, triple, residual) ordered by (depth, triple): each
    distinct sorted triple (a, b, c) once, with the least depth at which it
    occurs and its relative vertex residual |a^2 + b^2 + c^2 - h a b c| / (h a b c)
    for h = body(sink.h), computed as |a/b/c + b/a/c + c/a/b - h| / h so that
    no square or product of bodies overflows.  Vertices at ``depth`` are not
    expanded.  A float child body that overflows raises DomainError naming its depth.
    """
    seen = {}
    level, d = [(tuple(r.body for r in sink.regions), None)], 0
    while level:
        nxt = []
        for tri, parent in level:
            seen.setdefault(tuple(sorted(tri)), d)
            if d >= depth:
                continue
            for i, body in _child_bodies(tri, parent):
                if not math.isfinite(body):
                    raise DomainError(f"the float Ptolemy step of a Markoff body overflows at depth {d + 1}")
                nxt.append((tri[:i] + (body,) + tri[i + 1:], i))
        level, d = nxt, d + 1
    h = sink.h.body
    return sorted((d, (a, b, c), abs(a / b / c + b / a / c + c / a / b - h) / h)
                  for (a, b, c), d in seen.items())


def region_table_rows(regions: Iterable[RegionNode], h: GrassmannNumber):
    """CSV-ready rows: address, slope, body, soul norm, body length."""
    rows = []
    for r in regions:
        x = r.lam.body * h.body
        body_len = 2.0 * math.acosh(x / 2.0) if x > 2.0 else float("nan")
        rows.append(
            {
                "address": r.address,
                "slope_p": r.slope[0],
                "slope_q": r.slope[1],
                "body_lambda": r.lam.body,
                "norm_soul": r.lam.soul().norm(),
                "body_length": body_len,
            }
        )
    return rows


def region_sidecar(regions: Iterable[RegionNode], h: GrassmannNumber) -> dict:
    """Full Grassmann values of a region list, for the JSON sidecar."""
    return {
        "h": h.to_obj(),
        "regions": [
            {
                "address": r.address,
                "slope": list(r.slope),
                "lambda": r.lam.to_obj(),
                "W": r.w.to_obj(),
                "neighbors": [r.neighbors[0].to_obj(), r.neighbors[1].to_obj()],
            }
            for r in regions
        ],
    }
