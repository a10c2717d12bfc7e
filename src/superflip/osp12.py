"""Graded 3x3 matrices for OSp(1|2) and super Minkowski space R^{2,1|2}.

A group element is a 3x3 matrix over the Grassmann algebra whose entries
follow the block parity pattern

    ( even even | odd )
    ( even even | odd )
    ( ----------+---- )
    ( odd  odd  | even)

The graded product carries a minus sign on every odd*odd entry pairing
(``smul``).  The supertranspose here is the one that satisfies the
defining relation ``g^st = J g^{-1} J^{-1}`` together with
``(gh)^st = h^st g^st``; conjugating it by J^2 = diag(-1,-1,1) flips the
sign convention of the odd blocks, and that twisted transpose is what
enters the adjoint action on super Minkowski vectors.  The adjoint
preserves the vector form and the inner product

    <u, u'> = (x1 x2' + x1' x2)/2 - y y' + phi theta' + phi' theta.

Light-cone lifts of the fundamental-domain vertices, the holonomy
generators and the supertrace/length dictionary live here; r comes from
``torus.eigen_r``.  The generators are two explicit matrices in a, b, c,
their inverses, sigma, theta and W = sigma*theta (three inverses, no square
root), written once for the frame whose slot c holds the edge whose sign
differs from the other two, times J^2 on the right in classes 1-3.  Their
adjoint maps {B, C} -> {A, D} and {A, B} -> {D, C} (D's odd parts negated
under J^2); every residual is taken on the matrices returned, and
``GeneratorPair.failures`` alone decides which ones miss their bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .grassmann import DomainError, GrassmannNumber, worst
from .torus import DecoratedTorusState, eigen_r, semi_perimeter

__all__ = [
    "SuperMatrix",
    "MinkowskiSuperVector",
    "GeneratorPair",
    "ParityError",
    "smul",
    "supertranspose",
    "supertrace",
    "berezinian",
    "matrix_J",
    "matrix_J2",
    "adjoint",
    "lift_fundamental_domain",
    "build_generators",
    "MAPPING_TOL",
    "RELATION_TOL",
    "length_from_r",
]

# slots whose entries are odd (0-based row, col)
_ODD_SLOTS = frozenset({(0, 2), (1, 2), (2, 0), (2, 1)})


class ParityError(TypeError):
    """Matrix or vector entry violates its required parity."""


class SuperMatrix:
    """3x3 matrix over the Grassmann algebra with the OSp parity pattern.

    The pattern is not checked here: the graded product keeps it exactly,
    and it is checked where a matrix meets a vector (``_vector_from_matrix``).
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[GrassmannNumber]]):
        rows = [list(r) for r in rows]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("SuperMatrix needs a 3x3 array of entries")
        self.n = rows[0][0].n
        self.rows = rows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def norm(self) -> float:
        return sum(self.rows[i][j].norm() for i in range(3) for j in range(3))

    def sub(self, other: "SuperMatrix") -> "SuperMatrix":
        return SuperMatrix([[self.rows[i][j] - other.rows[i][j] for j in range(3)] for i in range(3)])

    def to_obj(self) -> list:
        return [[e.to_obj() for e in row] for row in self.rows]

    def __repr__(self):
        return "SuperMatrix([\n" + "\n".join(
            "  [" + ", ".join(repr(e) for e in row) + "]," for row in self.rows
        ) + "\n])"


def matrix_J(n: int) -> SuperMatrix:
    one, zero = GrassmannNumber.one(n), GrassmannNumber.zero(n)
    return SuperMatrix([[zero, one, zero], [-one, zero, zero], [zero, zero, one]])


def matrix_J2(n: int) -> SuperMatrix:
    one, zero = GrassmannNumber.one(n), GrassmannNumber.zero(n)
    return SuperMatrix([[-one, zero, zero], [zero, -one, zero], [zero, zero, one]])


def smul(g: SuperMatrix, h: SuperMatrix) -> SuperMatrix:
    """Graded product: odd*odd entry pairings carry an extra minus sign."""
    if g.n != h.n:
        raise ParityError("mixed generator counts")
    zero = GrassmannNumber.zero(g.n)
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = zero
            for k in range(3):
                t = g.rows[i][k] * h.rows[k][j]
                if (i, k) in _ODD_SLOTS and (k, j) in _ODD_SLOTS:
                    t = -t
                acc = acc + t
            row.append(acc)
        out.append(row)
    return SuperMatrix(out)


def _smul_chain(*ms: SuperMatrix) -> SuperMatrix:
    acc = ms[0]
    for m in ms[1:]:
        acc = smul(acc, m)
    return acc


def supertranspose(g: SuperMatrix) -> SuperMatrix:
    """The transpose satisfying g^st = J g^-1 J^-1 and (gh)^st = h^st g^st."""
    (a, b, al), (c, d, be), (ga, de, f) = g.rows
    return SuperMatrix([[a, c, -ga], [b, d, -de], [al, be, f]])


def _adjoint_transpose(g: SuperMatrix) -> SuperMatrix:
    # J^2-conjugate of the supertranspose; this is the form entering the
    # adjoint action on super Minkowski vectors.
    (a, b, al), (c, d, be), (ga, de, f) = g.rows
    return SuperMatrix([[a, c, ga], [b, d, de], [-al, -be, f]])


def _osp_residual(g: SuperMatrix) -> float:
    """Norm of g^st J g - J, the defect in the defining group relation."""
    J = matrix_J(g.n)
    return _smul_chain(supertranspose(g), J, g).sub(J).norm()


# residual bounds of a generator pair: the adjoint mapping contract, and
# the OSp, Berezinian and supertrace relations
MAPPING_TOL = 1e-9
RELATION_TOL = 1e-10


def supertrace(g: SuperMatrix) -> GrassmannNumber:
    """str(g) = g11 + g22 - g33, so that diag(r, 1/r, 1) gives str + 1 = r + 1/r."""
    return g.rows[0][0] + g.rows[1][1] - g.rows[2][2]


def berezinian(g: SuperMatrix) -> GrassmannNumber:
    """f^-1 det[(a b; c d) + f^-1 (al*ga al*de; be*ga be*de)]."""
    (a, b, al), (c, d, be), (ga, de, f) = g.rows
    if f.body == 0.0:
        raise DomainError("Berezinian needs invertible lower-right entry")
    fi = f.inverse()
    m11 = a + fi * al * ga
    m12 = b + fi * al * de
    m21 = c + fi * be * ga
    m22 = d + fi * be * de
    return fi * (m11 * m22 - m12 * m21)


# ----------------------------------------------------------------------
# super Minkowski vectors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MinkowskiSuperVector:
    """Vector (x1, x2, y | phi, theta) with even body part and odd spinor part."""

    x1: GrassmannNumber
    x2: GrassmannNumber
    y: GrassmannNumber
    phi: GrassmannNumber
    theta: GrassmannNumber

    def __post_init__(self):
        for name in ("x1", "x2", "y"):
            if not getattr(self, name).is_even():
                raise ParityError(f"component {name} must be even")
        for name in ("phi", "theta"):
            if not getattr(self, name).is_odd():
                raise ParityError(f"component {name} must be odd")

    @property
    def n(self) -> int:
        return self.x1.n

    def components(self) -> tuple[GrassmannNumber, ...]:
        return (self.x1, self.x2, self.y, self.phi, self.theta)

    def dist(self, other: "MinkowskiSuperVector") -> float:
        return worst((p - q).norm() for p, q in zip(self.components(), other.components()))


def _matrix_form(u: MinkowskiSuperVector) -> SuperMatrix:
    zero = GrassmannNumber.zero(u.n)
    return SuperMatrix([[u.x1, u.y, u.phi], [u.y, u.x2, u.theta], [-u.phi, -u.theta, zero]])


def _vector_from_matrix(m: SuperMatrix, scale: float) -> MinkowskiSuperVector:
    tol = 1e-9 * max(1.0, scale)
    sym = (m.rows[1][0] - m.rows[0][1]).norm()
    r1 = (m.rows[2][0] + m.rows[0][2]).norm()
    r2 = (m.rows[2][1] + m.rows[1][2]).norm()
    r3 = m.rows[2][2].norm()
    if not worst((sym, r1, r2, r3)) <= tol:
        raise ParityError(
            "adjoint image is not a super Minkowski vector (non-OSp input?)"
        )
    return MinkowskiSuperVector(
        m.rows[0][0], m.rows[1][1], m.rows[0][1], m.rows[0][2], m.rows[1][2]
    )


def adjoint(g: SuperMatrix, u: MinkowskiSuperVector) -> MinkowskiSuperVector:
    """Adjoint action on vectors; preserves the inner product for OSp g.

    Composition is contravariant: adjoint(smul(g, h)) acts as g first,
    then h.
    """
    m = _smul_chain(_adjoint_transpose(g), _matrix_form(u), g)
    return _vector_from_matrix(m, m.norm())


# ----------------------------------------------------------------------
# fundamental-domain lifts
# ----------------------------------------------------------------------
def lift_fundamental_domain(state: DecoratedTorusState) -> tuple[MinkowskiSuperVector, ...]:
    """Normalized light-cone lifts (A, B, C, D) of the quadrilateral vertices.

    Pairings reproduce the six edge lambda-lengths: <A,B> = <C,D> = a^2,
    <B,C> = <A,D> = b^2, <A,C> = c^2 and <B,D> = f^2 for the flipped
    diagonal f.  A component that overflows float64 raises DomainError.
    """
    a, b, c = state.a, state.b, state.c
    si, th = state.sigma, state.theta
    zero = GrassmannNumber.zero(a.n)
    s2 = math.sqrt(2.0)
    u = a * c / b * s2
    s = b * c / a * s2
    t = a * b / c * s2
    x1 = b * b * b / (c * a) * s2
    x2 = a * a * a / (c * b) * s2
    lam = -(a * a / c) * si * s2
    rho = (b * b / c) * si * s2
    A = MinkowskiSuperVector(zero, u, zero, zero, zero)
    B = MinkowskiSuperVector(t, t, t, t * th, t * th)
    C = MinkowskiSuperVector(s, zero, zero, zero, zero)
    D = MinkowskiSuperVector(x1, x2, -t, rho, lam)
    for name, v in zip("ABCD", (A, B, C, D)):
        if not math.isfinite(sum(x.norm() for x in v.components())):
            raise DomainError(f"lift {name} has a non-finite component (float64 overflow)")
    return A, B, C, D


@dataclass
class GeneratorPair:
    """Holonomy generators, eigendata and residuals; ``frame`` names the state's slots in frame (a, b, c)."""

    g_a: SuperMatrix
    g_b: SuperMatrix
    r_a: GrassmannNumber
    r_b: GrassmannNumber
    residuals: dict = field(default_factory=dict)
    frame: str = "abc"

    def failures(self) -> dict:
        """Residuals over their bound, NaN too: MAPPING_TOL for ``*_mapping``, else RELATION_TOL."""
        return {
            name: value
            for name, value in self.residuals.items()
            if not value <= (MAPPING_TOL if name.endswith("_mapping") else RELATION_TOL)
        }


def _mapping_residual(g: SuperMatrix, pairs) -> float:
    """Largest distance of Ad(g) src from dst over the (src, dst) lift pairs; NaN if an image is no vector."""
    try:
        return worst(adjoint(g, src).dist(dst) for src, dst in pairs)
    except ParityError:
        return math.nan


# the state's slots in frame (a, b, c), by spin class: the edge whose sign differs
# from the other two sits in c; class 3 (the half-turn of (1, 1, -1)) swaps sigma, theta
_FRAMES = ("abc", "cab", "bca", "abc")


def build_generators(state: DecoratedTorusState) -> GeneratorPair:
    """Generators g_a, g_b in the frame of the spin class (``_FRAMES``), checked as returned.

    Returned: the class-0 matrices g of the frame's (a, b, c | sigma, theta)
    in class 0, g J^2 in classes 1-3.  Contract (the ground truth, checked
    on the returned matrices and the frame's lifts): Ad(g_a) carries B -> A
    and C -> D, Ad(g_b) A -> D and B -> C, D reading D-bar (odd parts
    negated) in classes 1-3; with the class's own h, str + 1 = +(r + 1/r)
    in class 0 and -(r + 1/r) in classes 1-3, r + 1/r = e h - W_e for the
    frame's slot e.  A non-finite entry or lift raises DomainError.  Every
    residual is reported (NaN for a mapping image that is not a vector), and
    ``GeneratorPair.failures`` alone holds each residual to its bound.
    """
    # g_a = S(q_a, beta_a) K(C.x1) and g_b = J S(1, -theta) K(A.x2), multiplied
    # out.  The carrier K(s) = [[sqrt(x1/s), -sqrt(x2/s), rho/sqrt(x1 s)],
    # [sqrt(s/x2), 0, 0], [-rho/sqrt(x1 x2), 0, 1]] moves s*(1,0,0|0,0) (the
    # lift C, or A through the vertex exchange J) to D = (x1, x2, . | rho, .);
    # the stabilizer S(q, beta) = [[1, 0, 0], [q, 1, beta], [beta, 0, 1]] of
    # that ray moves the image of B onto A, with q_a = -1 - c^2/a^2 - (c/a) W
    # and beta_a = (c/a) sigma - theta.  Each ratio under a square root is a
    # perfect square (x1/s = b^2/c^2 for s = C.x1), so no root survives.
    spin_class = state.spin_class()
    a, b, c = (getattr(state, e) for e in _FRAMES[spin_class])
    si, th = (state.theta, state.sigma) if spin_class == 3 else (state.sigma, state.theta)
    ai, bi, ci = a.inverse(), b.inverse(), c.inverse()
    W, one = si * th, GrassmannNumber.one(a.n)
    a_c, b_c = a * ci, b * ci
    a2_bc = a * a * bi * ci
    b2_ac = b * b * ai * ci
    g_a = SuperMatrix([
        [b_c, -a2_bc, a_c * si],
        [-b_c, a2_bc + c * bi + a * bi * W, -(a_c * si) - th],
        [-(b_c * th), a2_bc * th - a * bi * si, one - a_c * W],
    ])
    g_b = SuperMatrix([
        [b2_ac + c * ai + b * ai * W, -a_c, b_c * si - th],
        [-b2_ac, a_c, -(b_c * si)],
        [-(b2_ac * th) - b * ai * si, a_c * th, one - b_c * W],
    ])
    for name, g in (("g_a", g_a), ("g_b", g_b)):
        if not math.isfinite(g.norm()):
            raise DomainError(f"{name} has a non-finite entry (float64 overflow)")

    A, B, C, D = lift_fundamental_domain(DecoratedTorusState(a, b, c, si, th))
    sign = 1.0
    if spin_class:  # J^2 on the right negates the odd parts of every adjoint image
        g_a, g_b, sign = smul(g_a, matrix_J2(a.n)), smul(g_b, matrix_J2(a.n)), -1.0
        D = MinkowskiSuperVector(D.x1, D.x2, D.y, -D.phi, -D.theta)

    # eigendata from the flip-invariant combination r + 1/r = e*h - W_e; W_a = W_b = W in the frame
    h = semi_perimeter(state)
    r_a, r_b = eigen_r(a, h, W), eigen_r(b, h, W)

    residuals = {
        "g_a_mapping": _mapping_residual(g_a, ((B, A), (C, D))),
        "g_b_mapping": _mapping_residual(g_b, ((A, D), (B, C))),
        "g_a_osp": _osp_residual(g_a),
        "g_b_osp": _osp_residual(g_b),
        "g_a_berezinian": (berezinian(g_a) - 1).norm(),
        "g_b_berezinian": (berezinian(g_b) - 1).norm(),
        "g_a_supertrace": (supertrace(g_a) + 1 - (r_a + r_a.inverse()) * sign).norm(),
        "g_b_supertrace": (supertrace(g_b) + 1 - (r_b + r_b.inverse()) * sign).norm(),
    }
    return GeneratorPair(g_a=g_a, g_b=g_b, r_a=r_a, r_b=r_b, residuals=residuals, frame=_FRAMES[spin_class])


# ----------------------------------------------------------------------
# lengths
# ----------------------------------------------------------------------
def length_from_r(r: GrassmannNumber) -> GrassmannNumber:
    """Geodesic length 2*log r; round-trips 2 cosh(l/2) = r + 1/r."""
    if r.body <= 1.0:
        raise DomainError("length needs r with body > 1")
    return r.log() * 2.0
