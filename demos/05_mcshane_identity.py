"""The super McShane identity, summed curve by curve.

Over all simple closed curves of a once-punctured super torus,

    sum ( 1/(e^l + 1) + (W/4) sinh(l/2)/cosh^2(l/2) ) = 1/2,

with l the super length and W the edge invariant of the dual arc.  The
truncated sums below show the deviation shrinking with the cutoff, in
every spin class, for the full Grassmann value and not just its body.
The growth of the length spectrum, a separate result, closes the demo.
"""

from superflip.grassmann import GrassmannNumber as G
from superflip import identity as I
from superflip import markoff as M
from superflip import osp12 as O
from superflip import torus as T

N = 2
sc = lambda v: G.scalar(N, v)
b1, b2 = G.generator(N, 1), G.generator(N, 2)


def state_for(cls):
    return T.DecoratedTorusState(
        sc(1), sc(1), sc(1), b1 * 0.1, b2 * 0.1, spin=T.spin_for_class(cls)
    )


print("-- the three shortest curves of the square punctured torus")
classical = T.DecoratedTorusState(sc(1), sc(1), sc(1), G.zero(N), G.zero(N))
rep = I.verify_identity(classical, cutoff_length=24.0)
for row in rep.rows[:3]:
    print(f"  slope {row['slope_p']}/{row['slope_q']}  length {row['body_length']:.6f}"
          f"  summand {row['summand_body']:.6f}")
print(f"sum of all {rep.region_count} summands: {rep.partial_sum}  "
      f"(deviation {rep.deviation_body:.2e})")

print("\n-- convergence with the cutoff (super state, spin class 0)")
st = state_for(0)
for L in (8.0, 12.0, 16.0, 20.0, 24.0):
    rep = I.verify_identity(st, cutoff_length=L)
    print(f"  cutoff length {L:4.0f}: {rep.region_count:4d} curves,  "
          f"||sum - 1/2|| = {rep.deviation_norm:.3e},  converged: {rep.converged}")

print("\n-- all four spin classes")
for cls in range(4):
    rep = I.verify_identity(state_for(cls), cutoff_length=24.0)
    print(f"  class {cls}: partial sum = {rep.partial_sum}")

print("\n-- both summand forms agree")
h = T.semi_perimeter(st)
lam = st.a
w = T.w_invariants(st)[0]
s_region = I.summand_region(lam, h, w)
ell = O.length_from_r(T.eigen_r(lam, h, w))  # super length 2 log r
s_geo = I.summand_geodesic(ell, w)
print("  region form:  ", s_region)
print("  length form:  ", s_geo)
print("  difference:   ", (s_region - s_geo).norm())

rep = I.verify_identity(st, cutoff_length=24.0)
print(f"\nbody-soul comparison constant (delta = {rep.body_soul_delta}): M = {rep.body_soul_M:.5f}")

print("\n-- growth of the length spectrum (the `superflip spectrum --sidecar` table)")
sink = M.find_sink(st)
l_max = 10.0
cutoff = I.growth_cutoff(l_max, sink.h.body)  # complete up to log||a|| = l_max
grid = [l_max * (i / 10) for i in range(1, 11)]
for row in I.growth_count(M.enumerate_regions(sink, cutoff), grid, cutoff, sink.h.body)[3::2]:
    print(f"  L = {row['L']:6.3f}:  N(L) = {row['N_super']:4d},  N(L)/L^2 = {row['N_super_over_L2']:.4f}")
