"""The dual tree of triangulations: sink, orientation, enumeration.

Regions of the tree are simple closed curves indexed by Stern-Brocot
slopes.  Comparing bodies orients every edge toward a unique sink; the
bounded-trace sets Omega(m) are finite, connected, and enumerable with
sound pruning.  On the square punctured torus the region bodies are
exactly the Markoff numbers.
"""

import random

from superflip.grassmann import GrassmannNumber as G
from superflip import markoff as M
from superflip import torus as T

N = 2
sc = lambda v: G.scalar(N, v)
b1, b2 = G.generator(N, 1), G.generator(N, 2)

state = T.DecoratedTorusState(sc(1), sc(1), sc(1), b1 * 0.1, b2 * 0.1)

print("-- relations at the root vertex")
print("vertex residual:", M.vertex_residual(state).norm())
h = T.semi_perimeter(state)
tri = M._root_triple(state)
total = G.zero(N)
for d in range(3):
    j, k = [x for x in range(3) if x != d]
    total = total + M.psi(tri[j].lam, tri[k].lam, tri[d].lam, tri[j].w, tri[k].w, h)
print("psi-sum at the vertex:", total, " (equals 1)")

print("\n-- boundary sums of finite subtrees are exactly 1")
for shape in ({()}, {(), (0,)}, {(), (0,), (1,), (0, 1)}):
    print(f"  subtree {sorted(shape)}: sum = {M.subtree_sum(state, shape)}")

print("\n-- walk home: the sink from a twisted start")
rng = random.Random(4)
start = T.dehn_twist(state, "a", power=5)
print("start bodies:", [round(x.body, 3) for x in start.lambdas()])
sink = M.find_sink(start)
print(f"sink reached in {sink.steps} steps; bodies:",
      [round(r.body, 6) for r in sink.regions])

print("\n-- enumerate the curves with body(lambda h) below a cutoff, from the sink")
home = M.find_sink(state)  # the square torus is its own sink: zero steps
regions = M.enumerate_regions(home, 15 * 3.0)
print(f"{len(regions)} regions below 45:")
for r in regions:
    print(f"  slope {r.slope[0]:>2}/{r.slope[1]}  address {r.address or '(root)':6}"
          f"  body {r.body:g}  W = {r.w}")

print("\n-- the classical bodies are Markoff numbers")
big = M.enumerate_regions(home, 200 * 3.0)
print(sorted({round(r.body) for r in big}))

print("\n-- neighbor growth around a region stays controlled")
rep = M.neighbor_asymptotics_report(state, "a", 10)
print("R =", rep["R"])
for row in rep["rows"][::5]:
    print(f"  i={row['i']:+3d}  b-ratio {row['b_ratio_k1']:.3e}  c-ratio {row['c_ratio_k1']:.3e}")
