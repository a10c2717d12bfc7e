"""The dual tree of triangulations: sink, orientation, enumeration.

Regions of the tree are simple closed curves indexed by Stern-Brocot
slopes.  Comparing bodies orients every edge toward a unique sink; the
bounded-trace sets Omega(m) are finite, connected, and enumerable with
sound pruning.  On the square punctured torus the region bodies are
exactly the Markoff numbers.
"""

from superflip.grassmann import GrassmannNumber as G
from superflip import markoff as M
from superflip import torus as T

N = 2
sc = lambda v: G.scalar(N, v)
b1, b2 = G.generator(N, 1), G.generator(N, 2)

state = T.DecoratedTorusState(sc(1), sc(1), sc(1), b1 * 0.1, b2 * 0.1)

print("-- walk home: the sink from a twisted start")
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
