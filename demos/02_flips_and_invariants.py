"""Super Ptolemy flips on the decorated once-punctured torus.

A state carries three lambda-lengths, two odd mu-invariants and a spin
class.  Flipping the diagonal obeys c*f = a^2 + b^2 + a b W_c and rotates
the mu-pair; the semi-perimeter h and the edge invariants W_e of the
surviving edges never move.
"""

import random

from superflip.grassmann import GrassmannNumber as G
from superflip import torus as T

N = 2
sc = lambda v: G.scalar(N, v)
b1, b2 = G.generator(N, 1), G.generator(N, 2)

state = T.DecoratedTorusState(sc(1), sc(1), sc(1), b1 * 0.1, b2 * 0.1)
print("start:  lambdas =", [str(x) for x in state.lambdas()])
print("        mu      =", state.sigma, "|", state.theta)
print("        W       =", [str(w) for w in T.w_invariants(state)])
print("        h       =", T.semi_perimeter(state))

print("\n-- flip the diagonal")
flipped = T.flip(state, "c")
print("lambdas =", [str(x) for x in flipped.lambdas()])
print("mu      =", flipped.sigma, "|", flipped.theta)
print("h       =", T.semi_perimeter(flipped), " (unchanged)")

print("\n-- flipping twice returns the same point of moduli space")
back = T.flip(flipped, "c")
print("round trip equals start:", back.isclose(state, 1e-12))

print("\n-- h survives long random flip words")
cur, word = T.flip_word(state, 20, random.Random(1))
drift = T.h_drift(T.semi_perimeter(state), T.semi_perimeter(cur))
print(f"after the flip word {word}, |h - h0| / |h0| =", drift)
print("largest lambda body grew to", max(x.body for x in cur.lambdas()))

print("\n-- Dehn twists walk the classical Markoff tree")
classical = T.DecoratedTorusState(sc(1), sc(1), sc(2), G.zero(N), G.zero(N))
for k in range(4):
    tw = T.dehn_twist(classical, "a", power=k)
    bodies = sorted(round(x.body) for x in tw.lambdas())
    a, b, c = bodies
    print(f"twist^{k}: {bodies}   a^2+b^2+c^2 = {a*a+b*b+c*c} = 3abc = {3*a*b*c}")

print("\n-- the twist recursion has an exact closed form")
seq = T.twist_sequence(state, "a", 6)
for n in (2, 4, 6):
    closed = T.recursion_closed_form(state, "a", n)
    print(f"b_{n}: iterated flips {seq[n][0].body:.6f}, closed form {closed.body:.6f}, "
          f"difference {(closed - seq[n][0]).norm():.2e}")
