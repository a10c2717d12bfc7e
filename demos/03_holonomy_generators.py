"""Holonomy generators in OSp(1|2) from the fundamental-domain lifts.

The four vertices of the fundamental quadrilateral lift to the super
light cone; pairings of the lifts reproduce the six edge lambda-lengths.
The two holonomy generators are pinned by where their adjoint action
sends the lifts, and their supertraces encode the geodesic lengths.
"""

from superflip.grassmann import GrassmannNumber as G
from superflip import osp12 as O
from superflip import torus as T

N = 2
sc = lambda v: G.scalar(N, v)
b1, b2 = G.generator(N, 1), G.generator(N, 2)

state = T.DecoratedTorusState(sc(1.2), sc(0.9), sc(1.1), b1 * 0.15, b2 * 0.1)
A, B, C, D = O.lift_fundamental_domain(state)

print("-- light-cone lifts")
for name, v in zip("ABCD", (A, B, C, D)):
    print(f"<{name},{name}> =", O.inner(v, v), " (isotropic)")
print("lambda(A,C) =", O.lambda_length(A, C), " vs c =", state.c)
print("lambda(A,B) =", O.lambda_length(A, B), " vs a =", state.a)

print("\n-- generators from the mapping contract")
pair = O.build_generators(state)
print("Ad(g_a): B -> A residual", O.adjoint(pair.g_a, B).dist(A))
print("Ad(g_a): C -> D residual", O.adjoint(pair.g_a, C).dist(D))
print("Ad(g_b): A -> D residual", O.adjoint(pair.g_b, A).dist(D))
print("Ad(g_b): B -> C residual", O.adjoint(pair.g_b, B).dist(C))
print("is_osp(g_a):", O.is_osp(pair.g_a), " Berezinian:", O.berezinian(pair.g_a))

print("\n-- supertrace knows the geodesic length")
str_a = O.supertrace(pair.g_a)
print("str(g_a) + 1      =", str_a + 1)
print("r_a + 1/r_a       =", pair.r_a + pair.r_a.inverse())
ell = O.length_from_r(pair.r_a)
print("super length      =", ell)
print("2 cosh(l/2)       =", O.two_cosh_half_length(ell))

print("\n-- eigenvectors of g_a")
v_plus, v_minus, v_zero, residuals = O.eigenvectors(pair.g_a, state)
print("residuals (r, 1/r, 1):", residuals)

print("\n-- geodesics on the super hyperboloid")
x = O.geodesic_point(A, B, 0.8)
print("<x,x> at t=0.8:", O.inner(x, x))
