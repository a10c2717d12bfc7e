"""Super Teichmueller theory of the once-punctured torus, numerically.

Layers, bottom to top; each imports only from the layers above it in this list:

- ``grassmann``: exact arithmetic and analytic calculus in a finite real
  Grassmann algebra.
- ``torus``: decorated coordinates (three lambda-lengths, two odd
  mu-invariants, a spin class), super Ptolemy flips, Dehn twists, the
  flip-invariant semi-perimeter, the eigenvalue r with r + 1/r = a h - W_a
  and the three-term twist recursion.
- ``osp12``: graded 3x3 matrices for OSp(1|2), super Minkowski vectors
  and the adjoint action, light-cone lifts of the fundamental domain,
  holonomy generators with their residuals and the supertrace-length
  dictionary.
- ``markoff``: the dual trivalent tree, super Markoff maps, sink search,
  the classical body-triple walk, bounded-region enumeration with pruning
  and the region table.
- ``identity``: summands and truncated sums for the super McShane
  identity, the convergence verdict and spectrum diagnostics.
- ``cli``: the ``superflip`` command.

Each module's ``__all__`` is its public surface.  The relations that only
the tests check (vertex, edge and psi relations, subtree sums, the region
builder by the Ptolemy quotient, eigenvectors, geodesics) live beside the
tests.
"""

from .grassmann import GrassmannNumber

__all__ = ["GrassmannNumber"]
__version__ = "0.1.0"
