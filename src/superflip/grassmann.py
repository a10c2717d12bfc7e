"""Finite-dimensional Grassmann algebra with real coefficients.

An element of the algebra on generators ``b1, ..., bN`` is a finite sum
``x = sum_I x_I * b_I`` over strictly increasing multi-indices
``I = (i1 < ... < ik)``, with ``b_I = b_{i1} * ... * b_{ik}`` and real
coefficients.  Generators anticommute (``b_i b_j = -b_j b_i``) and square
to zero, so the soul (the non-scalar part) of any element is nilpotent.
That nilpotency makes the analytic calculus exact: inverse, square root
and the elementary transcendental functions are finite Taylor sums about
the body, not approximations.

Multi-indices are stored as bitmasks over the ``N`` generators, in
ascending mask order; the anticommutation sign of a basis product is the
parity of the merge of the two bitmasks.  Coefficients are 64-bit floats.
Exact zero coefficients are stripped (canonical form), but small ones are
never pruned: the algebra is exact-shape, tolerances belong to callers.

A product runs through a plan that depends only on the two operands'
masks: for each output mask, the disjoint coefficient pairs that land on
it, with their signs.  Plans are keyed by degree-filled shapes: an
operand's masks are padded to every mask of the degrees they hold, when
that at most doubles their count, and the padded coefficients are 0.0.
Random lambda-lengths bring new exact shapes with every state, but few
filled ones, so ``build_generators`` at N=6 builds a handful of plans per
call instead of about 140; a plan has at most 4·|a|·|b| terms.  Degrees,
not parities, because products stay sparse within a parity: at N=6 the
square of an even soul holds degrees 4 and 6 only, 16 of the 32 even
masks.  The factor-2 guard keeps a sparse operand at N=16 from listing
thousands of masks.  A padded term adds ±0.0 to a sum that starts at
+0.0, so every finite product keeps its bits and its masks.  A non-finite
coefficient is the exception: 0·inf is NaN, so a product with an infinite
coefficient can have NaN at masks the exact shapes leave out (norm NaN
where it was inf).  Either way the norm is not finite, and every verdict
fails closed on NaN.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator

__all__ = [
    "GrassmannNumber",
    "DimensionError",
    "NotInvertibleError",
    "DomainError",
    "allclose",
    "worst",
]

MAX_GENERATORS = 16
PLAN_CACHE_SIZE = 32


class DimensionError(ValueError):
    """Operands live in Grassmann algebras with different generator counts."""


class NotInvertibleError(ZeroDivisionError):
    """Element has zero body, hence no inverse."""


class DomainError(ValueError):
    """Body of the argument is outside the domain of the requested function."""


def _parity_above(a: int) -> int:
    """Mask whose bit j is the parity of the bits of ``a`` above j.

    The shifts by 1, 2, 4 and 8 cover masks of up to 16 bits
    (``MAX_GENERATORS``); more generators would need ``p ^= p >> 16``.
    """
    p = a >> 1
    p ^= p >> 1
    p ^= p >> 2
    p ^= p >> 4
    p ^= p >> 8
    return p


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _product_plan(n: int, keys_a: tuple[int, ...], keys_b: tuple[int, ...]):
    """``(pad_a, pad_b, plan)`` for the product of elements with masks keys_a and keys_b.

    pad_a is the filled shape of keys_a (``_filled``), or None if it adds no
    mask; likewise pad_b.  plan is the ``_mask_plan`` of the filled shapes.
    """
    fill_a, fill_b = _filled(n, keys_a), _filled(n, keys_b)
    return (
        None if fill_a is keys_a else fill_a,
        None if fill_b is keys_b else fill_b,
        _mask_plan(fill_a, fill_b),
    )


def _filled(n: int, keys: tuple[int, ...]) -> tuple[int, ...]:
    """Every mask of the degrees in keys, ascending, if at most twice as many as keys; else keys."""
    degrees = frozenset(map(int.bit_count, keys))
    count = sum(math.comb(n, k) for k in degrees)
    if count == len(keys) or count > 2 * len(keys):
        return keys
    return _degree_masks(n, degrees)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _degree_masks(n: int, degrees: frozenset[int]) -> tuple[int, ...]:
    """Every mask on n generators whose degree is in degrees, ascending."""
    return tuple(sorted(
        sum(1 << i for i in bits) for k in degrees for bits in itertools.combinations(range(n), k)
    ))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _mask_plan(keys_a: tuple[int, ...], keys_b: tuple[int, ...]):
    """Sparse plan of the product of elements with masks keys_a and keys_b.

    For each output mask, ascending, the terms ``(i, j, sign)`` of the
    disjoint pairs (keys_a[i], keys_b[j]) that land on it, in ascending i.
    The sign of b_A * b_B is (-1) to the number of pairs (p in A, q in B)
    with p > q.
    """
    terms: dict[int, list[tuple[int, int, float]]] = {}
    for i, ma in enumerate(keys_a):
        above = _parity_above(ma)
        for j, mb in enumerate(keys_b):
            if not ma & mb:
                sign = -1.0 if (above & mb).bit_count() & 1 else 1.0
                terms.setdefault(ma | mb, []).append((i, j, sign))
    return tuple((m, tuple(terms[m])) for m in sorted(terms))


def _mask_from_indices(indices: Iterable[int], n: int) -> int:
    mask = 0
    prev = 0
    for i in indices:
        if not isinstance(i, int) or i < 1 or i > n:
            raise ValueError(f"generator label {i!r} outside 1..{n}")
        if i <= prev:
            raise ValueError("multi-index must be strictly increasing")
        prev = i
        mask |= 1 << (i - 1)
    return mask


def _indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class GrassmannNumber:
    """Immutable element of the real Grassmann algebra on ``n`` generators."""

    __slots__ = ("n", "_c")

    def __init__(self, n: int, coeffs: dict[int, float] | None = None):
        if not isinstance(n, int) or n < 0 or n > MAX_GENERATORS:
            raise ValueError(f"generator count must lie in 0..{MAX_GENERATORS}")
        self.n = n
        c: dict[int, float] = {}
        if coeffs:
            limit = 1 << n
            for mask in sorted(coeffs):
                if mask < 0 or mask >= limit:
                    raise ValueError(f"bitmask {mask} invalid for n={n}")
                fv = float(coeffs[mask])
                if fv != 0.0:
                    c[mask] = fv
        self._c = c

    @classmethod
    def _make(cls, n: int, c: dict[int, float]) -> "GrassmannNumber":
        """Element from checked float coefficients in ascending mask order.

        Only exact zeros are dropped; masks and values are not checked again.
        """
        if 0.0 in c.values():
            c = {m: v for m, v in c.items() if v != 0.0}
        x = object.__new__(cls)
        x.n = n
        x._c = c
        return x

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "GrassmannNumber":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "GrassmannNumber":
        return cls(n, {0: 1.0})

    @classmethod
    def scalar(cls, n: int, value: float) -> "GrassmannNumber":
        return cls(n, {0: float(value)})

    @classmethod
    def generator(cls, n: int, i: int) -> "GrassmannNumber":
        """The generator ``b_i``, labels 1-based."""
        if i < 1 or i > n:
            raise ValueError(f"generator label {i} outside 1..{n}")
        return cls(n, {1 << (i - 1): 1.0})

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[Iterable[int], float]]) -> "GrassmannNumber":
        c: dict[int, float] = {}
        for indices, v in terms:
            mask = _mask_from_indices(indices, n)
            c[mask] = c.get(mask, 0.0) + float(v)
        return cls(n, c)

    # ------------------------------------------------------------------
    # structure maps
    # ------------------------------------------------------------------
    @property
    def body(self) -> float:
        """Coefficient of the empty multi-index (the augmentation of x)."""
        return self._c.get(0, 0.0)

    def soul(self) -> "GrassmannNumber":
        """x minus its body; nilpotent of order at most n+1."""
        c = dict(self._c)
        c.pop(0, None)
        return GrassmannNumber._make(self.n, c)

    def degree_soul(self, k: int) -> "GrassmannNumber":
        """Homogeneous degree-k part; degree 0 means body * 1."""
        if k < 0 or k > self.n:
            raise ValueError(f"degree {k} outside 0..{self.n}")
        return GrassmannNumber._make(
            self.n, {m: v for m, v in self._c.items() if m.bit_count() == k}
        )

    def norm(self) -> float:
        """Sum of absolute coefficient values (Banach algebra norm)."""
        return sum(abs(v) for v in self._c.values())

    def is_even(self) -> bool:
        return all(not (m.bit_count() & 1) for m in self._c)

    def is_odd(self) -> bool:
        return all(m.bit_count() & 1 for m in self._c)

    def is_zero(self) -> bool:
        return not self._c

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "GrassmannNumber | None":
        if isinstance(other, GrassmannNumber):
            if other.n != self.n:
                raise DimensionError(
                    f"mixed generator counts: {self.n} vs {other.n}"
                )
            return other
        if isinstance(other, (int, float)):
            return GrassmannNumber._make(self.n, {0: float(other)})
        return None

    def _merged(self, c: dict[int, float]) -> "GrassmannNumber":
        """Element from a sum's coefficients: self's masks in order, then new ones to sort in."""
        if len(c) > len(self._c):
            c = {m: c[m] for m in sorted(c)}
        return GrassmannNumber._make(self.n, c)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for m, v in o._c.items():
            c[m] = c.get(m, 0.0) + v
        return self._merged(c)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for m, v in o._c.items():
            c[m] = c.get(m, 0.0) - v
        return self._merged(c)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GrassmannNumber._make(self.n, {m: -v for m, v in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            f = float(other)
            return GrassmannNumber._make(self.n, {m: v * f for m, v in self._c.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        pad_a, pad_b, plan = _product_plan(self.n, tuple(a), tuple(b))
        av = tuple(a.values()) if pad_a is None else [a.get(m, 0.0) for m in pad_a]
        bv = tuple(b.values()) if pad_b is None else [b.get(m, 0.0) for m in pad_b]
        out: dict[int, float] = {}
        for m, terms in plan:
            acc = 0.0
            for i, j, sign in terms:
                acc += av[i] * bv[j] * sign
            out[m] = acc
        return GrassmannNumber._make(self.n, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self.inverse() * float(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        acc = GrassmannNumber.one(self.n)
        for _ in range(k):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, float)):
            other = GrassmannNumber.scalar(self.n, other)
        if not isinstance(other, GrassmannNumber):
            return NotImplemented
        return self.n == other.n and self._c == other._c

    def __hash__(self):
        return hash((self.n, tuple(self._c.items())))

    # ------------------------------------------------------------------
    # analytic calculus (exact: soul is nilpotent)
    # ------------------------------------------------------------------
    def _soul_powers(self, scale: float) -> list["GrassmannNumber"]:
        """1, t, t^2, ... for t = scale soul, up to the last power that is not zero (at most t^n)."""
        step = self.soul() * scale
        powers, power = [GrassmannNumber._make(self.n, {0: 1.0})], step
        while not power.is_zero():
            powers.append(power)
            power = power * step
        return powers

    def _series(self, jet: list[float], scale: float = 1.0) -> "GrassmannNumber":
        """sum_k jet[k] (scale soul)^k, exact by nilpotency (``_soul_powers``).

        Maps expand in soul/body (scale 1/body, up to sign) so that
        coefficient and power stay in float range.
        """
        return sum(power * c for power, c in zip(self._soul_powers(scale), jet))

    def inverse(self) -> "GrassmannNumber":
        """Multiplicative inverse: the geometric series in -soul/body."""
        eps = self.body
        if eps == 0.0:
            raise NotInvertibleError("zero body: element is not invertible")
        return self._series([1.0 / eps] * (self.n + 1), -1.0 / eps)

    def sqrt(self) -> "GrassmannNumber":
        """Square root with positive body; requires body > 0."""
        eps = self.body
        if eps <= 0.0:
            raise DomainError("square root needs positive body")
        jet = [math.sqrt(eps)]
        for k in range(1, self.n + 1):
            jet.append(jet[-1] * (1.5 - k) / k)
        return self._series(jet, 1.0 / eps)

    def exp(self) -> "GrassmannNumber":
        e = math.exp(self.body)
        return self._series([e / math.factorial(k) for k in range(self.n + 1)])

    def log(self) -> "GrassmannNumber":
        eps = self.body
        if eps <= 0.0:
            raise DomainError("log needs positive body")
        jet = [math.log(eps)] + [-1.0 / k for k in range(1, self.n + 1)]
        return self._series(jet, -1.0 / eps)

    def cosh(self) -> "GrassmannNumber":
        d = (math.cosh(self.body), math.sinh(self.body))
        return self._series([d[k % 2] / math.factorial(k) for k in range(self.n + 1)])

    def sinh(self) -> "GrassmannNumber":
        d = (math.sinh(self.body), math.cosh(self.body))
        return self._series([d[k % 2] / math.factorial(k) for k in range(self.n + 1)])

    def arcosh(self) -> "GrassmannNumber":
        if self.body <= 1.0:
            raise DomainError("arcosh needs body > 1")
        # exact (an analytic identity on t > 1); (t - 1)(t + 1) keeps the digits t*t - 1 cancels
        return (self + ((self - 1) * (self + 1)).sqrt()).log()

    # ------------------------------------------------------------------
    # serialization and display
    # ------------------------------------------------------------------
    def terms(self) -> Iterator[tuple[tuple[int, ...], float]]:
        for mask in sorted(self._c, key=lambda m: (m.bit_count(), m)):
            yield _indices_from_mask(mask), self._c[mask]

    def to_obj(self) -> dict:
        return {
            "N": self.n,
            "terms": [{"idx": list(idx), "c": c} for idx, c in self.terms()],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "GrassmannNumber":
        """Inverse of ``to_obj``; TypeError unless N and every index are ints and every c an int or float."""
        n, terms = obj["N"], [(t["idx"], t["c"]) for t in obj["terms"]]
        if type(n) is not int or any(type(i) is not int for idx, _ in terms for i in idx) or any(
            type(c) not in (int, float) for _, c in terms
        ):
            raise TypeError(f"N {n!r} and every index must be an int, every coefficient an int or float")
        return cls.from_terms(n, terms)

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for idx, c in self.terms():
            base = "" if not idx else "b" + "".join(str(i) for i in idx)
            if base:
                parts.append(f"{c:+g}*{base}")
            else:
                parts.append(f"{c:+g}")
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


def _jet_pow(a: list[float], alpha: float) -> list[float]:
    """a^alpha for a truncated power series with a[0] > 0, by J. C. P. Miller's recurrence."""
    f = [a[0] ** alpha]
    for k in range(1, len(a)):
        f.append(sum(((alpha + 1) * j - k) * a[j] * f[k - j] for j in range(1, k + 1)) / (k * a[0]))
    return f


def worst(values: Iterable[float]) -> float:
    """Largest of ``values`` (0.0 if none), or NaN if any is NaN, where ``max`` may drop it."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def allclose(x, y, tol: float = 1e-12) -> bool:
    """Whether two elements agree within tol relative to max(1, |x|, |y|)."""
    if isinstance(x, (int, float)) and isinstance(y, GrassmannNumber):
        x = GrassmannNumber.scalar(y.n, x)
    if isinstance(y, (int, float)) and isinstance(x, GrassmannNumber):
        y = GrassmannNumber.scalar(x.n, y)
    scale = max(1.0, x.norm(), y.norm())
    return (x - y).norm() <= tol * scale
