"""Truncated multivariate Taylor arithmetic (jets).

A `Jet` holds the Taylor coefficients of a smooth scalar function at a
point: ``coeffs[alpha] = (d^alpha f)(p) / alpha!`` for every multi-index
with ``|alpha| <= order``, stored densely in the graded layout of
`_jettables`.  Propagating jets through arithmetic and elementary
functions yields every partial derivative of the result up to the
truncation order, exactly (to roundoff) for the retained grades.

A jet may also be a tensor of jets: ``coeffs`` then has shape
``(*shape, size)``, one coefficient vector per tensor entry, and indexing
a full tensor index gives back a scalar `Jet`.  Jets at a set of points
use the same layout: the points are one more tensor axis, the last before
the coefficients (see `curvature`).  Ring operations act entrywise with
NumPy broadcasting; `contract` multiplies two tensors of
jets and sums over their shared tensor indices.  Every product runs
through the one kernel in `_kernels`.  Tensors of jets are built as one
coefficient array: `exprs.eval_jet` evaluates a nested list of
expressions straight into one, and the curvature operators take and
return `Jet`s only.

Conventions and contracts:

* dim <= 4 and order <= 5 (table-driven storage, at most 126 coefficients);
* binary operations require identical (dim, order) — mixed grades are a
  hard error, lowering is explicit via `truncated`; `contract` works at
  the lower of its operands' orders, which is as far as their product is
  known;
* elementary functions act entrywise on a tensor of jets; each entry's
  composition uses the univariate Taylor expansion of the function at its
  constant term, computed with `math` per entry and evaluated by Horner's
  rule on the nilpotent part, so it is exact on the retained grades;
* a domain error (sqrt or log of a non-positive constant term, the
  reciprocal of a zero one) in any entry raises `JetDomainError` naming the
  entry; a NaN constant term propagates;
* derivative() lowers the order by one, as it must.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ._jettables import JetTables, tables
from ._kernels import mul_into, product  # mul_into: for perfbench/tracing.py


class JetError(ValueError):
    """Base error for jet arithmetic misuse."""


class JetShapeError(JetError):
    """Operands have mismatched (dim, order)."""


class JetDomainError(JetError):
    """Elementary function evaluated outside its domain."""


class JetOrderError(JetError):
    """An operation would consume more derivative order than available."""


class Jet:
    """Dense truncated Taylor expansion of a scalar, or of each entry of a
    tensor, at a point."""

    __slots__ = ("dim", "order", "coeffs", "tab")
    # NumPy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, dim: int, order: int, coeffs: np.ndarray,
                 _tab: JetTables | None = None):
        tab = _tab if _tab is not None else tables(dim, order)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim == 0 or coeffs.shape[-1] != tab.size:
            raise JetShapeError(
                f"expected {tab.size} coefficients for dim={dim} "
                f"order={order}, got shape {coeffs.shape}"
            )
        self.dim = dim
        self.order = order
        self.coeffs = coeffs
        self.tab = tab

    def _like(self, coeffs: np.ndarray) -> "Jet":
        return Jet(self.dim, self.order, coeffs, _tab=self.tab)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value, dim: int, order: int) -> "Jet":
        """A constant jet, or a tensor of them for an array value."""
        tab = tables(dim, order)
        value = np.asarray(value, dtype=np.float64)
        coeffs = np.zeros(value.shape + (tab.size,))
        coeffs[..., 0] = value
        return cls(dim, order, coeffs, _tab=tab)

    @classmethod
    def variable(cls, axis: int, value, dim: int, order: int) -> "Jet":
        """The coordinate function x_axis expanded at x_axis = value, or a
        tensor of such jets for an array of values."""
        if not (0 <= axis < dim):
            raise JetError(f"variable axis {axis} out of range for dim {dim}")
        jet = cls.constant(value, dim, order)
        if order >= 1:
            unit = tuple(1 if a == axis else 0 for a in range(dim))
            jet.coeffs[..., jet.tab.index[unit]] = 1.0
        return jet

    # ------------------------------------------------------------------
    # tensor structure
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """The tensor shape; () for a scalar jet."""
        return self.coeffs.shape[:-1]

    @property
    def ndim(self) -> int:
        return self.coeffs.ndim - 1

    def __getitem__(self, index) -> "Jet":
        """Index the tensor axes; a full index gives a scalar jet."""
        key = index if isinstance(index, tuple) else (index,)
        if len(key) > self.ndim or any(k is Ellipsis or k is None
                                       for k in key):
            raise JetError(
                f"index {index!r} does not address the tensor axes of a "
                f"jet of shape {self.shape}")
        return self._like(self.coeffs[key])

    def _entrywise(self, values: np.ndarray):
        return float(values) if not self.ndim else values

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def value(self):
        """The 0th-order coefficient (the function value at the point);
        an array of them for a tensor."""
        return self._entrywise(self.coeffs[..., 0].copy())

    def partial(self, alpha: Sequence[int]):
        """Partial derivative value d^alpha f at the base point."""
        key = tuple(int(a) for a in alpha)
        if len(key) != self.dim:
            raise JetError(f"multi-index {key} has wrong length for dim {self.dim}")
        if any(a < 0 for a in key):
            raise JetError(f"multi-index {key} has negative entries")
        if sum(key) > self.order:
            raise JetOrderError(
                f"multi-index {key} exceeds jet order {self.order}"
            )
        slot = self.tab.index[key]
        return self._entrywise(self.coeffs[..., slot]
                               * self.tab.factorials[slot])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = f"shape={self.shape}, " if self.ndim else ""
        return (f"Jet(dim={self.dim}, order={self.order}, {shape}"
                f"value={self.value!r})")

    # ------------------------------------------------------------------
    # grade bookkeeping
    # ------------------------------------------------------------------
    def truncated(self, order: int) -> "Jet":
        """Copy of this jet truncated to a lower order (explicit lowering)."""
        if order == self.order:
            return self._like(self.coeffs.copy())
        if not (0 <= order < self.order):
            raise JetOrderError(
                f"cannot truncate order-{self.order} jet to order {order}"
            )
        tab = tables(self.dim, order)
        return Jet(self.dim, order, self.coeffs[..., :tab.size].copy(),
                   _tab=tab)

    def derivative(self, axis: int) -> "Jet":
        """Partial derivative along an axis; the order drops by one."""
        if not (0 <= axis < self.dim):
            raise JetError(f"axis {axis} out of range for dim {self.dim}")
        if self.order == 0:
            raise JetOrderError(
                "cannot differentiate an order-0 jet; raise the working order"
            )
        tab = tables(self.dim, self.order - 1)
        coeffs = self.coeffs[..., self.tab.dsrc[axis]] * self.tab.dmul[axis]
        return Jet(self.dim, self.order - 1, coeffs, _tab=tab)

    def grad(self) -> "Jet":
        """Every first partial, stacked on a new leading tensor axis:
        ``grad()[a]`` is ``derivative(a)``."""
        parts = [self.derivative(axis) for axis in range(self.dim)]
        return parts[0]._like(np.stack([p.coeffs for p in parts]))

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def _check_match(self, other: "Jet") -> None:
        if self.dim != other.dim or self.order != other.order:
            raise JetShapeError(
                f"jet mismatch: (dim={self.dim}, order={self.order}) vs "
                f"(dim={other.dim}, order={other.order}); "
                "truncate explicitly before mixing grades"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_match(other)
            return self._like(self.coeffs + other.coeffs)
        if isinstance(other, (int, float)):
            coeffs = self.coeffs.copy()
            coeffs[..., 0] += other
            return self._like(coeffs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check_match(other)
            return self._like(self.coeffs - other.coeffs)
        if isinstance(other, (int, float)):
            coeffs = self.coeffs.copy()
            coeffs[..., 0] -= other
            return self._like(coeffs)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            coeffs = -self.coeffs
            coeffs[..., 0] += other
            return self._like(coeffs)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_match(other)
            return self._like(product(self.coeffs, other.coeffs, self.tab))
        if isinstance(other, (int, float)):
            return self._like(self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check_match(other)
            return self * other.reciprocal()
        if isinstance(other, (int, float)):
            return self._like(self.coeffs / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self.reciprocal() * other
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise JetError(
                f"jet powers take integer exponents, got {exponent!r}; "
                "use sqrt/exp/log for fractional powers"
            )
        return self.powi(exponent)

    def powi(self, exponent: int) -> "Jet":
        """Integer power by binary exponentiation of truncated products."""
        if exponent < 0:
            return self.reciprocal().powi(-exponent)
        if exponent == 0:
            return Jet.constant(np.ones(self.shape), self.dim, self.order)
        result = None
        base = self
        k = exponent
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # elementary-function composition
    # ------------------------------------------------------------------
    def _compose(self, series_at: Callable[[float], list]) -> "Jet":
        """f(self) entrywise, for the f whose Taylor coefficients at c are
        series_at(c): sum_k series_k * (self - c)^k by Horner's rule.

        The shifted jet is nilpotent (zero constant term), so the truncated
        products are exact on the retained grades.  The series is computed
        with `math` per entry, so a tensor entry gets the same bits as a
        scalar jet with its coefficients.
        """
        base = self.coeffs[..., 0]
        series = np.array([series_at(c) for c in base.ravel()]).T
        series = series.reshape((self.order + 1,) + self.shape)
        u = self.coeffs.copy()
        u[..., 0] = 0.0
        nilpotent = self._like(u)
        acc = self._like(np.zeros_like(u))
        acc.coeffs[..., 0] = series[-1]
        for ck in series[-2::-1]:
            acc = acc * nilpotent
            acc.coeffs[..., 0] += ck
        return acc

    def _require(self, bad: np.ndarray, message: str) -> None:
        """Raise JetDomainError at the first entry whose constant term is
        bad."""
        if bad.any():
            at = tuple(int(i) for i in np.argwhere(bad)[0])
            entry = f" at entry {at}" if at else ""
            raise JetDomainError(
                f"{message}, got {self.coeffs[at + (0,)]}{entry}")

    def reciprocal(self) -> "Jet":
        self._require(self.coeffs[..., 0] == 0.0,
                      "division by a jet with zero constant term")
        return self._compose(lambda c: [(-1.0) ** k / c ** (k + 1)
                                        for k in range(self.order + 1)])

    def sin(self) -> "Jet":
        return self._compose(lambda c: [
            math.sin(c + 0.5 * k * math.pi) / math.factorial(k)
            for k in range(self.order + 1)])

    def cos(self) -> "Jet":
        return self._compose(lambda c: [
            math.cos(c + 0.5 * k * math.pi) / math.factorial(k)
            for k in range(self.order + 1)])

    def exp(self) -> "Jet":
        def series(c):
            e = math.exp(c)
            return [e / math.factorial(k) for k in range(self.order + 1)]
        return self._compose(series)

    def sinh(self) -> "Jet":
        def series(c):
            sh, ch = math.sinh(c), math.cosh(c)
            return [(sh if k % 2 == 0 else ch) / math.factorial(k)
                    for k in range(self.order + 1)]
        return self._compose(series)

    def cosh(self) -> "Jet":
        def series(c):
            sh, ch = math.sinh(c), math.cosh(c)
            return [(ch if k % 2 == 0 else sh) / math.factorial(k)
                    for k in range(self.order + 1)]
        return self._compose(series)

    def sqrt(self) -> "Jet":
        self._require(self.coeffs[..., 0] <= 0.0,
                      "sqrt of a jet needs a positive constant term")

        def series(c):
            out = [math.sqrt(c)]
            for k in range(1, self.order + 1):
                out.append(out[-1] * (1.5 - k) / (k * c))
            return out
        return self._compose(series)

    def log(self) -> "Jet":
        self._require(self.coeffs[..., 0] <= 0.0,
                      "log of a jet needs a positive constant term")
        return self._compose(lambda c: [math.log(c)] + [
            (-1.0) ** (k - 1) / (k * c ** k)
            for k in range(1, self.order + 1)])


def contract(spec: str, a: Jet, b: Jet) -> Jet:
    """Truncated product of two tensors of jets, summed over tensor indices.

    ``spec`` holds `np.einsum` subscripts over the tensor axes only, for
    example ``"ik,kj->ij"`` for a matrix product.  The result is at the
    lower of the two orders, as far as the product is known.
    """
    if a.dim != b.dim:
        raise JetShapeError(f"jet mismatch: dim={a.dim} vs dim={b.dim}")
    tab = a.tab if a.order <= b.order else b.tab
    return Jet(a.dim, tab.order,
               product(a.coeffs[..., :tab.size], b.coeffs[..., :tab.size],
                       tab, spec), _tab=tab)


def variables(point: Sequence[float], order: int) -> tuple[Jet, ...]:
    """Coordinate jets for a point, one per axis."""
    dim = len(point)
    return tuple(
        Jet.variable(axis, float(point[axis]), dim, order)
        for axis in range(dim)
    )


ELEMENTARY: dict[str, Callable[[Jet], Jet]] = {
    "sin": Jet.sin,
    "cos": Jet.cos,
    "exp": Jet.exp,
    "sinh": Jet.sinh,
    "cosh": Jet.cosh,
    "sqrt": Jet.sqrt,
    "log": Jet.log,
}
