"""Forward-mode differentiation to order three, at a point or a batch of points.

A `Jet` carries the value, gradient, Hessian and third-derivative tensor of a
scalar function of n variables, propagated through arithmetic by the Leibniz
and chain rules (the collapsed form of triply nested dual numbers); for a
batch, value (...) to third (..., n, n, n) carry leading batch axes.  A jet is
truncated at an order from 0 to 3: the arrays past it are None, and every
operation stops at the order its inputs carry, so an order-2 pass computes no
third derivative and an order-0 pass (a constant, or a value-only pass) the
value alone, under the same domain rules.  Real and holomorphic-complex
evaluation share the same arithmetic; only the dtype and the domain guards
differ.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .errors import DomainError, Overflow

__all__ = ["Jet"]


def _b(v):
    """v to scale arrays of 1, 2 and 3 derivative axes; a number as it is."""
    if isinstance(v, np.ndarray):
        return v[..., None], v[..., None, None], v[..., None, None, None]
    return v, v, v


def _pow(x, p):
    """x ** p, for a real batch by the C library's pow, as for a single point."""
    return np.float_power(x, p) if isinstance(x, np.ndarray) and x.dtype.kind == "f" else x**p


def _sym3(h, g):
    """Symmetrized product h_ij g_k + h_ik g_j + h_jk g_i."""
    hg = np.einsum("...ij,...k->...ijk", h, g)
    hk = hg.swapaxes(-1, -2)  # h_ik g_j, and h_jk g_i with i and j swapped
    return hg + hk + hk.swapaxes(-3, -2)


# The first three derivatives of each univariate function at x, drawn
# lazily: a jet of order k draws the first k alone.


def _reciprocal_derivatives(x):
    yield -1.0 / _pow(x, 2)
    yield 2.0 / _pow(x, 3)
    yield -6.0 / _pow(x, 4)


def _ln_derivatives(x):
    yield 1.0 / x
    yield -1.0 / _pow(x, 2)
    yield 2.0 / _pow(x, 3)


def _sqrt_derivatives(x, r):
    yield 0.5 / r
    yield -0.25 / (x * r)
    yield 0.375 / (_pow(x, 2) * r)


def _power_derivatives(x, p):
    yield p * _pow(x, p - 1)
    yield p * (p - 1) * _pow(x, p - 2)
    yield p * (p - 1) * (p - 2) * _pow(x, p - 3)


class Jet:
    """Truncated Taylor scalar of order 0 to 3 over n variables: `third` is
    None below order 3, `hessian` below 2, and `gradient` for a constant."""

    __slots__ = ("value", "gradient", "hessian", "third", "real")

    def __init__(self, value, gradient=None, hessian=None, third=None, real=True):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self.third = third
        self.real = real

    @classmethod
    def variable(cls, value, index, n, real=True, order=3):
        if not isinstance(value, np.ndarray):
            value = float(value) if real else complex(value)
        jet = cls.constant(value, n, real, order)
        jet.gradient[..., index] = 1.0
        return jet

    @classmethod
    def constant(cls, value, n, real=True, order=3):
        """A constant with zero derivative arrays over n variables, to `order` >= 1."""
        dtype = np.float64 if real else np.complex128
        shape = value.shape if isinstance(value, np.ndarray) else ()
        return cls(
            value,
            np.zeros(shape + (n,), dtype=dtype),
            np.zeros(shape + (n, n), dtype=dtype) if order > 1 else None,
            np.zeros(shape + (n, n, n), dtype=dtype) if order > 2 else None,
            real=real,
        )

    def _lift(self, other):
        return other if isinstance(other, Jet) else Jet(other, real=self.real)

    # -- ring operations ---------------------------------------------------
    # Two jets that both carry derivative arrays carry them to the same order.

    def __add__(self, other):
        o = self._lift(other)
        if self.gradient is None:
            self, o = o, self
        value = self.value + o.value
        if o.gradient is None:
            return Jet(value, self.gradient, self.hessian, self.third, self.real)
        g = self.gradient + o.gradient
        if self.third is None:
            h = None if self.hessian is None else self.hessian + o.hessian
            return Jet(value, g, h, real=self.real)
        return Jet(value, g, self.hessian + o.hessian, self.third + o.third, self.real)

    __radd__ = __add__

    def __neg__(self):
        if self.gradient is None:
            return Jet(-self.value, real=self.real)
        if self.third is None:
            h = None if self.hessian is None else -self.hessian
            return Jet(-self.value, -self.gradient, h, real=self.real)
        return Jet(-self.value, -self.gradient, -self.hessian, -self.third, self.real)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        # before the swap, as a value-only pass multiplies: numpy's complex
        # product of arrays can depend on the operand order in the last bit
        value = self.value * o.value
        if self.gradient is None:
            self, o = o, self
        if self.gradient is None:
            return Jet(value, real=self.real)
        v1, v2, v3 = _b(o.value)
        if o.gradient is None:
            if self.third is None:
                h = None if self.hessian is None else self.hessian * v2
                return Jet(value, self.gradient * v1, h, real=self.real)
            return Jet(value, self.gradient * v1, self.hessian * v2, self.third * v3, self.real)
        u1, u2, u3 = _b(self.value)
        g = self.gradient * v1 + u1 * o.gradient
        if self.hessian is None:
            return Jet(value, g, real=self.real)
        gg = self.gradient[..., :, None] * o.gradient[..., None, :]
        h = self.hessian * v2 + gg + gg.swapaxes(-1, -2) + u2 * o.hessian
        if self.third is None:
            return Jet(value, g, h, real=self.real)
        t = self.third * v3 + _sym3(self.hessian, o.gradient) + _sym3(o.hessian, self.gradient)
        t = t + u3 * o.third
        return Jet(value, g, h, t, self.real)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._lift(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self._reciprocal()

    def __pow__(self, exponent):
        """`powc` for a number; u^v = exp(v ln u) for a `Jet` exponent."""
        if not isinstance(exponent, Jet):
            return self.powc(exponent)
        return (exponent * self.ln()).exp()

    def __rpow__(self, base):
        return self._lift(base) ** self

    # -- univariate chain rule --------------------------------------------

    def _compose(self, c0, derivatives, *args):
        """f(self) for f(x) = c0, with `derivatives(*args)` yielding f', f'',
        f''' at x, started only if this jet carries derivative arrays and
        drawn only as far as its order."""
        if self.gradient is None:
            return Jet(c0, real=self.real)
        derivatives = derivatives(*args)
        g = self.gradient
        c1 = _b(next(derivatives))  # c[k - 1] scales k derivative axes
        if self.hessian is None:
            return Jet(c0, c1[0] * g, real=self.real)
        c2 = _b(next(derivatives))
        gg = g[..., :, None] * g[..., None, :]
        h = c2[1] * gg + c1[1] * self.hessian
        if self.third is None:
            return Jet(c0, c1[0] * g, h, real=self.real)
        c3 = _b(next(derivatives))
        t = (
            c3[2] * (gg[..., None] * g[..., None, None, :])
            + c2[2] * _sym3(self.hessian, g)
            + c1[2] * self.third
        )
        return Jet(c0, c1[0] * g, h, t, self.real)

    def _require(self, positive, message):
        """`DomainError(message(x))` at the first x == 0, or x <= 0 if `positive` (real)."""
        x = self.value
        bad = np.logical_not(x > 0) if positive and self.real else x == 0
        if bad.any() if isinstance(x, np.ndarray) else bad:
            raise DomainError(message(x[bad][0] if isinstance(x, np.ndarray) else x))

    def _reciprocal(self):
        x = self.value
        self._require(False, lambda x: "division by zero")
        return self._compose(1.0 / x, _reciprocal_derivatives, x)

    def ln(self):
        x = self.value
        self._require(True, lambda x: f"ln of nonpositive argument {x}")
        return self._compose(np.log(x), _ln_derivatives, x)

    def exp(self):
        e = np.exp(self.value)
        return self._compose(e, repeat, e)

    def sqrt(self):
        x = self.value
        self._require(True, lambda x: f"sqrt of nonpositive argument {x}")
        r = np.sqrt(x)
        return self._compose(r, _sqrt_derivatives, x, r)

    def powc(self, p):
        """Power with a constant exponent.

        Integer exponents go through exact repeated multiplication (valid for
        any base, including nonpositive ones); non-integer exponents require a
        positive (real mode) or nonzero (complex mode) base.
        """
        if isinstance(p, (int, np.integer)) or (
            isinstance(p, float) and p.is_integer()
        ):
            m = int(p)
            if m < 0:
                return self._reciprocal().powc(-m)
            if m == 0:
                return Jet(1.0, real=self.real)
            # square-and-multiply from the lowest bit, with no product by 1
            # and no squaring past the highest bit
            result, base = None, self
            while True:
                if m & 1:
                    result = base if result is None else result * base
                m >>= 1
                if not m:
                    return result
                base = base * base
        x = self.value
        self._require(True, lambda x: f"nonpositive base {x} with non-integer exponent {p}")
        return self._compose(_pow(x, p), _power_derivatives, x, p)

    def finite(self):
        """This jet, after checking that its value and derivative arrays are finite."""
        arrays = (self.gradient, self.hessian, self.third)
        if not (
            np.isfinite(self.value).all()
            and all(np.isfinite(a).all() for a in arrays if a is not None)
        ):
            raise Overflow("non-finite value or derivative")
        return self
