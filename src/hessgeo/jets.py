"""Forward-mode differentiation to order three.

A `Jet` carries the value, gradient, Hessian and third-derivative tensor of a
scalar function of n variables, propagated through arithmetic by the Leibniz
and chain rules (the collapsed form of triply nested dual numbers).  A jet
without derivative arrays is a constant, so an operation on such jets computes
the value alone: a pass whose variables carry no arrays is a value-only pass,
under the same domain rules.  Real and holomorphic-complex evaluation share the
same arithmetic; only the dtype and the domain guards differ.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DomainError, Overflow

__all__ = ["Jet"]


def _sym3(h, g):
    """Symmetrized product h_ij g_k + h_ik g_j + h_jk g_i."""
    hg = np.einsum("ij,k->ijk", h, g)
    return hg + hg.transpose(0, 2, 1) + hg.transpose(2, 0, 1)


class Jet:
    """Truncated degree-3 Taylor scalar over n variables; `gradient`,
    `hessian` and `third` are all None for a constant."""

    __slots__ = ("value", "gradient", "hessian", "third", "real")

    def __init__(self, value, gradient=None, hessian=None, third=None, real=True):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self.third = third
        self.real = real

    @classmethod
    def variable(cls, value, index, n, real=True):
        dtype = np.float64 if real else np.complex128
        g = np.zeros(n, dtype=dtype)
        g[index] = 1.0
        return cls(
            float(value) if real else complex(value),
            g,
            np.zeros((n, n), dtype=dtype),
            np.zeros((n, n, n), dtype=dtype),
            real=real,
        )

    @classmethod
    def constant(cls, value, n, real=True):
        """A constant with zero derivative arrays over n variables."""
        dtype = np.float64 if real else np.complex128
        return cls(
            value,
            np.zeros(n, dtype=dtype),
            np.zeros((n, n), dtype=dtype),
            np.zeros((n, n, n), dtype=dtype),
            real=real,
        )

    def _lift(self, other):
        return other if isinstance(other, Jet) else Jet(other, real=self.real)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if self.gradient is None:
            self, o = o, self
        value = self.value + o.value
        if o.gradient is None:
            return Jet(value, self.gradient, self.hessian, self.third, self.real)
        return Jet(
            value,
            self.gradient + o.gradient,
            self.hessian + o.hessian,
            self.third + o.third,
            self.real,
        )

    __radd__ = __add__

    def __neg__(self):
        if self.gradient is None:
            return Jet(-self.value, real=self.real)
        return Jet(-self.value, -self.gradient, -self.hessian, -self.third, self.real)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if self.gradient is None:
            self, o = o, self
        value = self.value * o.value
        if o.gradient is None:
            if self.gradient is None:
                return Jet(value, real=self.real)
            c = o.value
            return Jet(value, self.gradient * c, self.hessian * c, self.third * c, self.real)
        g = self.gradient * o.value + self.value * o.gradient
        gg = np.outer(self.gradient, o.gradient)
        h = self.hessian * o.value + gg + gg.T + self.value * o.hessian
        t = (
            self.third * o.value
            + _sym3(self.hessian, o.gradient)
            + _sym3(o.hessian, self.gradient)
            + self.value * o.third
        )
        return Jet(value, g, h, t, self.real)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._lift(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self._reciprocal()

    def __pow__(self, exponent):
        e = self._lift(exponent)
        if e.gradient is None or not (e.gradient.any() or e.hessian.any()):
            return self.powc(e.value)
        # u^v = exp(v ln u), for a positive (real) or nonzero (complex) base
        return (e * self.ln()).exp()

    def __rpow__(self, base):
        return self._lift(base) ** self

    # -- univariate chain rule --------------------------------------------

    def _compose(self, c0, coefficients):
        """f(self) for f(x) = c0, with `coefficients()` giving f', f'', f'''
        at x; they are computed only if this jet carries derivative arrays."""
        if self.gradient is None:
            return Jet(c0, real=self.real)
        c1, c2, c3 = coefficients()
        g = c1 * self.gradient
        gg = np.outer(self.gradient, self.gradient)
        h = c2 * gg + c1 * self.hessian
        t = (
            c3 * np.einsum("i,j,k->ijk", self.gradient, self.gradient, self.gradient)
            + c2 * _sym3(self.hessian, self.gradient)
            + c1 * self.third
        )
        return Jet(c0, g, h, t, self.real)

    def _outside(self, x):
        """Whether x lies outside the domain of ln, sqrt and non-integer
        powers: x <= 0 in real mode, x == 0 in complex mode."""
        return not x > 0 if self.real else x == 0

    def _reciprocal(self):
        x = self.value
        if x == 0:
            raise DomainError("division by zero")
        return self._compose(1.0 / x, lambda: (-1.0 / x**2, 2.0 / x**3, -6.0 / x**4))

    def ln(self):
        x = self.value
        if self._outside(x):
            raise DomainError(f"ln of nonpositive argument {x}")
        return self._compose(np.log(x), lambda: (1.0 / x, -1.0 / x**2, 2.0 / x**3))

    def exp(self):
        e = np.exp(self.value)
        return self._compose(e, lambda: (e, e, e))

    def sqrt(self):
        x = self.value
        if self._outside(x):
            raise DomainError(f"sqrt of nonpositive argument {x}")
        r = np.sqrt(x)
        return self._compose(r, lambda: (0.5 / r, -0.25 / (x * r), 0.375 / (x**2 * r)))

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
        if self._outside(x):
            raise DomainError(f"nonpositive base {x} with non-integer exponent {p}")
        return self._compose(
            x**p,
            lambda: (
                p * x ** (p - 1),
                p * (p - 1) * x ** (p - 2),
                p * (p - 1) * (p - 2) * x ** (p - 3),
            ),
        )

    def finite(self):
        """This jet, after checking that its value and derivatives are finite."""
        arrays = () if self.gradient is None else (self.gradient, self.hessian, self.third)
        if not (cmath.isfinite(self.value) and all(np.isfinite(a).all() for a in arrays)):
            raise Overflow("non-finite value or derivative")
        return self
