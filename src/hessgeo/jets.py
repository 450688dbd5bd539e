"""Forward-mode differentiation to order three.

A `Jet` carries the value, gradient, Hessian and third-derivative tensor of a
scalar function of n variables, propagated through arithmetic by the Leibniz
and chain rules (the collapsed form of triply nested dual numbers).  Real and
holomorphic-complex evaluation share the same arithmetic; only the dtype and
the domain guards differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Overflow

__all__ = ["Jet", "Jet3"]


@dataclass(frozen=True)
class Jet3:
    """Derivatives of a scalar at a point: value, gradient, Hessian, third tensor."""

    value: complex
    gradient: np.ndarray
    hessian: np.ndarray
    third: np.ndarray


def _sym3(h, g):
    """Symmetrized product h_ij g_k + h_ik g_j + h_jk g_i."""
    hg = np.einsum("ij,k->ijk", h, g)
    return hg + hg.transpose(0, 2, 1) + hg.transpose(2, 0, 1)


class Jet:
    """Truncated degree-3 Taylor scalar over n variables."""

    __slots__ = ("f", "g", "h", "t", "real")

    def __init__(self, f, g, h, t, real=True):
        self.f = f
        self.g = g
        self.h = h
        self.t = t
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
        dtype = np.float64 if real else np.complex128
        return cls(
            value,
            np.zeros(n, dtype=dtype),
            np.zeros((n, n), dtype=dtype),
            np.zeros((n, n, n), dtype=dtype),
            real=real,
        )

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.g.shape[0], real=self.real)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        return Jet(self.f + o.f, self.g + o.g, self.h + o.h, self.t + o.t, self.real)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.g, -self.h, -self.t, self.real)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        f = self.f * o.f
        g = self.g * o.f + self.f * o.g
        gg = np.outer(self.g, o.g)
        h = self.h * o.f + gg + gg.T + self.f * o.h
        t = (
            self.t * o.f
            + _sym3(self.h, o.g)
            + _sym3(o.h, self.g)
            + self.f * o.t
        )
        return Jet(f, g, h, t, self.real)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._lift(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self._reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            # general u^v = exp(v ln u); requires a positive / nonzero base
            return (exponent * self.ln()).exp()
        return self.powc(exponent)

    # -- univariate chain rule --------------------------------------------

    def _compose(self, c0, c1, c2, c3):
        g = c1 * self.g
        gg = np.outer(self.g, self.g)
        h = c2 * gg + c1 * self.h
        t = (
            c3 * np.einsum("i,j,k->ijk", self.g, self.g, self.g)
            + c2 * _sym3(self.h, self.g)
            + c1 * self.t
        )
        return Jet(c0, g, h, t, self.real)

    def _reciprocal(self):
        x = self.f
        if x == 0:
            raise DomainError("division by zero")
        return self._compose(1.0 / x, -1.0 / x**2, 2.0 / x**3, -6.0 / x**4)

    def ln(self):
        x = self.f
        if self.real:
            if not x > 0:
                raise DomainError(f"ln of nonpositive argument {x}")
        elif x == 0:
            raise DomainError("ln of zero")
        return self._compose(np.log(x), 1.0 / x, -1.0 / x**2, 2.0 / x**3)

    def exp(self):
        e = np.exp(self.f)
        return self._compose(e, e, e, e)

    def sqrt(self):
        x = self.f
        if self.real:
            if not x > 0:
                raise DomainError(f"sqrt of nonpositive argument {x}")
        elif x == 0:
            raise DomainError("sqrt of zero")
        r = np.sqrt(x)
        return self._compose(r, 0.5 / r, -0.25 / (x * r), 0.375 / (x**2 * r))

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
                return Jet.constant(1.0, self.g.shape[0], real=self.real)
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
        x = self.f
        if self.real:
            if not x > 0:
                raise DomainError(
                    f"nonpositive base {x} with non-integer exponent {p}"
                )
        elif x == 0:
            raise DomainError("zero base with non-integer exponent")
        return self._compose(
            x**p,
            p * x ** (p - 1),
            p * (p - 1) * x ** (p - 2),
            p * (p - 1) * (p - 2) * x ** (p - 3),
        )

    # -- export ------------------------------------------------------------

    def as_jet3(self):
        parts = (self.f, self.g, self.h, self.t)
        if not all(np.all(np.isfinite(np.asarray(p))) for p in parts):
            raise Overflow("non-finite value in derivative evaluation")
        return Jet3(self.f, self.g.copy(), self.h.copy(), self.t.copy())
