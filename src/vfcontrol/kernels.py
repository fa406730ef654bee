"""Compactly supported Wendland kernels: the radial profile and its first two derivatives.

The kernel is translation invariant, k(x, y) = Phi(gamma * ||x - y||), with the
dimension-dependent C4 Wendland polynomial

    Phi(r) = (1 - r)_+^(l+2) * ((l+1)(l+3) r^2 + 3(l+2) r + 3),   l = floor(dim/2) + 3.

All derivative formulas are written in the squared radius s = ||x - y||^2 via
psi(s) = Phi(gamma * sqrt(s)).  For this family the apparent 1/sqrt(s)
singularity cancels exactly and both psi' and psi'' are polynomials in
r = gamma * sqrt(s):

    psi'(s)  = (gamma^2 / 2) (1 - r)^(m-1) (c1 r + c0),
    psi''(s) = (gamma^4 / 4) m (m^2 - 1)(m + 2) (1 - r)^(m-2),

with m = l + 2, c1 = -(m+2)(m^2-1), c0 = -(m+1)(m+2).  In particular
psi'(0) = gamma^2 Phi''(0) / 2 and psi''(0) = gamma^4 Phi''''(0) / 12 hold
exactly, with Phi''(0) = -(l+3)(l+4) and Phi''''(0) = 3(l+1)(l+2)(l+3)(l+4).
All three vanish beyond ||x - y|| = 1 / gamma.  Neither derivative uses
psi, so a gradient, which reads only psi' and psi'', evaluates them alone
(``WendlandC4.slopes``).  The Hermite Gram actions in
``hermite`` are built from these profiles, evaluated on whole tables of
pairwise squared distances.

A kernel computes its constants (psi's coefficients, c1, c0 and psi''s
factor) once, when it is made.  On one state's squared distances the
profile is then numpy's per-call cost alone: its 23 calls on the 18
distances of a 36-dimensional kernel (m = 23) took about 11 us on a 2-core
shared host, the largest single part of one feedback evaluation.  Each
element still goes through the same operations in the same order, so
``profile`` and ``slopes`` keep their bits.  Evaluating psi and psi' as one
stacked (2, ...) Horner pass would save three calls, but each of its passes
broadcasts across the stack, and that measured slower than the separate
passes, on 36 distances and on tables of 11,000 alike.

The structured variant multiplies the base kernel by <x, y>^2 so that every
surrogate built from it vanishes with vanishing gradient at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WendlandC4",
    "StructuredKernel",
    "kernel_to_spec",
    "kernel_from_spec",
]


# Scalar operands as 0-d arrays: numpy applies a ufunc to an array and a
# 0-d array in about 60% of the time it takes with a Python float (18-entry
# arrays, numpy 2.4), and the values, so the results, are the same.
_ZERO, _ONE, _THREE = np.array(0.0), np.array(1.0), np.array(3.0)


@dataclass(frozen=True)
class WendlandC4:
    """C4 Wendland kernel for a given state dimension and shape parameter gamma."""

    dim: int
    gamma: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        # the profile's constants, once per kernel: psi's coefficients in r,
        # psi' = (c1 r + c0) (1 - r)^(m-1) with gamma^2 / 2 folded into c1
        # and c0, and psi''s factor of (1 - r)^(m-2); held as 0-d arrays (see
        # _ZERO), the values the profile always used
        l = self.smoothness_degree
        m = l + 2
        g = self.gamma
        constants = {
            "_g": g,
            "_a2": (l + 1) * (l + 3),
            "_a1": 3.0 * (l + 2),
            "_c1": -0.5 * g * g * (m + 2) * (m * m - 1),
            "_c0": -0.5 * g * g * (m + 1) * (m + 2),
            "_dd": 0.25 * g ** 4 * m * (m * m - 1) * (m + 2),
        }
        for name, value in constants.items():
            object.__setattr__(self, name, np.array(value, dtype=float))
        object.__setattr__(self, "_m", m)

    @property
    def smoothness_degree(self) -> int:
        return self.dim // 2 + 3

    def profile(self, s):
        """psi, psi', psi'' of the squared radius, evaluated elementwise.

        Shares r and the clamped powers of (1 - r) with :meth:`slopes`; this
        is the hot path of every Gram matrix action.
        """
        r, t, t_m1, t_m2 = self._powers(s)
        psi = self._a2 * r
        psi += self._a1
        psi *= r
        psi += _THREE
        psi *= t_m1
        psi *= t
        return psi, self._dpsi(r, t_m1), self._dd * t_m2

    def slopes(self, s):
        """psi' and psi'' alone, the same bits as :meth:`profile`'s: all that
        a gradient reads.  Neither uses psi (see the module docstring)."""
        r, _, t_m1, t_m2 = self._powers(s)
        return self._dpsi(r, t_m1), self._dd * t_m2

    def _powers(self, s):
        """r = gamma ||x - y||, t = (1 - r)_+, t^(m-1) and t^(m-2) at the
        squared radius s."""
        s = np.asarray(s, dtype=float)
        r = np.sqrt(np.maximum(s, _ZERO))
        r *= self._g
        t = np.maximum(_ONE - r, _ZERO)
        t_m2 = _int_power(t, self._m - 2)
        return r, t, t_m2 * t, t_m2

    def _dpsi(self, r, t_m1):
        dpsi = self._c1 * r
        dpsi += self._c0
        dpsi *= t_m1
        return dpsi


@dataclass(frozen=True)
class StructuredKernel:
    """Base kernel times <x, y>^2; vanishes to first order when either argument is 0."""

    base: WendlandC4

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def gamma(self) -> float:
        return self.base.gamma


def _int_power(base: np.ndarray, exponent: int) -> np.ndarray:
    """base ** exponent by repeated squaring; much faster than elementwise pow
    for the large integer exponents the high-dimensional profiles need.  The
    result may be ``base`` itself (exponent 1), so callers do not write to it."""
    result = None
    square = base
    e = exponent
    while e:
        if e & 1:
            result = square if result is None else result * square
        e >>= 1
        if e:
            square = square * square
    return np.ones_like(base) if result is None else result


def kernel_to_spec(kernel) -> dict:
    if isinstance(kernel, StructuredKernel):
        spec = kernel_to_spec(kernel.base)
        spec["structured"] = True
        return spec
    return {"family": "wendland_c4", "dim": kernel.dim, "gamma": kernel.gamma, "structured": False}


def kernel_from_spec(spec: dict):
    if spec.get("family") != "wendland_c4":
        raise ValueError(f"unknown kernel family {spec.get('family')!r}")
    base = WendlandC4(dim=int(spec["dim"]), gamma=float(spec["gamma"]))
    return StructuredKernel(base) if spec.get("structured") else base
