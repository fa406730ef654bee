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

    @property
    def smoothness_degree(self) -> int:
        return self.dim // 2 + 3

    def profile(self, s):
        """psi, psi', psi'' of the squared radius, evaluated elementwise.

        Shares r and the clamped powers of (1 - r) with :meth:`slopes`; this
        is the hot path of every Gram matrix action.
        """
        r, t, t_m1, dpsi, ddpsi = self._radial(s)
        l = self.smoothness_degree
        a2 = (l + 1) * (l + 3)
        psi = a2 * r
        psi += 3.0 * (l + 2)
        psi *= r
        psi += 3.0
        psi *= t_m1
        psi *= t
        return psi, dpsi, ddpsi

    def slopes(self, s):
        """psi' and psi'' alone, the same bits as :meth:`profile`'s: all that
        a gradient reads.  Neither uses psi (see the module docstring)."""
        return self._radial(s)[3:]

    def _radial(self, s):
        """r = gamma ||x - y||, t = (1 - r)_+, t^(m-1), psi' and psi'' at the
        squared radius s."""
        s = np.asarray(s, dtype=float)
        m = self.smoothness_degree + 2
        g = self.gamma
        r = np.sqrt(np.maximum(s, 0.0))
        r *= g
        t = np.maximum(1.0 - r, 0.0)
        t_m2 = _int_power(t, m - 2)
        t_m1 = t_m2 * t
        # psi' = (c1 r + c0) (1 - r)^(m-1), gamma^2 / 2 folded into c1 and c0
        c1 = -0.5 * g * g * (m + 2) * (m * m - 1)
        c0 = -0.5 * g * g * (m + 1) * (m + 2)
        dpsi = c1 * r
        dpsi += c0
        dpsi *= t_m1
        ddpsi = (0.25 * g ** 4 * m * (m * m - 1) * (m + 2)) * t_m2
        return r, t, t_m1, dpsi, ddpsi


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
