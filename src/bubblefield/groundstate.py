"""Ground state evaluation and the quadrature identity for kappa.

W(r) = (1 + r^2/15)^(-3/2) is the radial ground state in R^5 and
LW = (3/2 + r d/dr) W its scaling derivative.  The interaction constant
satisfies

    kappa = (3/2) * 15^(3/2) * int_{R^5} W^(7/3) dx / ||LW||_L2^2,

which verify_kappa reproduces with one fixed rule, 8-point Gauss-Legendre on
N_PANELS panels over [0, R_MAX] plus a two-term analytic power-law tail, and
compares against the closed form.
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
# the rule: panels on [0, R_MAX], checked against N_PANELS / 4 and N_PANELS / 2;
# beyond R_MAX the leading term and first correction of each integrand's
# power-law expansion are integrated analytically
R_MAX = 200.0
N_PANELS = 2048


class QuadratureDiverged(NumericalFailure):
    """Panel refinement failed to reduce the estimated quadrature error."""


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


def _panel_integral(f, r_max: float, n_panels: int) -> float:
    edges = np.linspace(0.0, r_max, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes, weights = leggauss(GL_NODES_PER_PANEL)
    half = 0.5 * (edges[1] - edges[0])
    pts = mids[:, None] + half * nodes[None, :]
    return float(half * np.sum(f(pts) @ weights))


def _tail_w73(r_max: float) -> float:
    # r^4 W^(7/3) = 15^(7/2) (r^-3 - (105/2) r^-5 + ...)
    return 15.0**3.5 / (2.0 * r_max**2) - 15.0**3.5 * 105.0 / (8.0 * r_max**4)


def _tail_lw_sq(r_max: float) -> float:
    # r^4 (LW)^2 = 15^5 ((1/100) r^-2 - (21/20) r^-4 + ...)
    return 15.0**5 / (100.0 * r_max) - 15.0**5 * 7.0 / (20.0 * r_max**3)


def _refinement_failed(coarse: float, mid: float, fine: float) -> bool:
    """True when the two-level error estimate grew under panel halving.

    Estimates below a relative floor are indistinguishable from round-off and
    never count as divergence.
    """
    est_prev = abs(mid - coarse)
    est = abs(fine - mid)
    floor = 1e-13 * (abs(fine) + 1.0)
    return est > max(est_prev, floor)


def verify_kappa() -> KappaReport:
    """Compute both 5-D radial integrals and compare kappa against the closed form.

    Raises QuadratureDiverged when halving the panel width fails to reduce the
    estimated quadrature error for either integrand, a guard of the fixed rule
    against the rounding of the numpy build.
    """
    integrals = []
    for f, tail, name in (
        (_integrand_w73, _tail_w73, "W^(7/3)"),
        (_integrand_lw_sq, _tail_lw_sq, "(LW)^2"),
    ):
        coarse, mid, fine = (
            _panel_integral(f, R_MAX, n) for n in (N_PANELS // 4, N_PANELS // 2, N_PANELS)
        )
        if _refinement_failed(coarse, mid, fine):
            raise QuadratureDiverged(
                f"{name}: error estimate grew under refinement "
                f"({abs(mid - coarse):.3e} -> {abs(fine - mid):.3e})"
            )
        integrals.append(OMEGA4 * (fine + tail(R_MAX)))
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
