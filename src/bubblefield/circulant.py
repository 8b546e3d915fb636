"""The ten-point two-circle configuration with a closed curve of equilibria.

Ten points sit on two concentric circles in R^5 (radii 1 and sqrt(B)) at
angles theta = pi/5 and 2*theta.  Their interaction matrix is symmetric
circulant with first row (0, d1, d2, d3, d4, d5, d4, d3, d2, d1), so the
spectrum is explicit:

    lambda_m(B) = 2 sum_{r=1..4} d_r(B) cos(m r theta) + (-1)^m d5(B).

At the root B0 of lambda_4 the modes 4 and 6 vanish, and the cosine family

    x_k(t) = a + b cos(t + 2 (k-1) theta)

solves the reduced system for every t: a genuine non-isolated equilibrium
curve.  The coefficients come from lambda_0 and lambda_2 alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    Configuration,
    InteractionMatrix,
    build_configuration,
    interaction_matrix,
    kappa_closed_form,
)
from .equilibrium import ReducedSolution, reduced_residual
from .errors import InvalidInput, NumericalFailure

__all__ = [
    "CirculantFamily",
    "BadIndex",
    "OutOfWindow",
    "THETA",
    "sigma_sq",
    "delta_coeff",
    "points_k10",
    "circulant_eigenvalue",
    "solve_b0",
    "family_coefficients",
    "cube_expansion",
    "build_family",
    "family_member",
    "family_tangent",
    "k10_report",
]

THETA = math.pi / 5.0
K10 = 10


class BadIndex(InvalidInput):
    """Index outside the valid range (r in 1..5, m in 0..9)."""


class OutOfWindow(InvalidInput):
    """lambda_0/lambda_2 outside (3/2, 3): the coefficients are undefined."""


def sigma_sq(r: int, B: float) -> float:
    """Squared cyclic distance 4 sin^2(r pi/10) + 4 B sin^2(r pi/5), r in 1..5."""
    if r not in (1, 2, 3, 4, 5):
        raise BadIndex(f"r must be in 1..5, got {r}")
    if not B > 0:
        raise InvalidInput(f"B must be positive, got {B}")
    return 4.0 * math.sin(r * math.pi / 10.0) ** 2 + 4.0 * B * math.sin(r * math.pi / 5.0) ** 2


def delta_coeff(r: int, B: float, kappa: float) -> float:
    """d_r(B) = kappa * sigma_r(B)^-3, evaluated as a -3/2 power of sigma_r^2."""
    return kappa * sigma_sq(r, B) ** -1.5


def points_k10(B: float) -> Configuration:
    """The ten points (cos k th, sin k th, sqrt(B) cos 2k th, sqrt(B) sin 2k th, 0)."""
    if not B > 0:
        raise InvalidInput(f"B must be positive, got {B}")
    ks = np.arange(K10)
    ang = ks * THETA
    pts = np.stack(
        [
            np.cos(ang),
            np.sin(ang),
            math.sqrt(B) * np.cos(2.0 * ang),
            math.sqrt(B) * np.sin(2.0 * ang),
            np.zeros(K10),
        ],
        axis=1,
    )
    return build_configuration(pts)


def circulant_eigenvalue(m: int, B: float, kappa: float) -> float:
    """lambda_m(B) = 2 sum_{r=1..4} d_r cos(m r theta) + (-1)^m d_5."""
    if m not in range(10):
        raise BadIndex(f"m must be in 0..9, got {m}")
    val = sum(2.0 * delta_coeff(r, B, kappa) * math.cos(m * r * THETA) for r in range(1, 5))
    return val + (-1.0) ** m * delta_coeff(5, B, kappa)


def solve_b0() -> float:
    """Root of lambda_4, bisected in (4.70, 4.71) down to two adjacent floats.

    lambda_4 rises through zero on this bracket and is linear in kappa, so
    B0 is one universal constant; it is evaluated at the closed-form kappa.
    Of the last two endpoints the one with the smaller |lambda_4| is returned.
    """
    kappa = kappa_closed_form()
    f = lambda B: circulant_eigenvalue(4, B, kappa)
    lo, hi = 4.70, 4.71
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return min(lo, hi, key=lambda B: abs(f(B)))


def family_coefficients(lambda0: float, lambda2: float) -> tuple[float, float]:
    """(a, b) = (sqrt(12/(5 l2) - 6/(5 l0)), sqrt(-8/(5 l2) + 24/(5 l0))).

    Defined for l0, l2 > 0 with 3/2 < l0/l2 < 3, which makes both radicands
    positive and a > b > 0.
    """
    if not (lambda0 > 0 and lambda2 > 0):
        raise OutOfWindow(f"need positive eigenvalues, got {lambda0}, {lambda2}")
    ratio = lambda0 / lambda2
    if not (1.5 < ratio < 3.0):
        raise OutOfWindow(f"lambda_0/lambda_2 = {ratio:.6g} outside (3/2, 3)")
    a = math.sqrt(12.0 / (5.0 * lambda2) - 6.0 / (5.0 * lambda0))
    b = math.sqrt(-8.0 / (5.0 * lambda2) + 24.0 / (5.0 * lambda0))
    # a^2 - b^2 = 2 (2 l0 - 3 l2) / (l0 l2), written so that l0 l2 cannot underflow
    ident = a * a - b * b - 2.0 * (2.0 / lambda2 - 3.0 / lambda0)
    if not abs(ident) <= 1e-12 * (a * a + b * b):
        raise NumericalFailure(f"(a, b) = ({a}, {b}) fail a^2 - b^2 = 2 (2/l2 - 3/l0)")
    return a, b


def cube_expansion(a: float, b: float) -> tuple[float, float, float, float]:
    """Coefficients (A0, A1, A2, A3) of (a + b cos t)^3 in the cosine basis:
    A0 = a^3 + 3/2 a b^2, A1 = 3 a^2 b + 3/4 b^3, A2 = 3/2 a b^2, A3 = 1/4 b^3."""
    return (
        a**3 + 1.5 * a * b * b,
        3.0 * a * a * b + 0.75 * b**3,
        1.5 * a * b * b,
        0.25 * b**3,
    )


@dataclass(frozen=True)
class CirculantFamily:
    """Everything fixed by the construction at B0, plus the coupling matrix."""

    b0: float
    lambdas: np.ndarray  # lambda_m(B0), m = 0..9
    coeff_a: float
    coeff_b: float
    kappa: float
    matrix: InteractionMatrix


def build_family(kappa: float | None = None) -> CirculantFamily:
    """Solve for B0 and assemble the verified family data.

    Checks the defining structure at the closed-form kappa: lambda_4 =
    lambda_6 = 0 at B0 (to 1e-10), the spectrum symmetry lambda_{10-m} =
    lambda_m, the coefficient window, and the closure identities
    lambda_0 A0 = 6a, lambda_2 A1 = 6b.  B0 does not depend on kappa, and the
    family at another kappa is that one rescaled: lambda_m by s = kappa /
    kappa_cf, a and b by s^-1/2.  A kappa the interaction matrix rejects, or
    one so small that s underflows, raises InvalidInput.
    """
    b0 = solve_b0()
    matrix = interaction_matrix(points_k10(b0), kappa)  # kappa None means the closed form
    kappa_cf = kappa_closed_form()
    s = matrix.kappa / kappa_cf
    if not s > 0.0:
        raise InvalidInput(f"kappa = {matrix.kappa:.3e} is too small to rescale the family")
    lambdas = np.array([circulant_eigenvalue(m, b0, kappa_cf) for m in range(10)])
    if not (abs(lambdas[4]) <= 1e-10 and abs(lambdas[6]) <= 1e-10):
        raise NumericalFailure("modes 4 and 6 did not vanish at B0")
    if not np.allclose(lambdas[1:], lambdas[:0:-1], rtol=0.0, atol=1e-12):
        raise NumericalFailure("circulant spectrum lost its m <-> 10-m symmetry")
    a, b = family_coefficients(float(lambdas[0]), float(lambdas[2]))
    a0, a1, _, _ = cube_expansion(a, b)
    if abs(lambdas[0] * a0 - 6.0 * a) > 1e-10 or abs(lambdas[2] * a1 - 6.0 * b) > 1e-10:
        raise NumericalFailure("cube-expansion closure identities failed at (a, b)")

    lambdas *= s
    lambdas.setflags(write=False)
    return CirculantFamily(
        b0=b0,
        lambdas=lambdas,
        coeff_a=a / math.sqrt(s),
        coeff_b=b / math.sqrt(s),
        kappa=matrix.kappa,
        matrix=matrix,
    )


def _phases(t: float) -> np.ndarray:
    # reduce each phase mod 2*pi before the cosine so accuracy is uniform in t
    return np.mod(t + 2.0 * np.arange(K10) * THETA, 2.0 * math.pi)


def family_member(t: float, fam: CirculantFamily) -> ReducedSolution:
    """x_k(t) = a + b cos(t + 2 (k-1) theta): a solution for every t."""
    x = fam.coeff_a + fam.coeff_b * np.cos(_phases(t))
    res = reduced_residual(x, fam.matrix)
    nf = float(np.max(np.abs(res)))
    x.setflags(write=False)
    return ReducedSolution(x=x, residual_norm=nf, tolerance=1e-9 * float(np.max(6.0 * x)))


def family_tangent(t: float, fam: CirculantFamily) -> np.ndarray:
    """d/dt of the family member: -b sin(t + 2 (k-1) theta)."""
    return -fam.coeff_b * np.sin(_phases(t))


def k10_report(fam: CirculantFamily) -> dict:
    """Summary dictionary for the CLI: spectrum, coefficients, residuals over 100 members."""
    sols = [family_member(float(t), fam) for t in np.linspace(0.0, math.tau, 100, endpoint=False)]
    max_res = max(s.residual_norm / np.max(np.abs(6.0 * s.x)) for s in sols)
    ks = np.arange(K10)
    kernel = 0.0
    for v in (np.cos(4.0 * ks * THETA), np.sin(4.0 * ks * THETA)):
        kernel = max(kernel, float(np.linalg.norm(fam.matrix.m @ v) / np.linalg.norm(v)))
    return {
        "B0": fam.b0,
        "lambda": [float(x) for x in fam.lambdas],
        "a": fam.coeff_a,
        "b": fam.coeff_b,
        "max_family_residual": float(max_res),
        "kernel_residual": kernel,
    }
