"""Bubble-center geometry and the pairwise interaction matrix.

A configuration is K distinct points in R^5.  The coupling between bubbles
j and k is kappa * |z_j - z_k|^-3, collected in a symmetric K x K matrix
with zero diagonal.  Distances are computed once at construction and cached;
downstream modules always read the cache.  Both matrices are computed
elementwise on the full K x K array, and their diagonals then set to zero:
z_j - z_k and z_k - z_j square to the same floats, so symmetry is exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, real

__all__ = [
    "Configuration",
    "InteractionMatrix",
    "DuplicatePoints",
    "BadDimension",
    "TooFewPoints",
    "kappa_closed_form",
    "build_configuration",
    "interaction_matrix",
]

POINT_DIM = 5


class DuplicatePoints(InvalidInput):
    """Two bubble centers coincide (within the duplicate tolerance)."""


class BadDimension(InvalidInput):
    """A point is not a finite 5-vector."""


class TooFewPoints(InvalidInput):
    """Fewer than two bubble centers supplied."""


def kappa_closed_form() -> float:
    """Interaction constant 128*sqrt(15)/(7*pi) ~= 22.5427910971.

    Equals (3/2) * 15^(3/2) * int(W^(7/3)) / ||LW||_L2^2 for the ground state
    W(x) = (1 + |x|^2/15)^(-3/2); the quadrature route is checked against
    this value by the groundstate module.
    """
    return 128.0 * math.sqrt(15.0) / (7.0 * math.pi)


@dataclass(frozen=True)
class Configuration:
    """K pairwise-distinct points in R^5 with cached distance matrix."""

    points: np.ndarray  # (K, 5)
    dist: np.ndarray    # (K, K), symmetric, zero diagonal

    @property
    def K(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class InteractionMatrix:
    """Symmetric coupling matrix m[j][k] = kappa * dist[j][k]^-3, zero diagonal."""

    m: np.ndarray
    kappa: float

    @property
    def K(self) -> int:
        return self.m.shape[0]


def build_configuration(points) -> Configuration:
    """Validate a list of 5-D points and build the cached distance matrix.

    Raises TooFewPoints for K < 2, BadDimension for non-finite or
    wrongly-shaped points, DuplicatePoints when a pairwise distance is below
    1e-12 * (1 + max coordinate magnitude), and InvalidInput when one
    overflows (points about 1e154 apart).
    """
    pts = np.array(points, dtype=float)  # a copy: the caller's array stays writable
    if pts.ndim == 1 and pts.size == 0:
        raise TooFewPoints("need at least 2 points, got 0")
    if pts.ndim != 2 or pts.shape[1] != POINT_DIM:
        raise BadDimension(
            f"points must be vectors of length {POINT_DIM}, got shape {pts.shape}"
        )
    if pts.shape[0] < 2:
        raise TooFewPoints(f"need at least 2 points, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise BadDimension("points contain non-finite coordinates")

    k = pts.shape[0]
    with np.errstate(over="ignore"):  # points 1e154 apart: the square overflows
        dist = np.sqrt(np.add.reduce((pts[:, None] - pts[None]) ** 2, axis=2))
    # the first row-major extremum of a symmetric matrix lies in the upper triangle
    dist.flat[:: k + 1] = math.inf
    near = int(dist.argmin())
    scale = 1.0 + float(np.abs(pts).max())
    if dist.flat[near] < 1e-12 * scale:
        j, l = divmod(near, k)
        raise DuplicatePoints(f"points {j} and {l} coincide (distance {dist[j, l]:.3e})")
    dist.flat[:: k + 1] = 0.0
    far = int(dist.argmax())
    if dist.flat[far] == math.inf:
        j, l = divmod(far, k)
        raise InvalidInput(f"points {j} and {l} are too far apart: their distance overflows")

    pts.setflags(write=False)
    dist.setflags(write=False)
    return Configuration(points=pts, dist=dist)


def interaction_matrix(config: Configuration, kappa: float | None = None) -> InteractionMatrix:
    """Finite coupling matrix for a configuration; kappa defaults to the closed form.

    kappa must be finite and at least sys.float_info.min (no subnormal), never a boolean.
    """
    kappa = kappa_closed_form() if kappa is None else real("kappa", kappa)
    if not kappa >= sys.float_info.min:
        raise InvalidInput(f"kappa must be at least {sys.float_info.min:g}, got {kappa}")
    with np.errstate(over="ignore", divide="ignore"):  # the zero diagonal gives inf
        m = kappa * config.dist**-3.0
    m.flat[:: config.K + 1] = 0.0
    if not np.isfinite(m).all():
        raise InvalidInput(f"couplings kappa / distance^3 are not finite for kappa = {kappa:.3e}")
    m.setflags(write=False)
    return InteractionMatrix(m=m, kappa=kappa)
