"""Bubble-center geometry and the pairwise interaction matrix.

A configuration is K distinct points in R^5.  The coupling between bubbles
j and k is kappa * |z_j - z_k|^-3, collected in a symmetric K x K matrix
with zero diagonal.  Distances are computed once at construction and cached;
downstream modules always read the cache.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = [
    "Configuration",
    "InteractionMatrix",
    "DuplicatePoints",
    "BadDimension",
    "TooFewPoints",
    "kappa_closed_form",
    "build_configuration",
    "interaction_matrix",
    "load_configuration",
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


def _mirrored(k: int, rows, cols, upper) -> np.ndarray:
    """K x K matrix with zero diagonal and the upper triangle copied to the lower.

    Both halves hold the same computed values, so symmetry is exact.
    """
    out = np.zeros((k, k))
    out[rows, cols] = upper
    out[cols, rows] = upper
    return out


def build_configuration(points) -> Configuration:
    """Validate a list of 5-D points and build the cached distance matrix.

    Raises TooFewPoints for K < 2, BadDimension for non-finite or
    wrongly-shaped points, and DuplicatePoints when a pairwise distance is
    below 1e-12 * (1 + max coordinate magnitude).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.size == 0:
        raise TooFewPoints("need at least 2 points, got 0")
    if pts.ndim != 2 or pts.shape[1] != POINT_DIM:
        raise BadDimension(
            f"points must be vectors of length {POINT_DIM}, got shape {pts.shape}"
        )
    if pts.shape[0] < 2:
        raise TooFewPoints(f"need at least 2 points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise BadDimension("points contain non-finite coordinates")

    k = pts.shape[0]
    rows, cols = np.triu_indices(k, 1)
    tri = np.sqrt(np.sum((pts[rows] - pts[cols]) ** 2, axis=1))
    dist = _mirrored(k, rows, cols, tri)

    scale = 1.0 + float(np.max(np.abs(pts)))
    if np.min(tri) < 1e-12 * scale:
        i = int(np.argmin(tri))
        j, l = int(rows[i]), int(cols[i])
        raise DuplicatePoints(f"points {j} and {l} coincide (distance {dist[j, l]:.3e})")

    pts.setflags(write=False)
    dist.setflags(write=False)
    return Configuration(points=pts, dist=dist)


def interaction_matrix(config: Configuration, kappa: float | None = None) -> InteractionMatrix:
    """Coupling matrix for a configuration; kappa defaults to the closed form."""
    if kappa is None:
        kappa = kappa_closed_form()
    if not (kappa > 0):
        raise InvalidInput(f"kappa must be positive, got {kappa}")
    rows, cols = np.triu_indices(config.K, 1)
    m = _mirrored(config.K, rows, cols, kappa * config.dist[rows, cols] ** -3.0)
    m.setflags(write=False)
    return InteractionMatrix(m=m, kappa=float(kappa))


def load_configuration(document: str | dict) -> tuple[Configuration, float]:
    """Ingest {"points": [[...], ...], "kappa": optional} from JSON text or a dict.

    Absent "kappa" means the closed form.  Returns (configuration, kappa).
    """
    if isinstance(document, str):
        doc = json.loads(document)
    else:
        doc = document
    if not isinstance(doc, dict) or "points" not in doc:
        raise InvalidInput('configuration document must be an object with a "points" key')
    kappa = doc.get("kappa")
    if kappa is None:
        kappa = kappa_closed_form()
    kappa = float(kappa)
    if not (kappa > 0 and math.isfinite(kappa)):
        raise InvalidInput(f"kappa must be a positive finite number, got {kappa}")
    return build_configuration(doc["points"]), kappa
