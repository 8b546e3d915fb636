import numpy as np
import pytest

from bubblefield import (
    build_configuration,
    build_family,
    interaction_matrix,
    kappa_closed_form,
)


@pytest.fixture(scope="session")
def kappa():
    return kappa_closed_form()


@pytest.fixture(scope="session")
def k2_matrix():
    """Two bubbles at unit separation, closed-form kappa."""
    cfg = build_configuration([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]])
    return interaction_matrix(cfg)


@pytest.fixture(scope="session")
def k3_equilateral():
    """Equilateral triangle with unit side in the first two coordinates."""
    pts = np.zeros((3, 5))
    pts[1, 0] = 1.0
    pts[2, 0] = 0.5
    pts[2, 1] = np.sqrt(3.0) / 2.0
    cfg = build_configuration(pts)
    return interaction_matrix(cfg)


@pytest.fixture(scope="session")
def family():
    """The ten-point configuration at the root of the mode-4 eigenvalue."""
    return build_family()


def signs(eigenvalues) -> str:
    """'-', '0' or '+' per eigenvalue, '0' within 1e-10 max(max |mu|, 1) of zero."""
    e = np.asarray(eigenvalues)
    zero = 1e-10 * max(float(np.abs(e).max()), 1.0)
    return "".join("0" if abs(v) <= zero else "-+"[bool(v > 0)] for v in e)


def flow_jacobian(eq, m):
    """Analytic Jacobian of the autonomous flow at the equilibrium (eq.a, eq.c)."""
    a = eq.a
    eye = np.eye(eq.K)
    dn = np.diag(0.5 * (m.m @ a**1.5) / np.sqrt(a)) + 1.5 * np.sqrt(np.outer(a, a)) * m.m
    return np.block([[2.0 * eye, -eye], [-dn, 3.0 * eye]])


def random_matrix(K, rng, kappa=None, min_sep=0.2):
    """A well-separated random configuration's interaction matrix.

    min_sep > 1 rescales the points so every coupling entry is at most
    kappa; finite-difference checks need that to stay clear of float
    cancellation.
    """
    while True:
        pts = rng.normal(size=(K, 5))
        cfg = build_configuration(pts)
        rows, cols = np.triu_indices(K, 1)
        sep = np.min(cfg.dist[rows, cols])
        if sep > 0.2:
            if min_sep > sep:
                cfg = build_configuration(pts * (min_sep / sep))
            return interaction_matrix(cfg, kappa)
