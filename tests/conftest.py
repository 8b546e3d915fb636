import faulthandler
import os

import numpy as np
import pytest

from bubblefield import (
    build_configuration,
    build_family,
    interaction_matrix,
    kappa_closed_form,
    points_k10,
    solve_b0,
)

_stderr = None


def pytest_configure(config):
    # the watchdog's traceback goes to a copy of fd 2, which pytest's capture leaves alone
    global _stderr
    _stderr = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    _stderr.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # a test still running after 60 s (the slowest takes about 3) ends the run with
    # the traceback of every thread: a statement that stops a loop from advancing
    # then fails within a minute instead of hanging
    faulthandler.dump_traceback_later(60, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


# the K = 10 points P0 = points_k10(B0), on the configuration of the curve of
# solutions, and P0 moved off it: points_k10(B0 (1 + eps)), which keeps m
# circulant, and P0 + eps N, each N a 10 x 5 standard normal drawn in this
# order from default_rng(3)
NEAR_CURVE_B0 = (1e-2, -1e-2, 1e-3, -1e-3, 1e-4, -1e-4, 1e-6, -1e-6)
NEAR_CURVE_NOISE = (1e-2, 1e-3, 1e-4)
NEAR_CURVE = (
    ("P0",)
    + tuple(f"B0(1{e:+.0e})".replace("e-0", "e-") for e in NEAR_CURVE_B0)
    + tuple(f"P0+{e:.0e}N".replace("e-0", "e-") for e in NEAR_CURVE_NOISE)
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


@pytest.fixture(scope="session")
def near_curve():
    """The interaction matrix of each NEAR_CURVE configuration, by name."""
    b0 = solve_b0()
    p0 = points_k10(b0).points
    rng = np.random.default_rng(3)
    pools = [p0] + [points_k10(b0 * (1.0 + e)).points for e in NEAR_CURVE_B0]
    pools += [p0 + e * rng.normal(size=(10, 5)) for e in NEAR_CURVE_NOISE]
    return {
        name: interaction_matrix(build_configuration(pts)) for name, pts in zip(NEAR_CURVE, pools)
    }


def assert_same_text(got: str, want: str) -> None:
    """got == want exactly; a mismatch names the first line that differs.

    pytest's own report of a failed == on two texts diffs them whole, which takes
    minutes on a CSV of a megabyte.
    """
    __tracebackhide__ = True
    if got == want:
        return
    a, b = got.split("\n"), want.split("\n")
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = [t[i] if i < len(t) else "<end of text>" for t in (a, b)]
    pytest.fail(f"line {i + 1} differs: {line[0]!r}, expected {line[1]!r} "
                f"({len(a)} lines, expected {len(b)})", pytrace=False)


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


def lyapunov_gradient(state, m):
    """(dL/dalpha, dL/dbeta) of dynamics.lyapunov at one state, in closed form."""
    a, b = state.alpha, state.beta
    galpha = 2.0 * (2.0 * a - b) + 6.0 * a - np.sqrt(a) * (m.m @ a**1.5)
    return galpha, -(2.0 * a - b)


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
