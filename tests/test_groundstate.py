import math

import numpy as np
import pytest

import bubblefield
from bubblefield.groundstate import (
    N_PANELS,
    OMEGA4,
    KappaReport,
    QuadratureDiverged,
    _integrand_lw_sq,
    _integrand_w73,
    _panel_integral,
    ground_state,
    ground_state_prime,
    lambda_w,
    verify_kappa,
)


def test_ground_state_values():
    assert ground_state(0.0) == 1.0
    assert abs(ground_state(math.sqrt(15.0)) - 2.0**-1.5) <= 1e-16


def test_scalar_in_scalar_out():
    # a float argument gives a Python float, as the docstrings' "scalars or arrays" say
    for fn in (ground_state, ground_state_prime, lambda_w):
        assert type(fn(2.0)) is float
    assert ground_state_prime(2.0) == -(2.0 / 5.0) * (1.0 + 4.0 / 15.0) ** -2.5


def test_ground_state_tail():
    # r^3 W(r) -> 15^(3/2)
    r = 1e4
    assert abs(r**3 * ground_state(r) - 15.0**1.5) <= 1e-6 * 15.0**1.5


def test_ground_state_monotone():
    rng = np.random.default_rng(0)
    r = np.sort(rng.uniform(0.0, 100.0, size=200))
    w = ground_state(r)
    assert np.all(np.diff(w) < 0)


def test_lambda_w_origin():
    assert lambda_w(0.0) == 1.5


def test_lambda_w_matches_scaling_derivative():
    # oracle: central difference of lam -> lam^(-3/2) W(r/lam) at lam = 1
    h = 1e-5
    for r in (0.5, 1.0, 5.0):
        num = -(
            (1 + h) ** -1.5 * ground_state(r / (1 + h))
            - (1 - h) ** -1.5 * ground_state(r / (1 - h))
        ) / (2 * h)
        assert abs(lambda_w(r) - num) <= 1e-7


def test_lambda_w_tail():
    # r^3 LW(r) -> -(3/2) 15^(3/2)
    r = 1e4
    target = -1.5 * 15.0**1.5
    assert abs(r**3 * lambda_w(r) - target) <= 1e-5 * abs(target)


def ground_state_second(r):
    """W''(r) = -(1/5)(1 + r^2/15)^(-5/2) + (r^2/15)(1 + r^2/15)^(-7/2)."""
    q = 1.0 + r * r / 15.0
    return -0.2 * q**-2.5 + (r * r / 15.0) * q**-3.5


def test_radial_ode_residual():
    # W'' + (4/r) W' + W^(7/3) = 0
    rng = np.random.default_rng(1)
    r = rng.uniform(0.1, 50.0, size=100)
    res = ground_state_second(r) + 4.0 / r * ground_state_prime(r) + ground_state(r) ** (7.0 / 3.0)
    assert np.max(np.abs(res)) <= 1e-9


def test_verify_kappa_default():
    rep = verify_kappa()
    assert rep.integral_w73 > 0 and rep.norm_lw_sq > 0
    assert rep.kappa_quadrature == 1.5 * 15.0**1.5 * rep.integral_w73 / rep.norm_lw_sq
    assert rep.rel_error <= 1e-14


def test_verify_kappa_integrates_each_level_once(monkeypatch):
    # the finer level of the check is the reported integral
    import bubblefield.groundstate as gs

    levels = []
    panel = gs._panel_integral
    monkeypatch.setattr(gs, "_panel_integral", lambda f, n: levels.append(n) or panel(f, n))
    verify_kappa()
    assert sorted(levels) == [32, 32, 64, 64]


def test_verify_kappa_raises_when_refinement_diverges(monkeypatch):
    # 32- and 64-panel sums of one integrand that differ by 64 - 32, far above round-off
    import bubblefield.groundstate as gs

    panel = gs._panel_integral
    for bad, name in ((_integrand_w73, r"W\^\(7/3\)"), (_integrand_lw_sq, r"\(LW\)\^2")):
        monkeypatch.setattr(
            gs, "_panel_integral", lambda f, n, bad=bad: panel(f, n) + (n if f is bad else 0.0)
        )
        with pytest.raises(QuadratureDiverged, match=name + r": 32 and 64 panels differ by 3\.2"):
            verify_kappa()


def test_guard_rejects_an_unconverged_rule(monkeypatch):
    # at 16 panels the 8- and 16-panel sums still differ by 10 and 22 times the
    # round-off floor, so the check refuses the coarser rule
    import bubblefield.groundstate as gs

    monkeypatch.setattr(gs, "N_PANELS", 16)
    with pytest.raises(QuadratureDiverged, match=r"W\^\(7/3\): 8 and 16 panels"):
        verify_kappa()


# closed forms: int W^(7/3) dx = 8 pi^2 15^(3/2), ||LW||^2 = (63 pi/256) 15^(5/2) * (8 pi^2/3)
EXACT_W73 = 8.0 * math.pi**2 * 15.0**1.5
EXACT_LW_SQ = (8.0 * math.pi**2 / 3.0) * 15.0**2.5 * (9.0 / 4.0) * (7.0 * math.pi / 64.0)


def test_verify_kappa_exact_integrals():
    rep = verify_kappa()
    assert abs(rep.integral_w73 - EXACT_W73) <= 1e-14 * EXACT_W73
    assert abs(rep.norm_lw_sq - EXACT_LW_SQ) <= 1e-14 * EXACT_LW_SQ


def test_refinement_does_not_worsen():
    # twice the panels of the fixed rule lands no farther from the closed forms
    for f, exact in ((_integrand_w73, EXACT_W73), (_integrand_lw_sq, EXACT_LW_SQ)):
        base, fine = (
            abs(OMEGA4 * _panel_integral(f, n) - exact) / exact for n in (N_PANELS, 2 * N_PANELS)
        )
        assert fine <= 2.0 * base + 1e-15


def test_report_serialization_roundtrip():
    # the kappa-check artifact serializes the report with dataclasses.asdict
    import dataclasses
    import json

    rep = verify_kappa()
    doc = json.loads(json.dumps(dataclasses.asdict(rep)))
    assert doc["kappa_closed"] == rep.kappa_closed
    assert set(doc) == {
        "integral_w73",
        "norm_lw_sq",
        "kappa_quadrature",
        "kappa_closed",
        "rel_error",
    }
    assert KappaReport(**doc) == rep


def test_package_exports_the_groundstate_api():
    # the library is used as `import bubblefield as bf`, so the names reach the package
    exported = (bubblefield.KappaReport, bubblefield.QuadratureDiverged, bubblefield.ground_state,
                bubblefield.lambda_w, bubblefield.verify_kappa)
    assert exported == (KappaReport, QuadratureDiverged, ground_state, lambda_w, verify_kappa)
