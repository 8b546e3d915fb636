import math

import numpy as np
import pytest

from bubblefield.groundstate import (
    N_PANELS,
    OMEGA4,
    R_MAX,
    KappaReport,
    _integrand_lw_sq,
    _integrand_w73,
    _panel_integral,
    _refinement_failed,
    _tail_lw_sq,
    _tail_w73,
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
    assert rep.rel_error <= 1e-6


def test_verify_kappa_integrates_each_level_once(monkeypatch):
    # the finest level of the refinement check is the reported integral
    import bubblefield.groundstate as gs

    levels = []
    panel = gs._panel_integral
    monkeypatch.setattr(gs, "_panel_integral", lambda f, *a: levels.append(a[1]) or panel(f, *a))
    verify_kappa()
    assert sorted(levels) == [512, 512, 1024, 1024, 2048, 2048]


def test_verify_kappa_raises_when_refinement_diverges(monkeypatch):
    # panel sums whose differences grow from 512 to 1024 to 2048 panels
    import bubblefield.groundstate as gs

    monkeypatch.setattr(gs, "_panel_integral", lambda f, r_max, n: float(n))
    with pytest.raises(gs.QuadratureDiverged, match=r"W\^\(7/3\).*5\.120e\+02 -> 1\.024e\+03"):
        verify_kappa()


# closed forms: int W^(7/3) dx = 8 pi^2 15^(3/2), ||LW||^2 = (63 pi/256) 15^(5/2) * (8 pi^2/3)
EXACT_W73 = 8.0 * math.pi**2 * 15.0**1.5
EXACT_LW_SQ = (8.0 * math.pi**2 / 3.0) * 15.0**2.5 * (9.0 / 4.0) * (7.0 * math.pi / 64.0)


def test_verify_kappa_exact_integrals():
    rep = verify_kappa()
    assert abs(rep.integral_w73 - EXACT_W73) <= 1e-7 * EXACT_W73
    assert abs(rep.norm_lw_sq - EXACT_LW_SQ) <= 1e-7 * EXACT_LW_SQ


def test_refinement_does_not_worsen():
    # twice the panels of the fixed rule lands no farther from the closed forms
    for f, tail, exact in (
        (_integrand_w73, _tail_w73, EXACT_W73),
        (_integrand_lw_sq, _tail_lw_sq, EXACT_LW_SQ),
    ):
        base, fine = (
            abs(OMEGA4 * (_panel_integral(f, R_MAX, n) + tail(R_MAX)) - exact) / exact
            for n in (N_PANELS, 2 * N_PANELS)
        )
        assert fine <= 2.0 * base + 1e-15


def test_refinement_divergence_detection():
    # healthy refinement: error estimates shrink
    assert not _refinement_failed(1.0, 1.01, 1.011)
    # round-off plateau never counts as divergence
    assert not _refinement_failed(1.0, 1.0 + 1e-16, 1.0 + 3e-16)
    # growing estimate on a resolved integral is flagged
    assert _refinement_failed(1.0, 1.001, 1.005)


def test_tail_scales_like_inverse_square():
    # tail of the W^(7/3) radial integral beyond r_max ~ r_max^-2 for large r_max
    assert abs(_tail_w73(1e4) / _tail_w73(2e4) - 4.0) < 1e-5
    # truncation-point independence: panel + tail must agree across r_max
    # (two-term tails leave a ~r_max^-6 remainder, negligible from 200 up)
    f = lambda r: r**4 * ground_state(r) ** (7.0 / 3.0)
    full = {
        rm: _panel_integral(f, rm, 2048) + _tail_w73(rm)
        for rm in (200.0, 400.0)
    }
    assert abs(full[200.0] - full[400.0]) <= 1e-9 * full[400.0]
    # exact value of the radial integral: 15^(5/2) / 5
    assert abs(full[400.0] - 15.0**2.5 / 5.0) <= 1e-9 * full[400.0]


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
