import math

import numpy as np
import pytest

from bubblefield.circulant import (
    THETA,
    BadIndex,
    OutOfWindow,
    build_family,
    circulant_eigenvalue,
    cube_expansion,
    delta_coeff,
    family_coefficients,
    family_member,
    family_tangent,
    k10_report,
    points_k10,
    sigma_sq,
    solve_b0,
)
from bubblefield.config import interaction_matrix
from bubblefield.equilibrium import isolation_check, lift, reduced_jacobian
from bubblefield.errors import InvalidInput, NumericalFailure

# regression fixture: bisection of (4.70, 4.71) to adjacent floats, closed-form kappa
B0_REGRESSION = 4.702313882987461


def sigma_sq_algebraic(r: int, B: float) -> float:
    """Closed algebraic forms of sigma_r^2: the reference sigma_sq is checked against."""
    if r not in (1, 2, 3, 4, 5):
        raise BadIndex(f"r must be in 1..5, got {r}")
    s5 = math.sqrt(5.0)
    table = {
        1: ((3.0 - s5) / 2.0, (5.0 - s5) / 2.0),
        2: ((5.0 - s5) / 2.0, (5.0 + s5) / 2.0),
        3: ((3.0 + s5) / 2.0, (5.0 + s5) / 2.0),
        4: ((5.0 + s5) / 2.0, (5.0 - s5) / 2.0),
        5: (4.0, 0.0),
    }
    c0, c1 = table[r]
    return c0 + c1 * B


def cyclic(j, k):
    d = abs(j - k)
    return min(d, 10 - d)


def test_sigma_sq_special_values():
    for B in (0.1, 1.0, 4.705, 10.0):
        assert sigma_sq(5, B) == 4.0
    # algebraic forms extend continuously to B = 0
    assert abs(sigma_sq_algebraic(1, 0.0) - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-16
    assert abs(sigma_sq(1, 1e-300) - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-15


def test_sigma_sq_trig_vs_algebraic():
    for r in range(1, 6):
        for B in (0.1, 1.0, 4.705, 10.0):
            assert abs(sigma_sq(r, B) - sigma_sq_algebraic(r, B)) <= 1e-14 * (1.0 + B)


def test_bad_indices():
    with pytest.raises(BadIndex):
        sigma_sq(0, 1.0)
    with pytest.raises(BadIndex):
        sigma_sq(6, 1.0)
    with pytest.raises(BadIndex):
        circulant_eigenvalue(10, 1.0, 1.0)
    with pytest.raises(BadIndex):
        circulant_eigenvalue(-1, 1.0, 1.0)
    with pytest.raises(InvalidInput):
        sigma_sq(1, 0.0)
    with pytest.raises(InvalidInput):
        points_k10(0.0)


@pytest.mark.parametrize("B", [0.5, 1.0, 4.702313882987461, 8.0])
def test_points_distances_match_sigma(B):
    cfg = points_k10(B)
    assert cfg.K == 10
    for j in range(10):
        for k in range(10):
            if j == k:
                continue
            assert abs(cfg.dist[j, k] ** 2 - sigma_sq(cyclic(j, k), B)) <= 1e-12


def test_points_on_two_circles():
    cfg = points_k10(1.0)
    radii = np.linalg.norm(cfg.points, axis=1)
    assert np.max(np.abs(radii - math.sqrt(2.0))) <= 1e-14


@pytest.mark.parametrize("B", [2.0, B0_REGRESSION])
def test_interaction_matrix_is_circulant(B):
    cfg = points_k10(B)
    m = interaction_matrix(cfg, 1.0).m
    # row r+1 is row r shifted cyclically by one
    for r in range(9):
        assert np.max(np.abs(np.roll(m[r], 1) - m[r + 1])) <= 1e-13
    # first row (0, d1, d2, d3, d4, d5, d4, d3, d2, d1)
    deltas = [delta_coeff(r, B, 1.0) for r in range(1, 6)]
    expect = [0.0] + deltas + deltas[-2::-1]
    assert np.max(np.abs(m[0] - expect)) <= 1e-13


@pytest.mark.parametrize("B", [1.0, 4.705, 8.0])
def test_spectral_oracle_matrix_times_eigenvector(B, kappa):
    m = interaction_matrix(points_k10(B), kappa).m
    ks = np.arange(10)
    for mode in range(10):
        v = np.cos(mode * ks * THETA)
        lam = circulant_eigenvalue(mode, B, kappa)
        assert np.linalg.norm(m @ v - lam * v) <= 1e-10 * np.linalg.norm(v)


def test_eigen_symmetry_sweep(kappa):
    for B in np.linspace(0.5, 10.0, 20):
        lams = [circulant_eigenvalue(m, float(B), kappa) for m in range(10)]
        for m in range(1, 10):
            assert abs(lams[10 - m] - lams[m]) <= 1e-12 * max(1.0, abs(lams[m]))


@pytest.mark.parametrize("B", [1.0, B0_REGRESSION, 8.0])
def test_spectrum_multiset_matches_dense_solver(B, kappa):
    m = interaction_matrix(points_k10(B), kappa).m
    dense = np.sort(np.linalg.eigvalsh(m))
    analytic = np.sort([circulant_eigenvalue(mode, B, kappa) for mode in range(10)])
    assert np.max(np.abs(dense - analytic)) <= 1e-9


def test_mode4_printed_values(kappa):
    # pinned decimals for lambda_4 on the bracket endpoints
    assert abs(circulant_eigenvalue(4, 4.70, kappa) - (-1.7242975e-3)) <= 1e-9
    assert abs(circulant_eigenvalue(4, 4.71, kappa) - 5.7146524e-3) <= 1e-9


def test_solve_b0(kappa):
    b0 = solve_b0()
    assert 4.70 < b0 < 4.71
    assert abs(circulant_eigenvalue(4, b0, kappa)) <= 1e-12
    assert abs(b0 - B0_REGRESSION) <= 1e-12


def test_mode4_slope_window(kappa):
    # central-difference slope of lambda_4 across the bracket
    h = 1e-6
    for B in np.linspace(4.70, 4.71, 5):
        sl = (
            circulant_eigenvalue(4, B + h, kappa) - circulant_eigenvalue(4, B - h, kappa)
        ) / (2 * h)
        assert 0.7417451 - 1e-4 <= sl <= 0.7460485 + 1e-4


def test_mode0_mode2_printed_values(family):
    assert abs(family.lambdas[0] - 7.8069722) <= 1e-6
    assert abs(family.lambdas[2] - 3.1411361) <= 1e-6


def test_family_invariants(family):
    assert 4.70 < family.b0 < 4.71
    assert abs(family.lambdas[4]) <= 1e-10 and abs(family.lambdas[6]) <= 1e-10
    assert family.lambdas[0] > 0 and family.lambdas[2] > 0
    assert 1.5 < family.lambdas[0] / family.lambdas[2] < 3.0
    assert family.coeff_a > family.coeff_b > 0
    ident = family.coeff_a**2 - family.coeff_b**2
    expect = 2.0 * (2.0 * family.lambdas[0] - 3.0 * family.lambdas[2]) / (
        family.lambdas[0] * family.lambdas[2]
    )
    assert abs(ident - expect) <= 1e-12


def test_family_coefficients_cases():
    with pytest.raises(OutOfWindow):
        family_coefficients(2.0, 2.0)  # ratio 1 < 3/2
    with pytest.raises(OutOfWindow):
        family_coefficients(-1.0, 1.0)
    with pytest.raises(OutOfWindow, match="positive"):
        family_coefficients(-1.0, -0.5)  # ratio 2 is inside the window: not a math ValueError
    a, b = family_coefficients(3.0, 1.5)  # ratio 2
    assert abs(a - math.sqrt(1.2)) <= 1e-15
    assert abs(b - math.sqrt(8.0 / 15.0)) <= 1e-15
    assert a > b
    # l0 l2 under- or overflows: before, a ZeroDivisionError and an AssertionError
    for scale in (1e-200, 1e200):
        got = family_coefficients(3.0 * scale, 1.5 * scale)
        assert np.array(got) * math.sqrt(scale) == pytest.approx([a, b], rel=1e-12)
    # a and b are not finite: before, a ZeroDivisionError escaped
    for lambda0, lambda2 in ((3e-310, 1.5e-310), (1.7e-308, 1e-308)):
        with pytest.raises(NumericalFailure, match="fail"):
            family_coefficients(lambda0, lambda2)


def test_cube_expansion():
    assert cube_expansion(1.0, 0.0) == (1.0, 0.0, 0.0, 0.0)
    assert cube_expansion(0.0, 1.0) == (0.0, 0.75, 0.0, 0.25)
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b, t = rng.uniform(-2.0, 2.0, size=3)
        a0, a1, a2, a3 = cube_expansion(a, b)
        val = a0 + a1 * math.cos(t) + a2 * math.cos(2 * t) + a3 * math.cos(3 * t)
        assert abs(val - (a + b * math.cos(t)) ** 3) <= 1e-12


def test_closure_identities(family):
    a0, a1, _, _ = cube_expansion(family.coeff_a, family.coeff_b)
    assert abs(family.lambdas[0] * a0 - 6.0 * family.coeff_a) <= 1e-12
    assert abs(family.lambdas[2] * a1 - 6.0 * family.coeff_b) <= 1e-12


def test_family_member_structure(family):
    x0 = family_member(0.0, family).x
    assert abs(x0[0] - (family.coeff_a + family.coeff_b)) <= 1e-15
    # periodicity and one-step cyclic shift under t -> t + 2 theta
    t = 0.9
    xt = family_member(t, family).x
    assert np.max(np.abs(family_member(t + 2 * math.pi, family).x - xt)) <= 1e-14
    shifted = family_member(t + 2 * THETA, family).x
    assert np.max(np.abs(shifted - np.roll(xt, -1))) <= 1e-14
    assert np.min(xt) >= family.coeff_a - family.coeff_b - 1e-15 > 0


@pytest.mark.parametrize("t", [0.0, 0.37, math.pi / 3.0, 1.9, 5.5])
def test_family_member_residual(t, family):
    sol = family_member(t, family)
    assert sol.residual_norm <= 1e-9 * np.max(np.abs(6.0 * sol.x))


def test_family_tangent_in_jacobian_kernel(family):
    for t in np.linspace(0.0, 2.0 * math.pi, 17):
        sol = family_member(float(t), family)
        j = reduced_jacobian(sol.x, family.matrix)
        tan = family_tangent(float(t), family)
        assert np.linalg.norm(j @ tan) <= 1e-7 * np.linalg.norm(j, 2)


def test_zero_modes_of_interaction_matrix(family):
    ks = np.arange(10)
    for v in (np.cos(4.0 * ks * THETA), np.sin(4.0 * ks * THETA)):
        assert np.linalg.norm(family.matrix.m @ v) <= 1e-8 * np.linalg.norm(v)


def test_family_member_not_isolated(family):
    import bubblefield.equilibrium as eq

    for t in (0.0, 0.37, 1.23):
        sol = family_member(t, family)
        rep = isolation_check(sol, family.matrix)
        # the Krawczyk test fails: the preconditioner C from the spectrum cuts the
        # curve's tangent, so I - C J keeps a unit direction and no box x +- rho
        # contracts; there is no existence or uniqueness ball
        x = sol.x
        _, v, r, _ = eq._spectrum(x, family.matrix)
        c = (v * r) @ v.T * x / x[:, None]
        assert np.abs(np.eye(10) - c @ reduced_jacobian(x, family.matrix)).sum(axis=1).max() >= 1.0
        assert not rep.isolated
        assert rep.existence_radius == math.inf and rep.uniqueness_radius == 0.0
        assert rep.eig18_residual <= 1e-8
        assert np.min(np.abs(6.0 - rep.eigenvalues)) <= 1e-6


def test_member_close_to_curve_sampling(family):
    # distance from one member's lift to a 100-point sampling of the curve
    # stays below the sampling resolution (max chord between samples)
    ts = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    lifts = []
    for t in ts:
        eq = lift(family_member(float(t), family))
        lifts.append(np.concatenate([eq.a, eq.c]))
    lifts = np.array(lifts)
    chords = np.max(
        np.abs(np.diff(np.vstack([lifts, lifts[:1]]), axis=0)), axis=1
    )
    resolution = float(np.max(chords))
    probe = lift(family_member(0.123456, family))
    probe_vec = np.concatenate([probe.a, probe.c])
    dist = float(np.min(np.max(np.abs(lifts - probe_vec), axis=1)))
    assert dist <= resolution


def test_k10_report_fields(family):
    rep = k10_report(family)
    assert set(rep) == {"B0", "lambda", "a", "b", "max_family_residual", "kernel_residual"}
    assert rep["B0"] == family.b0
    assert len(rep["lambda"]) == 10
    assert rep["max_family_residual"] <= 1e-9
    assert rep["kernel_residual"] <= 1e-8
    # the larger ||m v|| / ||v|| of the mode-4 pair, which rounding keeps off 0
    ks = np.arange(10)
    pair = (np.cos(4.0 * ks * THETA), np.sin(4.0 * ks * THETA))
    kernel = max(float(np.linalg.norm(family.matrix.m @ v) / np.linalg.norm(v)) for v in pair)
    assert rep["kernel_residual"] == kernel > 0.0


@pytest.mark.parametrize(
    "name, broken, match",
    [
        ("solve_b0", lambda orig: lambda: 4.70, "modes 4 and 6"),
        ("circulant_eigenvalue", lambda orig: lambda m, B, k: orig(m, B, k) + 1e-9 * (m == 9),
         "symmetry"),
        ("cube_expansion", lambda orig: lambda a, b: (orig(a, b)[0] * (1.0 + 1e-9),) + orig(a, b)[1:],
         "closure"),
    ],
)
def test_build_family_checks_its_structure(monkeypatch, name, broken, match):
    # each identity build_family checks, broken alone, is a NumericalFailure: lambda_4 = 0
    # at B0 (here a B off the root), lambda_{10-m} = lambda_m and lambda_0 A0 = 6a
    import bubblefield.circulant as circ

    monkeypatch.setattr(circ, name, broken(getattr(circ, name)))
    with pytest.raises(NumericalFailure, match=match):
        build_family()


@pytest.mark.parametrize("k", [1e5, 1e-4, 1e-200, 1e200])
def test_build_family_at_any_kappa(family, k):
    # lambda_m is linear in kappa and B0 does not depend on it: the checks
    # run at the closed form instead of failing far from it (before, a
    # ZeroDivisionError at 1e-200 and an AssertionError at 1e200)
    fam = build_family(k)
    assert abs(fam.b0 - family.b0) <= np.spacing(family.b0)
    scale = np.max(np.abs(family.lambdas)) / family.matrix.kappa
    assert np.max(np.abs(fam.lambdas / k - family.lambdas / family.matrix.kappa)) <= 1e-12 * scale
    for got, ref in ((fam.coeff_a, family.coeff_a), (fam.coeff_b, family.coeff_b)):
        assert abs(got * math.sqrt(k) - ref * math.sqrt(family.matrix.kappa)) <= 1e-12


def test_build_family_rescales_with_kappa(family):
    # the family at kappa is the closed-form one rescaled, lambda by kappa / kappa_cf and
    # a, b by (kappa_cf / kappa)^(1/2), with B0 unchanged: so k10 takes no kappa
    for k in (6.0, 30.0):
        fam = build_family(k)
        s = k / family.matrix.kappa
        assert fam.matrix.kappa == k and fam.b0 == family.b0
        scale = s * np.max(np.abs(family.lambdas))
        assert np.max(np.abs(fam.lambdas - s * family.lambdas)) <= 1e-14 * scale
        for got, ref in ((fam.coeff_a, family.coeff_a), (fam.coeff_b, family.coeff_b)):
            assert got == pytest.approx(ref / math.sqrt(s), rel=1e-14)


@pytest.mark.parametrize(
    "k", [0.0, -1.0, math.nan, math.inf, 5e-324, True, pytest.param(np.True_, id="np.True_")]
)
def test_build_family_rejects_a_bad_kappa(k):
    # before, OutOfWindow (0, and 5e-324, whose eigenvalues underflow to 0),
    # NumericalFailure "modes 4 and 6 did not vanish at B0" (-1, nan, inf) and,
    # for a boolean, the family at kappa = 1
    with pytest.raises(InvalidInput, match="kappa"):
        build_family(k)
