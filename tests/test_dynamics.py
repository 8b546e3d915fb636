import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bubblefield import dynamics
from bubblefield.dynamics import (
    AlphaCollapse,
    EmptySet,
    IntegratorOptions,
    NegativeAlpha,
    PerturbationSchedule,
    StepUnderflow,
    Trajectory,
    TrajectoryState,
    WindowTooLarge,
    distance_to_set,
    integrate,
    lyapunov,
    lyapunov_rate,
    omega_limit_estimate,
    to_physical,
    trajectory_csv,
    vector_field,
)
from bubblefield.circulant import family_member
from bubblefield.config import InteractionMatrix, build_configuration, interaction_matrix
from bubblefield.equilibrium import (
    EquilibriumPoint, SolverOptions, k2_closed_form, lift, solve_equilibria,
)
from bubblefield.errors import InvalidInput

from conftest import assert_same_text, lyapunov_gradient, random_matrix

ZERO = PerturbationSchedule("zero")


def k2_equilibrium(m):
    return lift(solve_equilibria(m)[0])


def state_at(eq, t=0.0):
    return TrajectoryState(t=t, alpha=eq.a.copy(), beta=eq.c.copy())


def states(traj):
    """Each sample of a trajectory as one TrajectoryState."""
    return [TrajectoryState(float(t), a, b) for t, a, b in zip(traj.ts, traj.alpha, traj.beta)]


def test_field_vanishes_at_equilibria(k2_matrix, k3_equilateral):
    for m in (k2_matrix, k3_equilateral):
        for sol in solve_equilibria(m):
            eq = lift(sol)
            st = state_at(eq)
            da, db = vector_field(st, m)
            scale = 1.0 + max(np.max(np.abs(eq.a)), np.max(np.abs(eq.c)))
            assert np.max(np.abs(da)) <= 1e-10 * scale
            assert np.max(np.abs(db)) <= 1e-10 * scale


def test_field_closed_case(k2_matrix, kappa):
    st = TrajectoryState(0.0, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    da, db = vector_field(st, k2_matrix)
    assert np.array_equal(da, [2.0, 2.0])
    assert np.max(np.abs(db + kappa)) <= 1e-14 * kappa
    with pytest.raises(NegativeAlpha):
        vector_field(TrajectoryState(0.0, np.array([1.0, 0.0]), np.zeros(2)), k2_matrix)


def test_field_two_term_scaling(k2_matrix):
    # dbeta(s*alpha, s*beta) = 3 s beta + s^2 * dbeta(alpha, 0)
    rng = np.random.default_rng(4)
    alpha = rng.uniform(0.5, 2.0, size=2)
    beta = rng.uniform(-1.0, 1.0, size=2)
    s = 1.7
    _, db_scaled = vector_field(TrajectoryState(0.0, s * alpha, s * beta), k2_matrix)
    _, db_pure = vector_field(TrajectoryState(0.0, alpha, np.zeros(2)), k2_matrix)
    expect = 3.0 * s * beta + s**2 * db_pure
    assert np.max(np.abs(db_scaled - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_lyapunov_values(k2_matrix, kappa):
    z = TrajectoryState(0.0, np.zeros(2), np.zeros(2))
    assert lyapunov(z, k2_matrix) == 0.0
    st = TrajectoryState(0.0, np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    assert abs(lyapunov(st, k2_matrix) - (6.0 - 2.0 * kappa / 3.0)) <= 1e-13 * kappa


def test_lyapunov_rejects_negative_alpha(k2_matrix):
    st = TrajectoryState(0.0, np.array([1.0, -1.0]), np.zeros(2))
    with pytest.raises(NegativeAlpha, match="got min -1"):
        lyapunov(st, k2_matrix)


def test_lyapunov_rate_values():
    st = TrajectoryState(0.0, np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    assert lyapunov_rate(st) == 0.0
    st1 = TrajectoryState(0.0, np.array([1.0]), np.array([0.0]))
    assert lyapunov_rate(st1) == 20.0


@pytest.mark.parametrize("K", [2, 3, 5, 10])
def test_lyapunov_gradient_finite_differences(K):
    rng = np.random.default_rng(300 + K)
    m = random_matrix(K, rng)
    alpha = rng.uniform(0.5, 2.0, size=K)
    beta = rng.uniform(-1.0, 2.0, size=K)
    ga, gb = lyapunov_gradient(TrajectoryState(0.0, alpha, beta), m)
    h = 1e-5
    for i in range(K):
        e = np.zeros(K)
        e[i] = h
        fa = (
            lyapunov(TrajectoryState(0.0, alpha + e, beta), m)
            - lyapunov(TrajectoryState(0.0, alpha - e, beta), m)
        ) / (2 * h)
        fb = (
            lyapunov(TrajectoryState(0.0, alpha, beta + e), m)
            - lyapunov(TrajectoryState(0.0, alpha, beta - e), m)
        ) / (2 * h)
        assert abs(ga[i] - fa) <= 1e-6 * (1.0 + abs(ga[i]))
        assert abs(gb[i] - fb) <= 1e-6 * (1.0 + abs(gb[i]))


def test_rate_is_chain_rule_of_lyapunov(k2_matrix):
    # dL/dt = grad L . field = 5 sum (2a - b)^2 along the autonomous flow
    rng = np.random.default_rng(8)
    m = k2_matrix
    alpha = rng.uniform(0.5, 2.0, size=2)
    beta = rng.uniform(-0.5, 2.0, size=2)
    st = TrajectoryState(0.0, alpha, beta)
    ga, gb = lyapunov_gradient(st, m)
    da, db = vector_field(st, m)
    assert abs((ga @ da + gb @ db) - lyapunov_rate(st)) <= 1e-10 * (1 + lyapunov_rate(st))


def test_equilibrium_is_invariant(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    traj = integrate(state_at(eq), k2_matrix, ZERO, 10.0, equilibria=[eq])
    assert np.max(traj.dist_to_eq) <= 1e-9
    assert np.all(np.diff(traj.ts) > 0)
    # stationary trajectory: rate at machine zero forces a vanishing field
    assert np.max(traj.lyapunov_rate) < 1e-14
    for st in states(traj):
        da, db = vector_field(st, k2_matrix)
        assert max(np.max(np.abs(da)), np.max(np.abs(db))) < 1e-6


def test_lyapunov_monotone_on_autonomous_runs(k2_matrix):
    # horizon 0.7: the seeded perturbations all stay in the admissible
    # alpha > 0 region that long (equilibria are unstable saddles)
    eq = k2_equilibrium(k2_matrix)
    rng = np.random.default_rng(17)
    for _ in range(5):
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        alpha = eq.a + 1e-2 * d[:2]
        beta = eq.c + 1e-2 * d[2:]
        if np.max(np.abs(beta - 2 * alpha)) < 1e-4:  # keep off the stationary slice
            beta = beta + 1e-3
        traj = integrate(TrajectoryState(0.0, alpha, beta), k2_matrix, ZERO, 0.7)
        drops = np.diff(traj.lyapunov) + 1e-9 * (1.0 + np.abs(traj.lyapunov[:-1]))
        assert np.all(drops >= 0)


def test_dissipation_identity_second_order(k2_matrix):
    # (L(t+h) - L(t))/h ~ rate(midpoint) with O(h^2) defect
    eq = k2_equilibrium(k2_matrix)
    rng = np.random.default_rng(7)
    d = rng.normal(size=4)
    d /= np.linalg.norm(d)
    start = TrajectoryState(0.0, eq.a + 1e-2 * d[:2], eq.c + 1e-2 * d[2:])
    lead = integrate(start, k2_matrix, ZERO, 0.2, IntegratorOptions(rtol=1e-12, sample_dt=0.2))
    base = TrajectoryState(0.0, lead.alpha[-1], lead.beta[-1])
    defects = []
    for h in (1e-2, 5e-3, 2.5e-3):
        tr = integrate(
            base, k2_matrix, ZERO, h, IntegratorOptions(rtol=1e-12, atol=1e-14, sample_dt=h / 2)
        )
        mid = TrajectoryState(0.0, tr.alpha[1], tr.beta[1])
        defects.append(abs((tr.lyapunov[-1] - tr.lyapunov[0]) / h - lyapunov_rate(mid)))
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.3)
    assert defects[1] / defects[2] == pytest.approx(4.0, rel=0.3)
    # the spec's quoted scale: h = 1e-3 matches within 1e-4 relative
    h = 1e-3
    tr = integrate(
        base, k2_matrix, ZERO, h, IntegratorOptions(rtol=1e-12, atol=1e-14, sample_dt=h / 2)
    )
    mid = TrajectoryState(0.0, tr.alpha[1], tr.beta[1])
    rate = lyapunov_rate(mid)
    assert abs((tr.lyapunov[-1] - tr.lyapunov[0]) / h - rate) <= 1e-4 * rate


def test_integrator_self_convergence(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    rng = np.random.default_rng(7)
    d = rng.normal(size=4)
    d /= np.linalg.norm(d)
    start = TrajectoryState(0.0, eq.a + 1e-2 * d[:2], eq.c + 1e-2 * d[2:])
    ref = integrate(
        start, k2_matrix, ZERO, 1.0, IntegratorOptions(rtol=1e-12, atol=1e-14, sample_dt=1.0)
    )
    errs = []
    for rtol in (1e-5, 1e-7, 1e-9):
        tr = integrate(
            start,
            k2_matrix,
            ZERO,
            1.0,
            IntegratorOptions(rtol=rtol, atol=rtol * 1e-3, sample_dt=1.0),
        )
        errs.append(
            max(
                float(np.max(np.abs(tr.alpha[-1] - ref.alpha[-1]))),
                float(np.max(np.abs(tr.beta[-1] - ref.beta[-1]))),
            )
        )
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-6


def test_alpha_collapse_reports_exit_time(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    with pytest.raises(AlphaCollapse) as exc:
        integrate(TrajectoryState(0.0, 0.8 * eq.a, 1.6 * eq.a), k2_matrix, ZERO, 40.0)
    assert 0.0 < exc.value.t_exit < 40.0
    assert str(exc.value) == f"alpha fell below the floor 1e-08 at t={exc.value.t_exit:.6g}"


def test_step_underflow_on_blowup(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    sch = PerturbationSchedule("exponential", amplitude=0.1, rate=1.0)
    # the generic start criterion 8 used to prescribe: it lies off the stable set and diverges
    with pytest.raises(StepUnderflow):
        integrate(TrajectoryState(0.0, 1.2 * eq.a, 2.4 * eq.a), k2_matrix, sch, 40.0)


def test_perturbation_schedules():
    with pytest.raises(InvalidInput):
        PerturbationSchedule("constant")
    with pytest.raises(InvalidInput):
        PerturbationSchedule("exponential", amplitude=-1.0)
    with pytest.raises(InvalidInput):
        PerturbationSchedule("power", amplitude=1.0, rate=0.0)
    exp = PerturbationSchedule("exponential", amplitude=0.5, rate=2.0)
    assert np.allclose(exp.eps1(0.0, 2), [0.5, 0.5])
    assert np.max(exp.eps1(40.0, 2)) < 1e-30
    pw = PerturbationSchedule("power", amplitude=1.0, rate=3.0, dir1=np.array([1.0, -2.0]))
    assert np.allclose(pw.eps1(0.0, 2), [1.0, -2.0])
    assert np.max(np.abs(pw.eps1(1e6, 2))) < 1e-17
    assert np.allclose(ZERO.eps1(1.0, 3), np.zeros(3))


NON_NUMBERS = {
    "amplitude-nan": (PerturbationSchedule, {"kind": "exponential", "amplitude": math.nan}),
    "amplitude-inf": (PerturbationSchedule, {"kind": "exponential", "amplitude": math.inf}),
    "amplitude-true": (PerturbationSchedule, {"kind": "exponential", "amplitude": True}),
    "rate-inf": (PerturbationSchedule, {"kind": "power", "amplitude": 0.1, "rate": math.inf}),
    "rate-numpy-bool": (PerturbationSchedule, {"kind": "power", "rate": np.True_}),
    "dir1-nan": (PerturbationSchedule, {"kind": "power", "dir1": [math.nan, 1.0]}),
    "dir2-inf": (PerturbationSchedule, {"kind": "power", "dir2": [1.0, -math.inf]}),
    "dir1-true": (PerturbationSchedule, {"kind": "power", "dir1": [True, 1.0]}),
    "dir2-numpy-bool": (PerturbationSchedule, {"kind": "power", "dir2": np.array([False, True])}),
    "rtol-inf": (IntegratorOptions, {"rtol": math.inf}),
    "atol-inf": (IntegratorOptions, {"atol": math.inf}),
    "alpha_floor-inf": (IntegratorOptions, {"alpha_floor": math.inf}),
    "sample_dt-nan": (IntegratorOptions, {"sample_dt": math.nan}),
    "tol-inf": (SolverOptions, {"tol": math.inf}),
    "tol-true": (SolverOptions, {"tol": True}),
    "tol-above-1e-8": (SolverOptions, {"tol": 2e-8}),  # above what isolation_check certifies
}


@pytest.mark.parametrize("cls, kw", NON_NUMBERS.values(), ids=NON_NUMBERS.keys())
def test_options_reject_non_finite_and_boolean_numbers(cls, kw):
    with pytest.raises(InvalidInput):
        cls(**kw)


def test_options_accept_an_infinite_grid_step():
    assert IntegratorOptions(sample_dt=math.inf).sample_dt == math.inf


def test_options_hold_python_floats():
    # a float32 sample_dt kept as given would build the sample grid in float32
    opts = IntegratorOptions(rtol=1, atol=0, alpha_floor=np.float32(0.5), sample_dt=np.float32(0.1))
    names = ("rtol", "atol", "alpha_floor", "sample_dt")
    assert all(type(getattr(opts, name)) is float for name in names)
    assert opts.sample_dt == float(np.float32(0.1))


@pytest.mark.parametrize(
    "kw", [{"rtol": 0.0}, {"rtol": -1e-9}, {"atol": -1e-12}, {"alpha_floor": -1e-8}],
    ids=["rtol-zero", "rtol-negative", "atol-negative", "alpha_floor-negative"],
)
def test_options_reject_out_of_range_values(kw):
    with pytest.raises(InvalidInput):
        IntegratorOptions(**kw)
    # zero is the bound that atol and alpha_floor may take
    assert IntegratorOptions(atol=0.0, alpha_floor=0.0).atol == 0.0


def test_oversized_sample_grid_rejected_up_front(k2_matrix, monkeypatch):
    # the grid is counted before it is built: t_end = 1e12 would need 1e13 samples
    start = state_at(k2_equilibrium(k2_matrix))
    with pytest.raises(InvalidInput, match="samples"):
        integrate(start, k2_matrix, ZERO, 1e12)
    # the cap is on (samples + 1) (2K + 3) values: 10^6 samples (t_end 1e5 at the
    # default sample_dt 0.1) fit at K = 2 but not at K = 100; no grid is built here
    dynamics.check_run(0.0, 1e5, 2, ZERO, IntegratorOptions())
    with pytest.raises(InvalidInput, match="values"):
        dynamics.check_run(0.0, 1e5, 100, ZERO, IntegratorOptions())
    # the samples are the sample_dt steps after the initial time
    monkeypatch.setattr(dynamics, "MAX_VALUES", (10 + 1) * (2 * 2 + 3))
    opts = IntegratorOptions(sample_dt=0.1)
    assert integrate(start, k2_matrix, ZERO, 1.0, opts).ts.shape == (11,)
    with pytest.raises(InvalidInput, match="samples"):
        integrate(start, k2_matrix, ZERO, 1.1, opts)


def test_last_sample_is_t_end(k2_matrix):
    # 3 * 0.1 is 0.30000000000000004: a last sample within 1e-12 of t_end is t_end
    traj = integrate(state_at(k2_equilibrium(k2_matrix)), k2_matrix, ZERO, 0.3)
    assert traj.ts.tolist() == [0.0, 0.1, 0.2, 0.3]


def test_schedule_direction_shape_checked(k2_matrix):
    sch = PerturbationSchedule("exponential", amplitude=0.1, rate=1.0, dir1=np.ones(3))
    eq = k2_equilibrium(k2_matrix)
    with pytest.raises(InvalidInput):
        integrate(state_at(eq), k2_matrix, sch, 1.0)


def test_distance_to_set(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    st = state_at(eq)
    assert distance_to_set(st, [eq]) == 0.0
    delta = 1e-3
    st2 = TrajectoryState(0.0, eq.a + delta, eq.c.copy())
    assert abs(distance_to_set(st2, [eq]) - delta) <= 1e-18
    far = EquilibriumPoint(a=eq.a * 100.0, c=eq.c * 100.0)
    assert distance_to_set(st2, [far, eq]) == distance_to_set(st2, [eq])
    with pytest.raises(EmptySet):
        distance_to_set(st, [])
    k3 = EquilibriumPoint(a=np.ones(3), c=2.0 * np.ones(3))
    with pytest.raises(InvalidInput):
        distance_to_set(st, [eq, k3])
    # a stack against three equilibria, bit for bit as per sample and per equilibrium
    rng = np.random.default_rng(5)
    eqs = [EquilibriumPoint(a=rng.normal(size=4), c=rng.normal(size=4)) for _ in range(3)]
    alpha, beta = rng.normal(size=(20, 4)), rng.normal(size=(20, 4))
    alpha[3, 1], beta[7, 2] = math.nan, -0.0
    dist = distance_to_set(TrajectoryState(0.0, alpha, beta), eqs)
    oracle = [
        min(max(max(abs(x - y) for x, y in zip(a, e.a)), max(abs(x - y) for x, y in zip(b, e.c)))
            for e in eqs)
        for a, b in zip(alpha.tolist(), beta.tolist())
    ]
    assert dist.shape == (20,) and np.isnan(dist[3]) and not np.isnan(np.delete(dist, 3)).any()
    assert np.delete(dist, 3).tobytes() == np.array(oracle[:3] + oracle[4:]).tobytes()
    one = distance_to_set(TrajectoryState(0.0, alpha[0], beta[0]), eqs)
    assert type(one) is np.float64 and one == oracle[0]


def test_omega_limit_estimate(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    traj = integrate(state_at(eq), k2_matrix, ZERO, 4.0, equilibria=[eq])
    rep = omega_limit_estimate(traj, 1.0)
    assert rep.diameter <= 1e-12
    assert traj.dist_to_eq[-1] <= 1e-12
    assert rep.t_start == pytest.approx(3.0)
    with pytest.raises(WindowTooLarge):
        omega_limit_estimate(traj, 4.0)
    for window in (-1.0, math.nan):
        with pytest.raises(InvalidInput):
            omega_limit_estimate(traj, window)
    assert omega_limit_estimate(traj, 0.0).t_start == traj.ts[-1]
    # a window that starts within 1e-12 of a sample takes that sample in
    forced = PerturbationSchedule("exponential", amplitude=0.01, rate=1.0)
    moving = integrate(state_at(eq), k2_matrix, forced, 1.0)
    rep = omega_limit_estimate(moving, moving.ts[-1] - moving.ts[5] - 1e-12)
    assert moving.ts[5] < rep.t_start < moving.ts[6]
    cloud = np.hstack([moving.alpha[5:], moving.beta[5:]])
    assert rep.box_min.tolist() == cloud.min(axis=0).tolist()
    assert rep.box_max.tolist() == cloud.max(axis=0).tolist()
    assert rep.box_min.tolist() != np.hstack([moving.alpha[6:], moving.beta[6:]]).min(axis=0).tolist()


def test_to_physical_round_trip(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    rng = np.random.default_rng(2)
    start = TrajectoryState(0.0, eq.a * 1.01, eq.c * 0.99)
    traj = integrate(start, k2_matrix, ZERO, 0.5)
    phys = to_physical(traj)
    s0, lam0, b0 = phys[0]
    assert s0 == 1.0
    assert np.array_equal(lam0, traj.alpha[0]) and np.array_equal(b0, traj.beta[0])
    for (s, lam, b), t, a, be in zip(phys, traj.ts, traj.alpha, traj.beta):
        assert np.max(np.abs(lam * s**2 - a)) <= 1e-14 * np.max(np.abs(a))
        assert np.max(np.abs(b * s**3 - be)) <= 1e-14 * max(np.max(np.abs(be)), 1e-30)


def test_late_start_writes_infinite_s(k2_matrix):
    # e^t overflows a float above t ~ 709.78, and e^{3t} above t ~ 236.6
    eq = k2_equilibrium(k2_matrix)
    traj = integrate(state_at(eq, t=705.0), k2_matrix, ZERO, 712.0, equilibria=[eq])
    log_max = math.log(np.finfo(float).max)
    overflows = traj.ts > log_max
    assert overflows.any() and not overflows.all()
    for (s, lam, b), t, a, be, over in zip(
        to_physical(traj), traj.ts, traj.alpha, traj.beta, overflows
    ):
        assert s == (math.inf if over else math.exp(t))
        assert np.array_equal(lam, a * math.exp(-2.0 * t))
        assert np.array_equal(b, be * math.exp(-3.0 * t))
    text = trajectory_csv(traj)
    assert_same_text(text, csv_oracle(traj, exp=lambda t: math.inf if t > log_max else math.exp(t)))
    assert [r.split(",")[1] == "inf" for r in text.splitlines()[1:]] == overflows.tolist()


def test_physical_scale_recovers_separation_law(k2_matrix, kappa):
    # on the stationary two-bubble state, s^2 lambda(s) = 6/kappa for all s
    eq = k2_equilibrium(k2_matrix)
    traj = integrate(state_at(eq), k2_matrix, ZERO, 6.0)
    for s, lam, _ in to_physical(traj):
        assert np.max(np.abs(s**2 * lam - 6.0 / kappa)) <= 1e-9


def test_family_member_drift_probe(family):
    # each curve point is a fixed point, and the quarter-ULP step cap keeps an
    # exact one bitwise fixed, so round-off never seeds the unstable mode-18
    # pair (it would grow like e^{6t}) at any horizon
    eq = lift(family_member(0.37, family))
    traj = integrate(state_at(eq), family.matrix, ZERO, 20.0, equilibria=[eq])
    assert np.max(traj.dist_to_eq) == 0.0


def test_trajectory_csv_format(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    traj = integrate(state_at(eq), k2_matrix, ZERO, 0.3, equilibria=[eq])
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,s,alpha_1,alpha_2,beta_1,beta_2,L,L_rate,dist_to_eq"
    assert len(lines) == 1 + len(traj.ts)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    # full 17-significant-digit round trip
    assert float(first[2]) == traj.alpha[0][0]
    assert_same_text(trajectory_csv(traj), text)


def _exp_or_inf(t):
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def csv_oracle(traj, exp=_exp_or_inf):
    """Reference exporter: every value through its own f-string, s = e^t (inf where it
    overflows)."""
    k = traj.K
    cols = (
        ["t", "s"]
        + [f"alpha_{i + 1}" for i in range(k)]
        + [f"beta_{i + 1}" for i in range(k)]
        + ["L", "L_rate", "dist_to_eq"]
    )
    lines = [",".join(cols)]
    for i, t in enumerate(traj.ts):
        row = (
            [t, exp(t)]
            + list(traj.alpha[i])
            + list(traj.beta[i])
            + [traj.lyapunov[i], traj.lyapunov_rate[i], traj.dist_to_eq[i]]
        )
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def hand_built(states):
    """A Trajectory whose rows (alpha, beta, L, L_rate, dist) are given, at t = 0, 0.1, ..."""
    rows = np.array(states, dtype=float)
    return Trajectory(ts=0.1 * np.arange(len(rows)), table=rows)


def test_trajectory_csv_matches_per_value_oracle(
    monkeypatch, k2_matrix, k3_equilateral, family
):
    opts = IntegratorOptions(sample_dt=0.03)
    eq3 = lift(solve_equilibria(k3_equilateral)[0])
    start3 = TrajectoryState(0.0, eq3.a * np.array([1.01, 0.99, 1.0]), eq3.c.copy())
    no_eq = integrate(start3, k3_equilateral, ZERO, 0.4, opts)
    assert np.all(np.isnan(no_eq.dist_to_eq))
    eq2 = k2_equilibrium(k2_matrix)
    forced = PerturbationSchedule("exponential", amplitude=0.01, rate=1.0)
    with_eq = integrate(state_at(eq2, t=0.37), k2_matrix, forced, 1.2, opts, equilibria=[eq2])
    # a frozen K = 10 run: every state row is one run of bitwise-equal rows
    eq10 = lift(family_member(0.37, family))
    fine = IntegratorOptions(sample_dt=1e-3)
    frozen = integrate(state_at(eq10), family.matrix, ZERO, 3.5, fine, equilibria=[eq10])
    frozen_no_eq = integrate(state_at(eq10), family.matrix, ZERO, 3.5, fine)
    for traj in (frozen, frozen_no_eq):
        state = np.column_stack([traj.alpha, traj.beta, traj.lyapunov, traj.lyapunov_rate])
        assert len(np.unique(state.view(np.uint64), axis=0)) == 1
    assert np.all(np.isnan(frozen_no_eq.dist_to_eq))
    # state rows A, A, B, A, A: a run restarts on a value seen before
    a, b = [1.0, 2.0, 0.5, 0.25, 1 / 3, -0.1, math.nan], [1.0, 2.0, 0.5, 0.25, 1 / 3, -0.1, 0.7]
    restarts = hand_built([a, a, b, a, a])
    # rows equal under == but not bit for bit: 0.0 writes "0" and -0.0 writes "-0"
    signed_zero = hand_built([[1.0, 0.0, 0.0, 0.0, 0.0], [1.0, -0.0, 0.0, 0.0, 0.0]])
    rows = trajectory_csv(signed_zero).splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0", "-0"]
    # runs of equal rows across the block boundary: one that crosses it, and one that
    # ends on it
    n = dynamics.BLOCK_ROWS
    crossing = hand_built([a] * (n + 2) + [b, a])
    ending = hand_built([a] * n + [b] * 2)
    # NaN, both infinities and both zeros in the state columns
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308]
    specials = hand_built([special, special, special[::-1], special[::-1], special])
    # s = e^t overflows to inf above t ~ 709.78
    late = Trajectory(
        ts=np.array([709.0, 709.78, 709.79, 800.0]),
        table=np.tile([1.0, 1.0, 2.0, 2.0, 0.0, 0.0, math.nan], (4, 1)),
    )
    assert trajectory_csv(late).splitlines()[3].split(",")[1] == "inf"
    # every layout of %g's fixed notation (e = -4 ... 16, 1 to 17 significant digits,
    # either sign), half-to-even ties, the decade edges (9.99999999999999999e-5 reads
    # as 1e-4 and writes 0.0001), exponent notation at both ends and zeros
    mantissas = ("1", "1.5", "2.25", "3.125", "1.2345678901234567", "9.999999999999999")
    fixed = [float(f"{m}e{e}") for e in range(-4, 17) for m in mantissas]
    edges = [123456789012345.125, 123456789012345.375, 0.5, 2.5, 9.99999999999999999e-5,
             99999999999999999.0, 1e17, 1.5e-5, 1e-300, 5e-324, 1e300, 0.0, -0.0, 1.0]
    cells = np.array(fixed + edges)
    cells = np.concatenate((cells, -cells))
    layouts = hand_built(np.resize(cells, (len(cells) // 7 + 1, 7)))
    assert "0.0001" in trajectory_csv(layouts).replace("\n", ",").split(",")
    for traj in (frozen, frozen_no_eq, crossing, ending):
        assert_same_text(trajectory_csv(traj), csv_oracle(traj))
    # the short ones also in blocks of one, two and three rows, where runs cross boundaries
    for traj in (no_eq, with_eq, restarts, signed_zero, specials, late, layouts):
        text = csv_oracle(traj)
        assert_same_text(trajectory_csv(traj), text)
        for rows in (1, 2, 3):
            monkeypatch.setattr(dynamics, "BLOCK_ROWS", rows)
            assert_same_text(trajectory_csv(traj), text)
        monkeypatch.undo()


def assert_g17_is_percent_17g(values, seps):
    """_g17 gives the text of each value through its own %.17g, then its separator;
    a mismatch names the first value written differently."""
    pairs = [None] * (2 * values.size)
    pairs[0::2], pairs[1::2] = values.tolist(), seps.tolist()
    got, want = dynamics._g17(values, seps), ("%.17g%c" * values.size) % tuple(pairs)
    if got != want:  # no diff of the whole text, which takes pytest minutes
        got, want = re.split("[,\n]", got), re.split("[,\n]", want)
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"{values[i]!r} written as {got[i]!r}, not {want[i]!r}")


def test_g17_writes_the_bytes_of_percent_17g():
    # the CSV's formatter against CPython's %.17g, value by value: random bit patterns,
    # each power of ten from 1e-30 to 1e40 and the four floats on either side of it
    # (some miss the first decade estimate of _g17_digits and take %), half-to-even
    # ties, the decade edges (99999999999999999.0 reads as 1e17 and writes 1e+17),
    # zeros, subnormals, the largest floats, inf and NaN, each of either sign
    rng = np.random.default_rng(48)
    below = above = np.array([float(f"1e{k}") for k in range(-30, 41)])
    near = [below]
    for _ in range(4):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
        near += [below, above]
    edges = [123456789012345.125, 123456789012345.375, 0.5, 2.5, 0.125, 0.375,
             9.99999999999999999e-5, 99999999999999999.0, 9999999999999998.0, 0.0,
             5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, math.nan]
    chosen = np.concatenate(near + [edges])
    values = np.concatenate((
        rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64), chosen, -chosen
    ))
    assert_g17_is_percent_17g(values, rng.choice(np.frombuffer(b",\n", np.uint8), values.size))


def test_no_double_rounds_its_17_digits_up_to_a_power_of_ten():
    # no double reaches _g17_digits' guard N < 10^17: below 10^k, doubles are at
    # least 10^k 2^-54 apart, and 17 digits round up to 10^k only within
    # 10^k / (2 10^17) of it, where only the largest double below 10^k could lie;
    # 10^k's nearest double and the four below it hold that one, for each k at
    # which %g writes fixed notation
    for k in range(-4, 18):
        v = float(f"1e{k}")
        for _ in range(5):
            exact = Fraction(v)
            e = k if exact >= Fraction(10) ** k else k - 1  # 10^e <= v < 10^(e + 1)
            assert round(exact * Fraction(10) ** (16 - e)) < 10**17, v
            v = math.nextafter(v, 0.0)


def test_g17_matches_percent_17g_on_any_float():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
    def check(xs):
        assert_g17_is_percent_17g(np.array(xs), np.full(len(xs), ord(","), np.uint8))

    check()


def test_csv_of_one_block_is_that_block(k2_matrix):
    # the header rides in the first block, so trajectory_csv joins a one-block CSV
    # without copying it
    eq = k2_equilibrium(k2_matrix)
    traj = integrate(state_at(eq), k2_matrix, ZERO, 0.3, equilibria=[eq])
    blocks = list(dynamics._csv_blocks(traj))
    assert len(blocks) == 1
    assert_same_text(blocks[0], csv_oracle(traj))
    assert_same_text(trajectory_csv(traj), blocks[0])
    empty = Trajectory(ts=np.empty(0), table=np.empty((0, 7)))
    blocks = list(dynamics._csv_blocks(empty))
    assert len(blocks) == 1
    assert_same_text(blocks[0], csv_oracle(empty))


def test_a_frozen_run_formats_its_state_per_run_not_per_row(monkeypatch, family):
    # a frozen K = 10 run of 3,501 rows, one block: its 23 state values reach _g17
    # twice, as the run's text and in its first row, and each row's t and s once:
    # 7,048 values, not the 87,525 of every row
    eq = lift(family_member(0.37, family))
    traj = integrate(state_at(eq), family.matrix, ZERO, 3.5, IntegratorOptions(sample_dt=1e-3),
                     equilibria=[eq])
    n, width = traj.table.shape
    assert n <= dynamics.BLOCK_ROWS and len(np.unique(traj.table.view(np.uint64), axis=0)) == 1
    sizes = []
    g17 = dynamics._g17
    monkeypatch.setattr(dynamics, "_g17", lambda x, sep: sizes.append(x.size) or g17(x, sep))
    assert_same_text(trajectory_csv(traj), csv_oracle(traj))
    assert sizes == [2 * width + 2 * n]


def test_diagnostics_match_per_sample_functions(monkeypatch, family):
    # forcing along the chord between two points of the equilibrium curve
    # carries the state from the first towards the second
    e1, e2 = lift(family_member(0.30, family)), lift(family_member(0.34, family))
    sch = PerturbationSchedule(
        "exponential", amplitude=1.0, rate=1.0, dir1=e2.a - e1.a, dir2=e2.c - e1.c
    )
    opts = IntegratorOptions(sample_dt=0.05)
    runs = [  # forced, frozen and without equilibria, 21 samples each
        lambda: integrate(state_at(e1), family.matrix, sch, 1.0, opts, equilibria=[e1, e2]),
        lambda: integrate(state_at(e1), family.matrix, ZERO, 1.0, opts, equilibria=[e1, e2]),
        lambda: integrate(state_at(e1), family.matrix, sch, 1.0, opts),
    ]
    whole = [run() for run in runs]
    # in blocks of 7 rows the 21 span 3 blocks: every array keeps its bytes
    monkeypatch.setattr(dynamics, "BLOCK_ROWS", 7)
    blocked = [run() for run in runs]
    for a, b in zip(whole, blocked):
        for name in ("ts", "alpha", "beta", "lyapunov", "lyapunov_rate", "dist_to_eq"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    # one table holds the CSV's columns after t and s; each named column is a view of it
    k = family.matrix.K
    columns = dict(alpha=np.s_[:, :k], beta=np.s_[:, k:2 * k], lyapunov=np.s_[:, 2 * k],
                   lyapunov_rate=np.s_[:, 2 * k + 1], dist_to_eq=np.s_[:, 2 * k + 2])
    for tr in whole + blocked:
        assert tr.table.shape == (21, 2 * k + 3)
        for name, col in columns.items():
            view = getattr(tr, name)
            assert np.shares_memory(view, tr.table) and view.tobytes() == tr.table[col].tobytes()
    traj, frozen, no_eq = blocked
    assert np.all(np.isnan(no_eq.dist_to_eq)) and no_eq.ts.shape == (21,)
    assert np.array_equal(no_eq.lyapunov, traj.lyapunov)
    samples = states(traj)
    nearer_first = [distance_to_set(st, [e1]) < distance_to_set(st, [e2]) for st in samples]
    assert any(nearer_first) and not all(nearer_first)
    for t in (traj, frozen):
        samples = states(t)
        lyap = np.array([lyapunov(st, family.matrix) for st in samples])
        rate = np.array([lyapunov_rate(st) for st in samples])
        dist = np.array([distance_to_set(st, [e1, e2]) for st in samples])
        for per_sample, stack, recorded in (
            (lyap, lyapunov(t, family.matrix), t.lyapunov),
            (rate, lyapunov_rate(t), t.lyapunov_rate),
            (dist, distance_to_set(t, [e1, e2]), t.dist_to_eq),
        ):
            assert np.array_equal(recorded, per_sample)
            assert np.array_equal(recorded, stack)
    assert np.max(frozen.dist_to_eq) == 0.0


def test_one_state_functions_reject_a_stack(k2_matrix):
    # an (n, K) stack with n == K would broadcast through m @ alpha without error
    stack = TrajectoryState(0.0, np.ones((2, 2)), 2.0 * np.ones((2, 2)))
    with pytest.raises(InvalidInput):
        vector_field(stack, k2_matrix)


@pytest.mark.parametrize(
    "alpha, beta",
    [(np.ones(3), 2.0 * np.ones(3)), (np.ones(2), 2.0 * np.ones(3)), (np.ones(2), np.ones(1))],
    ids=["K3-state-on-K2", "beta-longer", "beta-shorter"],
)
def test_state_shape_mismatch_raises_invalid_input(k2_matrix, alpha, beta):
    st = TrajectoryState(0.0, alpha, beta)
    eq = k2_equilibrium(k2_matrix)
    for call in (
        lambda: vector_field(st, k2_matrix),
        lambda: lyapunov(st, k2_matrix),
        lambda: distance_to_set(st, [eq]),
    ):
        with pytest.raises(InvalidInput):
            call()
    if alpha.shape != beta.shape:
        with pytest.raises(InvalidInput):
            lyapunov_rate(st)


def test_final_state_does_not_depend_on_the_sample_grid(k2_matrix):
    # dense output: the grid only says where samples are read off the steps
    eq = k2_equilibrium(k2_matrix)
    forced = PerturbationSchedule("exponential", amplitude=0.01, rate=1.0)
    for start, schedule in (
        (state_at(eq), forced),
        (TrajectoryState(0.0, eq.a * 1.01, eq.c * 0.99), ZERO),
    ):
        ends = []
        for dt in (1e-3, 0.1, math.inf):
            tr = integrate(start, k2_matrix, schedule, 1.0, IntegratorOptions(sample_dt=dt))
            assert tr.ts[-1] == 1.0 and len(tr.ts) == {1e-3: 1001, 0.1: 11, math.inf: 2}[dt]
            ends.append(np.concatenate([tr.alpha[-1], tr.beta[-1]]))
        assert np.max(np.abs(ends[0] - np.concatenate([start.alpha, start.beta]))) > 1e-4
        assert all(np.array_equal(ends[0], e) for e in ends[1:])


def test_equilibria_stay_exactly_fixed_on_a_fine_grid(k2_matrix, kappa, family):
    # k2_closed_form has f_beta ~ 2e-16: a step of a half-ULP move is a rounding tie
    fine = IntegratorOptions(sample_dt=1e-3)
    eq2 = k2_closed_form(1.0, kappa)
    traj = integrate(state_at(eq2), k2_matrix, ZERO, 10.0, fine, equilibria=[eq2])
    assert len(traj.ts) == 10001 and np.max(traj.dist_to_eq) == 0.0
    eq10 = lift(family_member(0.37, family))
    traj = integrate(state_at(eq10), family.matrix, ZERO, 3.5, fine, equilibria=[eq10])
    assert len(traj.ts) == 3501 and np.max(traj.dist_to_eq) == 0.0


def test_integrate_holds_no_per_sample_scratch(k2_matrix, kappa):
    # the grid is built once, as ts, the dense output of a step spans only the samples
    # inside it, and the diagnostics are made a block at a time into the returned arrays:
    # besides what it returns, a run that freezes or never does holds little per sample
    eq2 = k2_closed_form(1.0, kappa)
    forced = PerturbationSchedule("exponential", amplitude=0.01, rate=1.0)
    for schedule, t_end, dt, bound in ((ZERO, 10.0, 1e-3, 1.05), (forced, 1.0, 1e-5, 1.10)):
        opts = IntegratorOptions(sample_dt=dt)
        tracemalloc.start()
        try:
            traj = integrate(state_at(eq2), k2_matrix, schedule, t_end, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = (
            traj.ts, traj.alpha, traj.beta, traj.lyapunov, traj.lyapunov_rate, traj.dist_to_eq
        )
        assert traj.ts.shape == (round(t_end / dt) + 1,)
        assert peak <= bound * sum(x.nbytes for x in arrays)


def test_integrate_memory_does_not_grow_with_the_equilibria(family):
    # distance_to_set reduces one equilibrium at a time: a forced K = 10 run, which
    # never freezes, peaks the same with 1 and with 11 equilibria
    eqs = [lift(family_member(t, family)) for t in np.linspace(0.0, math.tau, 11, endpoint=False)]
    forced = PerturbationSchedule("exponential", amplitude=0.01, rate=1.0)
    opts = IntegratorOptions(sample_dt=1e-4)
    peaks = []
    for n in (1, 11):
        tracemalloc.start()
        try:
            traj = integrate(state_at(eqs[0]), family.matrix, forced, 1.0, opts, equilibria=eqs[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert traj.ts.shape == (10001,) and traj.dist_to_eq[0] == 0.0
    assert peaks[1] <= 1.05 * peaks[0]


def _count_field_calls(monkeypatch):
    calls = []
    field = dynamics._field_raw
    monkeypatch.setattr(dynamics, "_field_raw", lambda *a: calls.append(1) or field(*a))
    return calls


def _frozen_starts(k2_matrix, kappa, family):
    eq10 = lift(family_member(0.37, family))
    return [(k2_closed_form(1.0, kappa), k2_matrix, 10.0), (eq10, family.matrix, 3.5)]


def test_a_frozen_autonomous_run_stops_stepping(monkeypatch, k2_matrix, kappa, family):
    # stepping through to t_end would take 493 (K = 2), 1,015 (K = 10) and 37
    # (zero field) field evaluations
    calls = _count_field_calls(monkeypatch)
    fine = IntegratorOptions(sample_dt=1e-3)
    # at separation 1.5 the K = 2 closed form's field is exactly zero
    m15 = interaction_matrix(build_configuration([[0, 0, 0, 0, 0], [1.5, 0, 0, 0, 0]]), kappa)
    eq15 = k2_closed_form(1.5, kappa)
    assert not np.any(vector_field(state_at(eq15), m15))
    for eq, m, t_end in _frozen_starts(k2_matrix, kappa, family) + [(eq15, m15, 10.0)]:
        # with one sample, at t_end, no step has interpolated before the exit
        for opts in (fine, IntegratorOptions(sample_dt=math.inf)):
            calls.clear()
            traj = integrate(state_at(eq), m, ZERO, t_end, opts, equilibria=[eq])
            assert 1 <= len(calls) <= 30  # at least the first step's stages
            n = len(traj.ts)
            assert traj.alpha.tobytes() == np.tile(eq.a, (n, 1)).tobytes()
            assert traj.beta.tobytes() == np.tile(eq.c, (n, 1)).tobytes()


def test_frozen_diagnostics_are_evaluated_on_the_head_only(monkeypatch, k2_matrix, kappa, family):
    # the exit comes after the first step, of 0.01: rows 0 to 11 (t = 0.011) are the
    # head, and the thousands of rows after it copy row 11's diagnostics
    seen = []
    rate = dynamics.lyapunov_rate
    monkeypatch.setattr(dynamics, "lyapunov_rate", lambda st: seen.append(len(st.t)) or rate(st))
    for eq, m, t_end in _frozen_starts(k2_matrix, kappa, family):
        seen.clear()
        traj = integrate(state_at(eq), m, ZERO, t_end, IntegratorOptions(sample_dt=1e-3))
        assert seen == [12] and len(traj.ts) > 3000
        assert np.unique(traj.lyapunov_rate).shape == (1,)


def test_the_frozen_replay_sets_every_stage_to_the_field(monkeypatch, family):
    # the replay must not reuse the last step's stages: here every step's third stage
    # is doubled, which leaves the step's end on the start but would move the replay's
    # fourth stage input, so only a replay at f(y) takes the exit
    calls = []
    field = dynamics._field_raw

    def nudged(views, *rest):
        field(views, *rest)
        calls.append(1)
        if len(calls) % 6 == 4:  # the start's field, then six stages a step
            out = views[3]
            out *= 2.0

    monkeypatch.setattr(dynamics, "_field_raw", nudged)
    eq = lift(family_member(0.37, family))
    traj = integrate(state_at(eq), family.matrix, ZERO, 3.5, IntegratorOptions(sample_dt=1e-3))
    assert len(calls) <= 30
    assert traj.alpha.tobytes() == np.tile(eq.a, (len(traj.ts), 1)).tobytes()


def test_a_power_of_two_component_keeps_a_frozen_run_stepping(monkeypatch):
    # alpha = 1 and beta = 2 with one coupling an ULP under 6: f_alpha = 0 and f_beta =
    # 2^-50, two spacings of 2 per unit time, so each capped step of 1/8 moves beta a
    # quarter spacing up and rounds back to 2.  Below 2 the gap is half a spacing; the
    # exit needs the increment bound, a quarter spacing, under half of that gap, so the
    # run never exits and steps to t_end, with every sample still the start.
    c = float(np.nextafter(6.0, 0.0))
    m = InteractionMatrix(m=np.array([[0.0, c], [c, 0.0]]), kappa=1.0)
    start = TrajectoryState(0.0, np.ones(2), np.full(2, 2.0))
    _, f_beta = vector_field(start, m)
    assert f_beta.tolist() == [2.0**-50] * 2
    calls = _count_field_calls(monkeypatch)
    traj = integrate(start, m, ZERO, 1.0, IntegratorOptions(sample_dt=1e-3))
    assert len(calls) > 1 + 6 * 8  # the first field, then six stages a step
    assert np.unique(traj.alpha).tolist() == [1.0] and np.unique(traj.beta).tolist() == [2.0]


def test_a_forced_run_from_an_equilibrium_keeps_stepping(monkeypatch, k2_matrix, kappa, family):
    # forcing too small to move the state: every step is taken, and the samples
    # are the ones the unforced run fills in without stepping
    calls = _count_field_calls(monkeypatch)
    fine = IntegratorOptions(sample_dt=1e-3)
    tiny = PerturbationSchedule("exponential", amplitude=1e-300, rate=1.0)
    for eq, m, t_end in _frozen_starts(k2_matrix, kappa, family):
        counts = []
        for span in (0.25, 0.5, 1.0):
            calls.clear()
            forced = integrate(state_at(eq), m, tiny, span * t_end, fine)
            counts.append(len(calls))
            free = integrate(state_at(eq), m, ZERO, span * t_end, fine)
            assert forced.alpha.tobytes() == free.alpha.tobytes()
            assert forced.beta.tobytes() == free.beta.tobytes()
        assert counts[0] < counts[1] < counts[2]


def test_dense_samples_carry_the_requested_accuracy(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    forced = PerturbationSchedule("exponential", amplitude=0.01, rate=1.0)
    for start, schedule in (
        (state_at(eq), forced),
        (TrajectoryState(0.0, eq.a * 1.01, eq.c * 0.99), ZERO),
    ):
        tr = integrate(start, k2_matrix, schedule, 1.0, IntegratorOptions(sample_dt=1e-3))
        ref = integrate(
            start, k2_matrix, schedule, 1.0,
            IntegratorOptions(rtol=1e-13, atol=1e-16, sample_dt=1e-3),
        )
        assert np.array_equal(tr.ts, ref.ts)
        assert np.max(np.abs(tr.alpha - ref.alpha)) <= 1e-7
        assert np.max(np.abs(tr.beta - ref.beta)) <= 1e-7


def half_equilibrium(m):
    """Half the K = 2 equilibrium, where alpha decreases from t = 0, and a floor one ULP under."""
    eq = k2_equilibrium(m)
    start = TrajectoryState(t=0.0, alpha=eq.a / 2.0, beta=eq.c / 2.0)
    return start, float(np.nextafter(start.alpha.min(), 0.0))


def test_alpha_collapse_at_the_first_interpolated_sample(k2_matrix):
    # the start lies on the floor's right side, the first step ends below it,
    # and so does its first sample
    start, floor = half_equilibrium(k2_matrix)
    with pytest.raises(AlphaCollapse) as exc:
        integrate(start, k2_matrix, ZERO, 1.0, IntegratorOptions(alpha_floor=floor, sample_dt=1e-3))
    assert exc.value.t_exit == 1e-3


def test_forcing_directions_match_reference_solver(k3_equilateral):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    m = k3_equilateral
    eq = lift(solve_equilibria(m)[0])
    sch = PerturbationSchedule(
        "power",
        amplitude=0.01,
        rate=1.5,
        dir1=np.array([1.0, -0.5, 0.25]),
        dir2=np.array([-2.0, 0.3, 1.0]),
    )
    traj = integrate(state_at(eq), m, sch, 1.0, IntegratorOptions(sample_dt=0.25))

    def rhs(t, y):
        da, db = vector_field(TrajectoryState(t, y[:3], y[3:]), m)
        return np.concatenate([da + sch.eps1(t, 3), db + sch.eps2(t, 3)])

    y0 = np.concatenate([eq.a, eq.c])
    ref = scipy_integrate.solve_ivp(
        rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-14
    )
    assert ref.success
    end = np.concatenate([traj.alpha[-1], traj.beta[-1]])
    assert np.max(np.abs(end - y0)) > 0.1  # the forcing moved the state
    assert np.max(np.abs(end - ref.y[:, -1])) <= 1e-7


def test_integrate_validation(k2_matrix):
    eq = k2_equilibrium(k2_matrix)
    with pytest.raises(NegativeAlpha):
        integrate(TrajectoryState(0.0, np.array([1.0, -1.0]), np.zeros(2)), k2_matrix, ZERO, 1.0)
    with pytest.raises(InvalidInput):
        integrate(state_at(eq), k2_matrix, ZERO, -1.0)
    with pytest.raises(InvalidInput):
        IntegratorOptions(sample_dt=0.0)
    with pytest.raises(InvalidInput):
        integrate(state_at(eq, t=-math.inf), k2_matrix, ZERO, 1.0)
    # without the check, these would step until StepUnderflow
    for alpha, beta in (([1.0, math.inf], [2.0, 2.0]), ([1.0, math.nan], [2.0, 2.0]),
                        ([1.0, 1.0], [2.0, math.nan]), ([1.0, 1.0], [-math.inf, 2.0])):
        start = TrajectoryState(0.0, np.array(alpha), np.array(beta))
        with pytest.raises(InvalidInput, match="non-finite"):
            integrate(start, k2_matrix, ZERO, 1.0)
    # a start below the alpha floor is invalid input, not a collapse at t = 0
    with pytest.raises(InvalidInput, match="below alpha_floor"):
        integrate(state_at(eq), k2_matrix, ZERO, 1.0, IntegratorOptions(alpha_floor=1e3))
    # a wrong-length equilibrium is rejected before the first step, which would
    # otherwise end below this alpha floor
    k3 = EquilibriumPoint(a=np.ones(3), c=2.0 * np.ones(3))
    start, floor = half_equilibrium(k2_matrix)
    high_floor = IntegratorOptions(alpha_floor=floor)
    with pytest.raises(AlphaCollapse):
        integrate(start, k2_matrix, ZERO, 1.0, high_floor, equilibria=[eq])
    with pytest.raises(InvalidInput):
        integrate(start, k2_matrix, ZERO, 1.0, high_floor, equilibria=[k3])


@pytest.mark.parametrize(
    "kind, t0, rate",
    [("power", -1.0, 1.5), ("power", -3.0, 1.5), ("power", -3.0, 2.0),
     ("power", np.float64(-1.0 + 2.0**-53), 30.0), ("exponential", -800.0, 1.5)],
)
def test_forcing_undefined_or_infinite_at_the_start_is_invalid(k2_matrix, kind, t0, rate):
    # before: a ZeroDivisionError, complex forcing cast to real (a real one at rate 2
    # that turns undefined at t = -1), an overflow of (2^-53)^-30 (from a numpy start
    # time, a warning) and an OverflowError from e^1200, from eps1 and eps2 as well
    sch = PerturbationSchedule(kind, amplitude=0.1, rate=rate)
    start = TrajectoryState(t0, np.ones(2), 2.0 * np.ones(2))
    at_t0 = re.escape(f"forcing at time {float(t0)} ")
    with pytest.raises(InvalidInput, match=at_t0):
        integrate(start, k2_matrix, sch, t0 + 1.0)
    for eps in (sch.eps1, sch.eps2):  # a library caller gets the same error
        with pytest.raises(InvalidInput, match=at_t0):
            eps(t0, 2)
    # no forcing at all is defined everywhere
    quiet = PerturbationSchedule(kind, amplitude=0.0, rate=rate)
    assert integrate(start, k2_matrix, quiet, t0 + 0.1).ts[0] == t0


def integrate_oracle(initial, m, schedule, t_end, options, equilibria=None, stats=None):
    """The stepping loop written plainly: the lean integrate must repeat it bit for bit.

    Each stage input is checked (alpha > 0, all finite) before its field is
    evaluated, and a failed check rejects the step at once; the field is the
    formula, plus eps1 and eps2 when forced.  A step's interior samples are its
    continuous extension, one on its end is its solution.  There is no frozen
    exit: the loop steps to t_end, so on a frozen run it also checks the samples
    and diagnostics integrate fills in.  stats counts evaluations, rejected stages
    and steps rejected for their error.
    """
    k = initial.K
    forced = schedule.kind != "zero" and schedule.amplitude != 0.0
    stats = {} if stats is None else stats
    stats.update(evaluations=0, rejected_stages=0, rejected_steps=0)

    def field(t, y):
        a, b = y[:k], y[k:]
        if not (np.min(a) > 0.0 and np.all(np.isfinite(y))):
            return None
        stats["evaluations"] += 1
        da = 2.0 * a - b
        db = 3.0 * b - np.sqrt(a) * (m.m @ a**1.5)
        if forced:
            da, db = da + schedule.eps1(t, k), db + schedule.eps2(t, k)
        return np.concatenate([da, db])

    t = float(initial.t)
    y = np.concatenate([initial.alpha, initial.beta]).astype(float)
    n = int(math.floor((t_end - t) / options.sample_dt + 1e-9))
    grid = [t + i * options.sample_dt for i in range(1, n + 1)]
    if not grid or grid[-1] < t_end - 1e-12 * max(1.0, abs(t_end)):
        grid.append(t_end)
    else:
        grid[-1] = t_end
    ts = np.array([t] + grid)
    ys = np.empty((len(ts), 2 * k))
    ys[0] = y
    j = 1  # the first sample not yet written
    f0 = field(t, y)
    t_stop = t_end - 1e-12 * max(1.0, abs(t_end))
    h = 1e-2
    err_prev = None
    while t < t_stop:
        last = t + h >= t_stop
        if last:
            h = t_end - t
        if h < 1e-14:
            raise StepUnderflow(f"step size {h:.3e} below 1e-14 at t={t:.6g}")
        ks = [f0]
        for i in range(1, 7):
            y_i = y + h * (np.array(ks).T @ dynamics._DP_A[i])
            f_i = field(t + dynamics._DP_C[i] * h, y_i)
            if f_i is None:
                break
            ks.append(f_i)
        if len(ks) < 7:
            stats["rejected_stages"] += 1
            h *= 0.5
            err_prev = None
            continue
        ks, y5 = np.array(ks), y_i  # the last stage input is the 5th-order solution
        scale = options.atol + options.rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(np.sum((h * (ks.T @ dynamics._DP_E) / scale) ** 2) / (2 * k))
        if err > 1.0:
            stats["rejected_steps"] += 1
            h = h * max(0.2, 0.9 * err ** (-0.2))
            err_prev = None
            continue
        t_new = t_end if last else t + h
        t_exit = t_new if np.min(y5[:k]) < options.alpha_floor else None
        j_new = j
        while j_new < len(ts) and ts[j_new] <= t_new:
            j_new += 1
        inside = [i for i in range(j, j_new) if ts[i] != t_new]
        if inside:
            theta = (ts[inside] - t) / h
            p1 = (1.0 - theta) * theta
            basis = np.column_stack([theta, p1, p1 * theta, p1 * p1])
            ys[inside] = basis @ (h * (dynamics._DP_W @ ks)) + y
            bad = [i for i in inside if not (
                np.all(ys[i, :k] >= options.alpha_floor) and np.all(np.isfinite(ys[i]))
            )]
            if bad:
                t_exit = float(ts[bad[0]])
        ys[len(inside) + j:j_new] = y5
        j = j_new
        if t_exit is not None:
            raise AlphaCollapse(
                f"alpha fell below the floor {options.alpha_floor:.0e} at t={t_exit:.6g}",
                t_exit=t_exit,
            )
        e = max(err, 1e-10)
        fac = 0.9 * e ** (-0.2) if err_prev is None else 0.9 * e ** (-0.14) * err_prev**0.08
        err_prev = e
        h = h * min(5.0, max(0.2, fac))
        if np.all(y5 == y):  # the quarter-ULP cap
            ulps_per_time = np.max(np.abs(ks[6]) / np.spacing(np.abs(y)))
            h = min(h, 0.25 / ulps_per_time if ulps_per_time > 0.0 else math.inf)
        t, y, f0 = t_new, y5, ks[6]
    ys[j:] = y
    samples = TrajectoryState(t=ts, alpha=ys[:, :k], beta=ys[:, k:])
    eqs = [] if equilibria is None else list(equilibria)
    return Trajectory(ts=ts, table=np.column_stack([
        samples.alpha, samples.beta, lyapunov(samples, m), lyapunov_rate(samples),
        distance_to_set(samples, eqs) if eqs else np.full(len(ts), math.nan),
    ]))


def _outcome(run):
    """A run's bytes, or its failure's type, message and exit time."""
    try:
        tr = run()
    except (AlphaCollapse, StepUnderflow) as exc:
        return type(exc), str(exc), getattr(exc, "t_exit", None)
    arrays = (tr.ts, tr.alpha, tr.beta, tr.lyapunov, tr.lyapunov_rate, tr.dist_to_eq)
    return tuple(x.tobytes() for x in arrays)


def test_integrate_matches_readable_oracle(monkeypatch, k2_matrix, k3_equilateral, kappa, family):
    calls = _count_field_calls(monkeypatch)
    fine = IntegratorOptions(sample_dt=1e-3)
    eq2 = k2_closed_form(1.0, kappa)
    eq3 = k2_equilibrium(k2_matrix)
    half, floor = half_equilibrium(k2_matrix)
    tri = lift(solve_equilibria(k3_equilateral)[0])
    power = PerturbationSchedule(
        "power", amplitude=0.01, rate=1.5,
        dir1=np.array([1.0, -0.5, 0.25]), dir2=np.array([-2.0, 0.3, 1.0]),
    )
    blowup = PerturbationSchedule("exponential", amplitude=0.1, rate=1.0)
    eq10 = lift(family_member(0.37, family))
    # (label, start, matrix, schedule, t_end, options, equilibria, frozen)
    cases = [
        ("forced K = 2", state_at(eq2), k2_matrix,
         PerturbationSchedule("exponential", amplitude=0.01, rate=1.0), 1.0, fine, [eq2], False),
        ("power K = 3", state_at(tri, t=0.5), k3_equilateral, power, 2.0,
         IntegratorOptions(sample_dt=0.01), [tri], False),
        ("blow-up", TrajectoryState(0.0, 1.2 * eq3.a, 2.4 * eq3.a), k2_matrix, blowup, 40.0,
         IntegratorOptions(), None, False),
        ("collapse at a sample", half, k2_matrix, ZERO, 1.0,
         IntegratorOptions(alpha_floor=floor, sample_dt=1e-3), None, False),
        ("collapse at a step end", half, k2_matrix, ZERO, 1.0,
         IntegratorOptions(alpha_floor=floor, sample_dt=math.inf), None, False),
        ("collapse after rejected stages", TrajectoryState(0.0, 0.8 * eq3.a, 1.6 * eq3.a),
         k2_matrix, ZERO, 40.0, IntegratorOptions(), None, False),
        ("underflow after rejected stages", TrajectoryState(0.0, 0.8 * eq3.a, 1.6 * eq3.a),
         k2_matrix, ZERO, 40.0, IntegratorOptions(alpha_floor=0.0), None, False),
        # steps rejected for their error after accepted ones, so the PI controller restarts
        ("rejected steps", state_at(eq3), k2_matrix,
         PerturbationSchedule("exponential", amplitude=0.5, rate=5.0), 1.0,
         IntegratorOptions(), [eq3], False),
    ]
    cases += [
        ("frozen K = 10", state_at(eq10), family.matrix, ZERO, 3.5, fine, [eq10], True),
        ("frozen K = 2", state_at(eq2), k2_matrix, ZERO, 10.0, fine, [eq2], True),
    ]
    outcomes = {}
    for label, start, m, sch, t_end, opts, eqs, frozen in cases:
        calls.clear()
        got = _outcome(lambda: integrate(start, m, sch, t_end, opts, equilibria=eqs))
        n_calls, stats = len(calls), {}
        want = _outcome(lambda: integrate_oracle(start, m, sch, t_end, opts, eqs, stats))
        assert got == want, label
        if not frozen and stats["rejected_stages"] == 0:
            assert n_calls == stats["evaluations"], label
        outcomes[label] = got, n_calls, stats
    assert outcomes["forced K = 2"][1] == 487
    assert outcomes["blow-up"][0][0] is StepUnderflow
    assert outcomes["collapse at a sample"][0][2] == 1e-3
    assert outcomes["collapse at a step end"][0][2] == 1e-2  # the first step's end
    assert outcomes["power K = 3"][2]["rejected_stages"] == 0
    assert outcomes["rejected steps"][2]["rejected_steps"] == 2
    for label in ("collapse after rejected stages", "underflow after rejected stages"):
        assert outcomes[label][2]["rejected_stages"] > 0


def test_sample_grid_edges_match_readable_oracle(k2_matrix, kappa):
    eq2 = k2_closed_form(1.0, kappa)
    forced = PerturbationSchedule("exponential", amplitude=0.01, rate=1.0)
    tenth = IntegratorOptions(sample_dt=0.1)
    # (label, start time, t_end, options, the grid the run must record)
    cases = [
        ("start at -0.0", -0.0, 0.3, tenth, [-0.0, 0.1, 0.2, 0.3]),
        # 0.1 + 2 * 0.1 is 0.30000000000000004: the samples keep the rounded sums
        ("off-grid start", 0.1, 1.0, tenth, [0.1 + i * 0.1 for i in range(9)] + [1.0]),
        # the last sample, 0.30000000000000004, replaced by a t_end within 1e-12 of it
        ("t_end just inside", 0.0, 0.3 + 5e-13, tenth, [0.0, 0.1, 0.2, 0.3 + 5e-13]),
        # and kept beside one just outside
        ("t_end just outside", 0.0, 0.3 + 2e-12, tenth,
         [0.0, 0.1, 0.2, 0.1 * 3, 0.3 + 2e-12]),
        ("one sample", 0.0, 1.0, IntegratorOptions(sample_dt=math.inf), [0.0, 1.0]),
        # no step at all: t_end is within the end tolerance of the start
        ("no step", 0.0, 5e-13, tenth, [0.0, 5e-13]),
    ]
    for label, t0, t_end, opts, grid in cases:
        start = state_at(eq2, t=t0)
        got = integrate(start, k2_matrix, forced, t_end, opts, equilibria=[eq2])
        assert got.ts.tobytes() == np.array(grid).tobytes(), label
        want = integrate_oracle(start, k2_matrix, forced, t_end, opts, [eq2])
        assert _outcome(lambda: got) == _outcome(lambda: want), label
    traj = integrate(state_at(eq2, t=-0.0), k2_matrix, ZERO, 0.3)
    assert trajectory_csv(traj).split("\n")[1].startswith("-0,1,")
