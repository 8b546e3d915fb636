"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Criterion 8 checks convergence where the saddle structure predicts it: on
the stable set.  The flow's Jacobian has trace 5K at every state, so every
equilibrium has eigenvalues with positive real part.  Each eigenvalue mu of
the symmetrized matrix A contributes the pair (5 +- sqrt(13 + 2 mu))/2:
the eigenvalue 18, which A always carries, gives {6, -1}, and any other
mu > 6 gives one more negative eigenvalue, so the stable dimension is
1 + #{mu > 6, mu != 18} (tests/test_equilibrium.py checks this on the
cluster pool).  At K = 2 the only other mode is mu = -18, so the spectrum
is {6, -1, 2.5 +- 2.398i} and only the states on a one-dimensional stable
set converge.  With alpha(0) fixed at a 20% offset, beta(0) is the unknown
that puts the start on that set.  The test finds it
and the bounded trajectory on [0, 40] by multiple shooting (Ascher, Mattheij
& Russell, Numerical Solution of Boundary Value Problems for ODEs, SIAM
1995): every segment is an integrate() run, and the end condition removes
the unstable eigencomponents of y(40) - eq.  A single forward run cannot
reach t = 40 even from that start: rounding errors grow like e^{6t}, so
they reach the size of the state before t = 6, and even at rtol=1e-12 the
run aborts there (AlphaCollapse or StepUnderflow).  The generic start
beta(0) = 2 alpha(0) that the criterion used to prescribe lies off the
stable set and blows up near t = 1; test_dynamics.py's
test_step_underflow_on_blowup keeps asserting that divergence.
"""

import json
import time
from dataclasses import replace

import numpy as np

from bubblefield import cli
from bubblefield.circulant import (
    build_family,
    circulant_eigenvalue,
    family_member,
    family_tangent,
    solve_b0,
)
from bubblefield.config import (
    InteractionMatrix,
    build_configuration,
    interaction_matrix,
    kappa_closed_form,
)
from bubblefield.dynamics import (
    IntegratorOptions,
    PerturbationSchedule,
    TrajectoryState,
    integrate,
    lyapunov,
    lyapunov_rate,
)
from bubblefield.equilibrium import (
    isolation_check,
    lift,
    reduced_jacobian,
    reduced_residual,
    solve_equilibria,
    symmetrized_matrix,
)
from bubblefield.groundstate import verify_kappa

from conftest import flow_jacobian, lyapunov_gradient, random_matrix

KAPPA = kappa_closed_form()
ZERO = PerturbationSchedule("zero")

_cache = {}


def _report(num: int, ok: bool, detail: str):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _k2_matrix(distance=1.0):
    return interaction_matrix(
        build_configuration([[0, 0, 0, 0, 0], [distance, 0, 0, 0, 0]])
    )


def _crit2_results():
    if "c2" not in _cache:
        out = []
        for d in (1.0, 2.0, 5.0):
            m = _k2_matrix(d)
            out.append((d, m, solve_equilibria(m)))
        _cache["c2"] = out
    return _cache["c2"]


def _crit3_results():
    if "c3" not in _cache:
        rng = np.random.default_rng(0)
        out = []
        for _ in range(50):
            m = random_matrix(3, rng)
            out.append((m, solve_equilibria(m)))
        _cache["c3"] = out
    return _cache["c3"]


def _family():
    if "fam" not in _cache:
        _cache["fam"] = build_family()
    return _cache["fam"]


def test_criterion_1_kappa_identity():
    t0 = time.perf_counter()
    rep = verify_kappa()
    elapsed = time.perf_counter() - t0
    ok = rep.rel_error <= 1e-6 and elapsed < 5.0
    _report(
        1,
        ok,
        f"quadrature kappa {rep.kappa_quadrature:.12g} vs closed form "
        f"{rep.kappa_closed:.12g}, rel err {rep.rel_error:.3e} (<=1e-6), {elapsed:.2f}s (<5s)",
    )
    assert rep.rel_error <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_k2_closed_form():
    t0 = time.perf_counter()
    results = _crit2_results()
    elapsed = time.perf_counter() - t0
    worst = 0.0
    counts = []
    for d, m, sols in results:
        counts.append(len(sols))
        target = 6.0 * d**3 / KAPPA
        for s in sols:
            worst = max(worst, float(np.max(np.abs(lift(s).a - target))) / target)
    ok = counts == [1, 1, 1] and worst <= 1e-10 and elapsed < 1.0
    _report(
        2,
        ok,
        f"D in (1,2,5): counts {counts} (all 1), max rel dev {worst:.3e} (<=1e-10), "
        f"{elapsed:.2f}s (<1s)",
    )
    assert counts == [1, 1, 1]
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_3_k3_isolation_sweep():
    t0 = time.perf_counter()
    results = _crit3_results()
    elapsed = time.perf_counter() - t0
    n_sols = 0
    ok = True
    for m, sols in results:
        for s in sols:
            n_sols += 1
            rep = isolation_check(s, m)
            e = rep.eigenvalues
            ok &= e[0] <= e[1] < 0.0
            ok &= abs(e[2] - 18.0) <= 1e-7
            ok &= abs(np.prod(6.0 - e)) > 1e-6
    ok = ok and elapsed < 10.0
    _report(
        3,
        ok,
        f"50 seeded triangles, {n_sols} solutions, all with spectrum "
        f"(neg, neg, 18+-1e-7) and |det(6I-A)| > 1e-6, {elapsed:.2f}s (<10s)",
    )
    assert ok


def test_criterion_4_eigenvalue_18_identity():
    worst = 0.0
    for _, m, sols in _crit2_results():
        for s in sols:
            a = symmetrized_matrix(s.x, m)
            u = s.x**2
            worst = max(worst, float(np.linalg.norm(a @ u - 18.0 * u) / np.linalg.norm(u)))
    for m, sols in _crit3_results():
        for s in sols:
            a = symmetrized_matrix(s.x, m)
            u = s.x**2
            worst = max(worst, float(np.linalg.norm(a @ u - 18.0 * u) / np.linalg.norm(u)))
    fam = _family()
    for t in np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False):
        s = family_member(float(t), fam)
        a = symmetrized_matrix(s.x, fam.matrix)
        u = s.x**2
        worst = max(worst, float(np.linalg.norm(a @ u - 18.0 * u) / np.linalg.norm(u)))
    ok = worst <= 1e-7
    _report(4, ok, f"max ||Au - 18u||/||u|| = {worst:.3e} over all equilibria (<=1e-7)")
    assert ok


def test_criterion_5_mode4_root_and_printed_values():
    t0 = time.perf_counter()
    b0 = solve_b0()
    lam470 = circulant_eigenvalue(4, 4.70, KAPPA)
    lam471 = circulant_eigenvalue(4, 4.71, KAPPA)
    lam0 = circulant_eigenvalue(0, b0, KAPPA)
    lam2 = circulant_eigenvalue(2, b0, KAPPA)
    h = 1e-6
    slopes = [
        (circulant_eigenvalue(4, b + h, KAPPA) - circulant_eigenvalue(4, b - h, KAPPA))
        / (2.0 * h)
        for b in np.linspace(4.70, 4.71, 5)
    ]
    elapsed = time.perf_counter() - t0
    checks = {
        "B0 in (4.70, 4.71)": 4.70 < b0 < 4.71,
        "|lam4(B0)| <= 1e-12": abs(circulant_eigenvalue(4, b0, KAPPA)) <= 1e-12,
        "lam4(4.70) printed": abs(lam470 - (-1.7242975e-3)) <= 1e-9,
        "lam4(4.71) printed": abs(lam471 - 5.7146524e-3) <= 1e-9,
        "lam0 printed": abs(lam0 - 7.8069722) <= 1e-6,
        "lam2 printed": abs(lam2 - 3.1411361) <= 1e-6,
        "slope window": all(0.7417451 - 1e-4 <= s <= 0.7460485 + 1e-4 for s in slopes),
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    _report(
        5,
        ok,
        f"B0 = {b0:.15g}; lam4 ends ({lam470:.7e}, {lam471:.7e}); "
        f"lam0 {lam0:.7f}, lam2 {lam2:.7f}; slopes in window; {elapsed:.3f}s (<1s)",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_6_k10_family():
    t0 = time.perf_counter()
    fam = _family()
    max_rel = 0.0
    for t in np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False):
        sol = family_member(float(t), fam)
        max_rel = max(max_rel, sol.residual_norm / float(np.max(np.abs(6.0 * sol.x))))
    max_tan = 0.0
    for t in np.linspace(0.0, 2.0 * np.pi, 25):
        sol = family_member(float(t), fam)
        j = reduced_jacobian(sol.x, fam.matrix)
        max_tan = max(
            max_tan,
            float(np.linalg.norm(j @ family_tangent(float(t), fam)) / np.linalg.norm(j, 2)),
        )
    rep = isolation_check(family_member(0.37, fam), fam.matrix)
    elapsed = time.perf_counter() - t0
    ok = max_rel <= 1e-9 and max_tan <= 1e-7 and not rep.isolated and elapsed < 2.0
    _report(
        6,
        ok,
        f"100-sample residual {max_rel:.3e} (<=1e-9 rel), tangent/J kernel "
        f"{max_tan:.3e} (<=1e-7), isolated={rep.isolated} (False), {elapsed:.2f}s (<2s)",
    )
    assert ok


def test_criterion_7_lyapunov_dissipation():
    # ten autonomous trajectories from perturbed K = 2 and K = 3 equilibria
    configs = []
    m2 = _k2_matrix()
    eq2 = lift(solve_equilibria(m2)[0])
    rng = np.random.default_rng(99)
    for _ in range(5):
        configs.append((m2, eq2))
    pts = np.zeros((3, 5))
    pts[1, 0] = 1.0
    pts[2, 0] = 0.5
    pts[2, 1] = np.sqrt(3.0) / 2.0
    m3 = interaction_matrix(build_configuration(pts))
    eq3 = lift(solve_equilibria(m3)[0])
    for _ in range(5):
        configs.append((m3, eq3))

    monotone = True
    for m, eq in configs:
        k = eq.K
        d = rng.normal(size=2 * k)
        d /= np.linalg.norm(d)
        alpha = eq.a + 1e-2 * d[:k]
        beta = eq.c + 1e-2 * d[k:]
        if np.max(np.abs(beta - 2.0 * alpha)) < 1e-4:
            beta = beta + 1e-3
        traj = integrate(TrajectoryState(0.0, alpha, beta), m, ZERO, 0.6)
        drops = np.diff(traj.lyapunov) + 1e-9 * (1.0 + np.abs(traj.lyapunov[:-1]))
        monotone &= bool(np.all(drops >= 0))

    # second-order decay of the discrete dissipation defect under halving
    d = rng.normal(size=4)
    d /= np.linalg.norm(d)
    start = TrajectoryState(0.0, eq2.a + 1e-2 * d[:2], eq2.c + 1e-2 * d[2:])
    lead = integrate(start, m2, ZERO, 0.2, IntegratorOptions(rtol=1e-12, sample_dt=0.2))
    base = TrajectoryState(0.0, lead.alpha[-1], lead.beta[-1])
    defects = []
    for h in (1e-2, 5e-3, 2.5e-3):
        tr = integrate(
            base, m2, ZERO, h, IntegratorOptions(rtol=1e-12, atol=1e-14, sample_dt=h / 2)
        )
        mid = TrajectoryState(0.0, tr.alpha[1], tr.beta[1])
        defects.append(abs((tr.lyapunov[-1] - tr.lyapunov[0]) / h - lyapunov_rate(mid)))
    ratios = [defects[0] / defects[1], defects[1] / defects[2]]
    second_order = all(2.8 <= r <= 5.5 for r in ratios)
    ok = monotone and second_order
    _report(
        7,
        ok,
        f"10 autonomous runs sample-wise non-decreasing within 1e-9: {monotone}; "
        f"defect halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} (~4 = second order)",
    )
    assert ok


# Criterion 8 shooting nodes: 0.25 apart on [0, 5], where the trajectory is
# still far from the equilibrium, and 1 apart on [5, 40].
_C8_NODES = np.concatenate([np.arange(0.0, 5.0, 0.25), np.arange(5.0, 40.5, 1.0)])


def _unstable_rows(eq, m):
    """Orthonormal rows spanning the left eigenvectors of the unstable eigenvalues.

    Their product with y - eq lists the unstable eigencomponents of y - eq."""
    lam, vecs = np.linalg.eig(flow_jacobian(eq, m))
    left = np.linalg.inv(vecs)[lam.real > 0]
    _, _, vt = np.linalg.svd(np.vstack([left.real, left.imag]))
    return vt[: int(np.sum(lam.real > 0))]


def _segment_flow(m, schedule, eq, rtol):
    """flow(y, i): integrate from node i to node i + 1; returns (end state, end dist)."""
    k = m.K

    def flow(y, i):
        t0, t1 = _C8_NODES[i], _C8_NODES[i + 1]
        traj = integrate(
            TrajectoryState(t0, y[:k], y[k:]),
            m,
            schedule,
            t1,
            IntegratorOptions(rtol=rtol, sample_dt=t1 - t0),
            equilibria=[eq],
        )
        return np.concatenate([traj.alpha[-1], traj.beta[-1]]), float(traj.dist_to_eq[-1])

    return flow


def _shooting_system(ys, flow, alpha0, y_eq, unstable):
    """Residual of the shooting equations (matching defects, alpha(0) - alpha0, the
    unstable components of y(40) - eq) and the distance to eq at each segment end."""
    ends, dists = map(np.array, zip(*(flow(y, i) for i, y in enumerate(ys[:-1]))))
    res = np.concatenate(
        [(ends - ys[1:]).ravel(), ys[0, : len(alpha0)] - alpha0, unstable @ (ys[-1] - y_eq)]
    )
    return res, dists


def _copies_flow(m, schedule, rtol, n):
    """flow(ys, i): integrate the n rows of ys from node i to node i + 1 in one
    integrate() run of n decoupled copies of the system; returns the end states.

    The copies share a block-diagonal coupling matrix, and the default forcing
    direction (all ones) forces each copy as it forces the system alone."""
    k = m.K
    copies = InteractionMatrix(np.kron(np.eye(n), m.m), m.kappa)

    def flow(ys, i):
        t0, t1 = _C8_NODES[i], _C8_NODES[i + 1]
        start = TrajectoryState(t0, ys[:, :k].ravel(), ys[:, k:].ravel())
        opts = IntegratorOptions(rtol=rtol, sample_dt=t1 - t0)
        traj = integrate(start, copies, schedule, t1, opts)
        return np.hstack([traj.alpha[-1].reshape(n, k), traj.beta[-1].reshape(n, k)])

    return flow


def _shooting_matrix(ys, flow, k, unstable, h=1e-7):
    """Jacobian of the shooting residual at the nodes `ys`; the segment blocks are
    forward differences of flow, which takes a segment's base state and its
    perturbations together (see _copies_flow)."""
    n, d = ys.shape
    jac = np.zeros(((n - 1) * d + k + len(unstable), n * d))
    for i in range(n - 1):
        rows = slice(i * d, (i + 1) * d)
        ends = flow(ys[i] + np.vstack([np.zeros(d), h * np.eye(d)]), i)
        jac[rows, i * d : (i + 1) * d] = ((ends[1:] - ends[0]) / h).T
        jac[rows, (i + 1) * d : (i + 2) * d] = -np.eye(d)
    jac[(n - 1) * d : (n - 1) * d + k, :k] = np.eye(k)
    jac[(n - 1) * d + k :, (n - 1) * d :] = unstable
    return jac


def _shoot(ys, system, pinv, tol=1e-12, max_iter=40):
    """Least-squares Newton with a fixed Jacobian pseudo-inverse.

    `system` evaluates the shooting system at `ys`; iteration stops after the
    first correction no larger than `tol` (the states are of order one)."""
    current = system(ys)
    for _ in range(max_iter):
        step = (pinv @ current[0]).reshape(ys.shape)
        ys = ys - step
        current = system(ys)
        if np.max(np.abs(step)) <= tol:
            break
    return ys, current


def test_criterion_8_convergence_experiment():
    # Experiment: K=2, distance 1, alpha(0) = 1.2 a (a 20% offset), eps(t) = 0.1 e^{-t},
    # t in [0, 40]; requires dist_to_eq(40) <= 1e-3 against the singleton, with the
    # rtol=1e-9 result validated against an rtol=1e-12 reference.  beta(0) is the
    # unknown that puts the start on the stable set: the bounded trajectory solves
    # a boundary-value problem (alpha(0) given, no unstable component at t=40),
    # computed by multiple shooting whose segments are integrate() runs.  A single
    # forward run cannot follow this saddle trajectory to t=40: rounding grows like
    # e^{6t}.  The old prescribed start beta(0) = 2 alpha(0) lies off the stable
    # set; test_step_underflow_on_blowup asserts that it diverges.  The approach
    # rate is the -1 eigenvalue; the forcing's rate 1 resonates with it, so
    # dist_to_eq decays like t e^{-t}.
    m = _k2_matrix()
    eq = lift(solve_equilibria(m)[0])
    k = eq.K
    sch = PerturbationSchedule("exponential", amplitude=0.1, rate=1.0)
    alpha0 = 1.2 * eq.a
    y_eq = np.concatenate([eq.a, eq.c])
    t0 = time.perf_counter()
    unstable = _unstable_rows(eq, m)

    def system(rtol):
        flow = _segment_flow(m, sch, eq, rtol)
        return lambda ys: _shooting_system(ys, flow, alpha0, y_eq, unstable)

    # initial guess: the linear stable mode, whose beta offset is 3x its alpha offset
    offset = np.concatenate([alpha0 - eq.a, 3.0 * (alpha0 - eq.a)])
    guess = y_eq + np.outer(np.exp(-_C8_NODES), offset)
    # The Jacobian only steers the iteration, so a loose rtol suffices for it.  The
    # system has one equation more than unknowns; it is consistent because the data
    # are symmetric in the two bubbles, so Newton steps are least-squares solutions.
    coarse = _copies_flow(m, sch, 1e-6, 2 * k + 1)
    pinv = np.linalg.pinv(_shooting_matrix(guess, coarse, k, unstable))
    ys, (res, dists) = _shoot(guess, system(1e-9), pinv)
    ys_ref, (_, dists_ref) = _shoot(ys, system(1e-12), pinv)
    elapsed = time.perf_counter() - t0

    beta0, beta0_ref = ys[0, k:], ys_ref[0, k:]
    dist, ref = dists[-1], dists_ref[-1]
    defect = float(np.max(np.abs(res[: len(dists) * 2 * k])))
    ts = _C8_NODES[1:]
    window = (ts >= 10.0) & (ts <= 30.0)
    slope = np.polyfit(ts[window], np.log(dists[window] / ts[window]), 1)[0]
    checks = {
        "dist_to_eq(40) <= 1e-3": dist <= 1e-3,
        "endpoint consistent with rtol=1e-12": abs(dist - ref) <= 1e-6 * (1.0 + ref),
        "beta(0) consistent with rtol=1e-12": bool(
            np.all(np.abs(beta0 - beta0_ref) <= 1e-6 * (1.0 + np.abs(beta0_ref)))
        ),
        "matching defects <= 1e-9": defect <= 1e-9,
        "beta(0) != 2 alpha(0)": bool(np.all(np.abs(beta0 - 2.0 * alpha0) > 0.1 * alpha0)),
        "slope of log(dist/t) on [10, 30] is -1 +- 0.05": abs(slope + 1.0) <= 0.05,
        "runtime < 5s": elapsed < 5.0,
    }
    ok = all(checks.values())
    _report(
        8,
        ok,
        f"stable-set start beta(0) = {beta0[0] / eq.a[0]:.4f} a (2 alpha(0) = 2.4 a diverges); "
        "dist_to_eq at t = 10, 20, 30, 40: "
        + ", ".join(f"{dists[ts == t][0]:.2e}" for t in (10.0, 20.0, 30.0, 40.0))
        + f" (<=1e-3 at 40; rtol=1e-12 reference {ref:.2e}); max matching defect "
        f"{defect:.1e} (<=1e-9); slope of log(dist/t) {slope:.4f} (-1 +- 0.05); "
        f"{elapsed:.2f}s (<5s) [equilibria are saddles: the flow Jacobian has trace 5K, "
        "so only a one-dimensional stable set converges; see module docstring]",
    )
    failed = [name for name, passed in checks.items() if not passed]
    assert ok, f"stable-set trajectory by multiple shooting fails: {failed}"


def test_criterion_9_derivative_checks():
    ok = True
    worst_j = 0.0
    worst_g = 0.0
    for K in (2, 3, 5, 10):
        rng = np.random.default_rng(800 + K)
        # unit-separation configurations keep the residual O(10^3) so a
        # 1e-6 central difference resolves the Jacobian to 1e-6 absolute
        m = random_matrix(K, rng, kappa=1.0, min_sep=1.0)
        x = rng.uniform(0.1, 10.0, size=K)
        j = reduced_jacobian(x, m)
        h = 1e-6
        for l in range(K):
            e = np.zeros(K)
            e[l] = h
            fd = (reduced_residual(x + e, m) - reduced_residual(x - e, m)) / (2 * h)
            worst_j = max(worst_j, float(np.max(np.abs(j[:, l] - fd))))
        alpha = rng.uniform(0.5, 2.0, size=K)
        beta = rng.uniform(-1.0, 2.0, size=K)
        ga, gb = lyapunov_gradient(TrajectoryState(0.0, alpha, beta), m)
        hh = 1e-5
        for i in range(K):
            e = np.zeros(K)
            e[i] = hh
            fa = (
                lyapunov(TrajectoryState(0.0, alpha + e, beta), m)
                - lyapunov(TrajectoryState(0.0, alpha - e, beta), m)
            ) / (2 * hh)
            fb = (
                lyapunov(TrajectoryState(0.0, alpha, beta + e), m)
                - lyapunov(TrajectoryState(0.0, alpha, beta - e), m)
            ) / (2 * hh)
            worst_g = max(
                worst_g,
                abs(ga[i] - fa) / (1.0 + abs(ga[i])),
                abs(gb[i] - fb) / (1.0 + abs(gb[i])),
            )
    ok = worst_j <= 1e-6 and worst_g <= 1e-6
    _report(
        9,
        ok,
        f"Jacobian vs finite differences {worst_j:.3e} (<=1e-6 abs); "
        f"Lyapunov gradient vs finite differences {worst_g:.3e} (<=1e-6 rel); K in (2,3,5,10)",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    sim_doc = json.dumps(
        {
            "command": "simulate",
            "points": [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
            "schedule": {"kind": "exponential", "amplitude": 0.01, "rate": 2.0},
            "initial": "start-at-equilibrium:0,0.0",
            "t_end": 1.0,
            "seed": 11,
        }
    )
    eq_doc = json.dumps(
        {"command": "equilibria", "points": [[0, 0, 0, 0, 0], [1.3, 0, 0, 0, 0]], "seed": 11}
    )
    blobs = {"sim": [], "eq": []}
    for i in (0, 1):
        sim_out = tmp_path / f"sim{i}.csv"
        cfg = replace(cli.parse_run_config(sim_doc), output=str(sim_out))
        assert cli.run(cfg) == 0
        blobs["sim"].append(
            sim_out.read_bytes() + (tmp_path / f"sim{i}.summary.json").read_bytes()
        )
        eq_out = tmp_path / f"eq{i}.json"
        cfg = replace(cli.parse_run_config(eq_doc), output=str(eq_out))
        assert cli.run(cfg) == 0
        blobs["eq"].append(eq_out.read_bytes())
    ok = blobs["sim"][0] == blobs["sim"][1] and blobs["eq"][0] == blobs["eq"][1]
    _report(10, ok, "repeated simulate and equilibria runs byte-identical with fixed seed")
    assert ok
