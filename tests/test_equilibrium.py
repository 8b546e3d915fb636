import warnings

import numpy as np
import pytest

from bubblefield.config import InteractionMatrix, build_configuration, interaction_matrix
from bubblefield.equilibrium import (
    NonPositiveComponent,
    NonPositiveDistance,
    NoSolutionFound,
    ReducedSolution,
    SolverOptions,
    isolation_check,
    k2_closed_form,
    lift,
    reduced_jacobian,
    reduced_residual,
    solve_equilibria,
    symmetrized_matrix,
    _newton,
)
from bubblefield.errors import InvalidInput

from conftest import random_matrix


def k2_solution_x(m):
    return np.full(2, np.sqrt(6.0 / m.kappa))


def test_residual_closed_cases(k2_matrix, k3_equilateral, kappa):
    x = k2_solution_x(k2_matrix)
    assert np.max(np.abs(reduced_residual(x, k2_matrix))) <= 1e-14
    assert np.array_equal(reduced_residual(np.zeros(2), k2_matrix), np.zeros(2))
    # equilateral triangle, side L: the symmetric point x = sqrt(3 L^3 / kappa)
    for L in (1.0, 2.0):
        pts = np.zeros((3, 5))
        pts[1, 0] = L
        pts[2, 0] = L / 2.0
        pts[2, 1] = L * np.sqrt(3.0) / 2.0
        m = interaction_matrix(build_configuration(pts))
        x3 = np.full(3, np.sqrt(3.0 * L**3 / kappa))
        assert np.max(np.abs(reduced_residual(x3, m))) <= 1e-12 * (1 + 6 * x3[0])


def test_jacobian_closed_cases(k2_matrix, kappa):
    assert np.array_equal(reduced_jacobian(np.zeros(2), k2_matrix), 6.0 * np.eye(2))
    # at the two-bubble solution the off-diagonal entries are -3 kappa (6/kappa) = -18
    j = reduced_jacobian(k2_solution_x(k2_matrix), k2_matrix)
    assert abs(j[0, 1] + 18.0) <= 1e-12
    assert abs(j[1, 0] + 18.0) <= 1e-12


@pytest.mark.parametrize("K", [2, 3, 5, 10])
def test_jacobian_matches_finite_differences(K):
    rng = np.random.default_rng(100 + K)
    m = random_matrix(K, rng, kappa=1.0, min_sep=1.0)
    for _ in range(3):
        x = rng.uniform(0.1, 10.0, size=K)
        j = reduced_jacobian(x, m)
        h = 1e-6
        fd = np.empty((K, K))
        for l in range(K):
            e = np.zeros(K)
            e[l] = h
            fd[:, l] = (reduced_residual(x + e, m) - reduced_residual(x - e, m)) / (2 * h)
        assert np.max(np.abs(j - fd)) <= 1e-6


@pytest.mark.parametrize("K", [3, 12, 24])
def test_stacked_residual_and_jacobian_match_rows(K):
    # the batched solver relies on a stack being rounded exactly as each row
    rng = np.random.default_rng(300 + K)
    m = random_matrix(K, rng)
    xs = rng.uniform(0.1, 10.0, size=(4, 5, K))
    f, j = reduced_residual(xs, m), reduced_jacobian(xs, m)
    for idx in np.ndindex(4, 5):
        assert np.array_equal(f[idx], 6.0 * xs[idx] - m.m @ xs[idx] ** 3)
        assert np.array_equal(j[idx], reduced_jacobian(xs[idx], m))


def test_symmetrized_matrix_k2(k2_matrix):
    a = symmetrized_matrix(k2_solution_x(k2_matrix), k2_matrix)
    assert np.allclose(a, [[0.0, 18.0], [18.0, 0.0]], rtol=0, atol=1e-12)
    eigs = np.linalg.eigvalsh(a)
    assert np.allclose(eigs, [-18.0, 18.0], rtol=0, atol=1e-12)
    assert abs(np.prod(6.0 - eigs) + 288.0) <= 1e-9
    with pytest.raises(NonPositiveComponent):
        symmetrized_matrix(np.array([1.0, 0.0]), k2_matrix)


@pytest.mark.parametrize("K", [2, 3, 6])
def test_similarity_identity(K):
    # diag(x) J diag(x)^-1 = 6I - A for any positive x
    rng = np.random.default_rng(7 * K)
    m = random_matrix(K, rng)
    x = rng.uniform(0.2, 5.0, size=K)
    s = np.diag(x)
    lhs = s @ reduced_jacobian(x, m) @ np.linalg.inv(s)
    a = symmetrized_matrix(x, m)
    assert np.max(np.abs(lhs - (6.0 * np.eye(K) - a))) <= 1e-10 * np.max(np.abs(a))


def test_isolation_check_k2(k2_matrix):
    sol = solve_equilibria(k2_matrix)[0]
    rep = isolation_check(sol, k2_matrix)
    assert np.allclose(rep.eigenvalues, [-18.0, 18.0], rtol=0, atol=1e-10)
    assert abs(rep.det_shift + 288.0) <= 1e-9
    assert rep.eig18_residual <= 1e-10
    assert rep.isolated
    assert rep.sign_pattern == "-+"
    assert abs(np.trace(rep.a_matrix)) == 0.0
    assert abs(np.sum(rep.eigenvalues)) <= 1e-10 * np.max(np.abs(rep.a_matrix))


def test_isolation_check_requires_converged_input(k2_matrix):
    bad = ReducedSolution(x=np.array([1.0, 1.0]), residual_norm=1e-3, tolerance=1e-3)
    with pytest.raises(InvalidInput):
        isolation_check(bad, k2_matrix)


def all_equal_solution(K):
    """x = 1 solves the reduced system for m = 6/(K-1) (J - I); A has spectrum {18, -18/(K-1)}."""
    m = InteractionMatrix(m=6.0 / (K - 1) * (np.ones((K, K)) - np.eye(K)), kappa=1.0)
    x = np.ones(K)
    residual = float(np.max(np.abs(reduced_residual(x, m))))
    return ReducedSolution(x=x, residual_norm=residual, tolerance=1e-12), m


@pytest.mark.parametrize("K", [50, 400])
def test_isolation_check_large_k(K):
    sol, m = all_equal_solution(K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = isolation_check(sol, m)
    assert rep.isolated
    if K == 50:
        # the product rule it replaces, still finite at this size
        assert rep.isolated == bool(abs(np.prod(6.0 - rep.eigenvalues)) > 1e-8 * 6.0**K)
    else:
        assert rep.det_shift == -np.inf  # 6^400 overflows; the verdict does not


@pytest.mark.parametrize("distance", [1.0, 2.0, 5.0])
def test_solve_k2_closed_form(distance, kappa):
    cfg = build_configuration([[0, 0, 0, 0, 0], [distance, 0, 0, 0, 0]])
    m = interaction_matrix(cfg)
    sols = solve_equilibria(m)
    assert len(sols) == 1
    a = lift(sols[0]).a
    target = 6.0 * distance**3 / kappa
    assert np.max(np.abs(a - target)) <= 1e-10 * target


def test_solve_k3_equilateral(k3_equilateral, kappa):
    sols = solve_equilibria(k3_equilateral)
    target = 3.0 / kappa
    best = min(np.max(np.abs(lift(s).a - target)) for s in sols)
    assert best <= 1e-10 * target


def test_solve_k10_family_member(family):
    sols = solve_equilibria(family.matrix)
    assert sols
    ts = np.linspace(0.0, 2.0 * np.pi, 200001)
    curve = family.coeff_a + family.coeff_b * np.cos(
        ts[:, None] + 2.0 * np.arange(10)[None, :] * family.theta
    )
    dists = [float(np.min(np.max(np.abs(curve - s.x[None, :]), axis=1))) for s in sols]
    assert min(dists) <= 1e-4  # at least one start landed on the cosine curve


def test_no_solution_reported(k3_equilateral):
    opts = SolverOptions(n_random=0, max_iter=1, tol=1e-15)
    with pytest.raises(NoSolutionFound) as exc:
        # one iteration from the symmetric seed cannot reach 1e-15 on an
        # asymmetric configuration
        rng = np.random.default_rng(2)
        solve_equilibria(random_matrix(3, rng), opts)
    assert exc.value.outcomes == {
        "converged": 0, "below_floor": 0, "line_search_exhausted": 0, "iteration_cap": 1,
    }
    assert str(exc.value) == (
        "no positive solution from 1 starts "
        "(converged 0, below floor 0, line search exhausted 0, iteration cap 1)"
    )


def test_no_solution_line_search_exhausted():
    # a K = 20 configuration on which every one of the 65 starts stalls
    m = random_matrix(20, np.random.default_rng(0))
    with pytest.raises(NoSolutionFound) as exc:
        solve_equilibria(m)
    assert exc.value.outcomes == {
        "converged": 0, "below_floor": 0, "line_search_exhausted": 65, "iteration_cap": 0,
    }
    assert str(exc.value).startswith("no positive solution from 65 starts (")


@pytest.mark.parametrize("K", [2, 3, 5, 10])
def test_eigenvalue_18_identity(K):
    rng = np.random.default_rng(500 + K)
    m = random_matrix(K, rng)
    for sol in solve_equilibria(m):
        a = symmetrized_matrix(sol.x, m)
        u = sol.x**2
        assert np.linalg.norm(a @ u - 18.0 * u) <= 1e-7 * np.linalg.norm(u)
        assert np.trace(a) == 0.0


def test_scaling_law_on_solutions():
    rng = np.random.default_rng(20)
    pts = rng.normal(size=(3, 5))
    m1 = interaction_matrix(build_configuration(pts))
    m2 = interaction_matrix(build_configuration(2.0 * pts))
    s1 = solve_equilibria(m1)
    s2 = solve_equilibria(m2)
    assert len(s1) == len(s2)
    for a, b in zip(s1, s2):
        a_lift = lift(a).a
        b_lift = lift(b).a
        assert np.max(np.abs(b_lift - 8.0 * a_lift) / (8.0 * a_lift)) <= 1e-8


def test_permutation_equivariance():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(3, 5))
    perm = np.array([2, 0, 1])
    m = interaction_matrix(build_configuration(pts))
    mp = interaction_matrix(build_configuration(pts[perm]))
    sols = solve_equilibria(m)
    sols_p = solve_equilibria(mp)
    # permuted solutions solve the permuted system and vice versa
    for s in sols:
        assert np.max(np.abs(reduced_residual(s.x[perm], mp))) <= 1e-9
    for s in sols_p:
        inv = np.empty(3, dtype=int)
        inv[perm] = np.arange(3)
        assert np.max(np.abs(reduced_residual(s.x[inv], m))) <= 1e-9


def test_k3_random_triangles_isolated():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = random_matrix(3, rng)
        for sol in solve_equilibria(m):
            rep = isolation_check(sol, m)
            e = rep.eigenvalues
            assert e[0] <= e[1] < 0.0
            assert abs(e[2] - 18.0) <= 1e-7
            assert abs(rep.det_shift) > 1e-6
            assert rep.isolated
            assert rep.sign_pattern == "--+"


def test_lift_round_trip(k2_matrix):
    sol = solve_equilibria(k2_matrix)[0]
    eq = lift(sol)
    assert np.array_equal(np.sqrt(eq.a), sol.x)
    assert np.array_equal(eq.c, 2.0 * eq.a)
    simple = ReducedSolution(x=np.array([1.0, 1.0]), residual_norm=0.0, tolerance=1e-12)
    eq2 = lift(simple)
    assert np.array_equal(eq2.a, [1.0, 1.0]) and np.array_equal(eq2.c, [2.0, 2.0])


def test_k2_closed_form_op(kappa):
    eq = k2_closed_form(1.0, 6.0)
    assert np.array_equal(eq.a, [1.0, 1.0]) and np.array_equal(eq.c, [2.0, 2.0])
    eq = k2_closed_form(1.0, kappa)
    assert np.max(np.abs(eq.a - 6.0 / kappa)) <= 1e-16
    assert np.allclose(k2_closed_form(2.0, kappa).a, 8.0 * eq.a, rtol=1e-15)
    with pytest.raises(NonPositiveDistance):
        k2_closed_form(0.0, kappa)
    with pytest.raises(InvalidInput):
        k2_closed_form(1.0, 0.0)


def test_solver_determinism(k3_equilateral):
    a = solve_equilibria(k3_equilateral, SolverOptions(seed=9))
    b = solve_equilibria(k3_equilateral, SolverOptions(seed=9))
    assert len(a) == len(b)
    for s, t in zip(a, b):
        assert np.array_equal(s.x, t.x)


def test_extra_seed_validation(k2_matrix):
    for bad in ([1.0, -1.0], [np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(InvalidInput):
            solve_equilibria(k2_matrix, SolverOptions(extra_seeds=(np.array(bad),)))
    sols = solve_equilibria(
        k2_matrix, SolverOptions(n_random=0, extra_seeds=(np.array([0.4, 0.6]),))
    )
    assert len(sols) == 1


@pytest.mark.parametrize("span", [(0.0, 1.0), (-1.0, 1.0), (10.0, 0.1), (np.nan, 1.0)])
def test_seed_span_validation(span):
    with pytest.raises(InvalidInput):
        SolverOptions(seed_span=span)


def newton_oracle(x0, m, opts):
    """One start of damped Newton at a time: the reference for the batched solver."""
    x = x0.copy()
    for _ in range(opts.max_iter):
        f = reduced_residual(x, m)
        nf = float(np.max(np.abs(f)))
        thresh = opts.tol * (1.0 + float(np.max(np.abs(6.0 * x))))
        if nf <= thresh:
            return x, nf, thresh
        step = np.linalg.lstsq(reduced_jacobian(x, m), -f, rcond=None)[0]
        f2 = float(f @ f)
        lam = 1.0
        for _ in range(40):
            xn = x + lam * step
            if np.all(xn > 0):
                fn = reduced_residual(xn, m)
                if float(fn @ fn) < f2:
                    x = xn
                    break
            lam *= 0.5
        else:
            return None
    return None


def oracle_starts(m, opts):
    """The starts of solve_equilibria without extra seeds, drawn one vector at a time."""
    k = m.K
    xbar = np.sqrt(6.0 / float(np.mean(np.sum(m.m, axis=1))))
    rng = np.random.default_rng(opts.seed)
    lo, hi = np.log(opts.seed_span[0]), np.log(opts.seed_span[1])
    seeds = [np.full(k, xbar)]
    seeds += [xbar * np.exp(rng.uniform(lo, hi, size=k)) for _ in range(opts.n_random)]
    return np.array(seeds)


def floor_of(m):
    return 0.5 * np.sqrt(6.0 / float(np.max(np.sum(m.m, axis=1))))


def assert_matches_oracle(m, opts=SolverOptions()):
    """Per-start verdicts, solutions and the deduplicated output agree with the oracle."""
    starts = oracle_starts(m, opts)
    xs, _, _, outcome = _newton(starts, m, opts)
    floor = floor_of(m)
    hits = []
    for s, x, out in zip(starts, xs, outcome):
        ref = newton_oracle(s, m, opts)
        assert (ref is not None) == (out == 0)
        if ref is None:
            continue
        above = float(np.max(ref[0])) >= floor
        assert above == (float(np.max(x)) >= floor)
        if above:
            assert np.max(np.abs(x - ref[0]) / ref[0]) <= 1e-12
            hits.append(ref)
    if not hits:
        with pytest.raises(NoSolutionFound):
            solve_equilibria(m, opts)
        return
    hits.sort(key=lambda h: tuple(h[0]))
    kept = []
    for h in hits:
        if not any(np.max(np.abs(h[0] - p)) < opts.dedup_radius for p in kept):
            kept.append(h[0])
    sols = solve_equilibria(m, opts)
    assert len(sols) == len(kept)
    for sol, ref in zip(sols, kept):
        assert np.max(np.abs(sol.x - ref) / ref) <= 1e-12


def test_batched_newton_matches_oracle_k2(k2_matrix):
    assert_matches_oracle(k2_matrix)


def test_batched_newton_matches_oracle_criterion_3_triangles():
    rng = np.random.default_rng(0)  # the draw of the criterion-3 sweep
    for _ in range(50):
        assert_matches_oracle(random_matrix(3, rng))


@pytest.mark.parametrize("K, seed", [(5, 0), (5, 1), (12, 3), (24, 4)])
def test_batched_newton_matches_oracle_random(K, seed):
    # at K = 24 the 65 starts run in ten blocks
    assert_matches_oracle(random_matrix(K, np.random.default_rng(seed)))


def test_batched_newton_matches_oracle_k10_family(family):
    # the cosine-curve solutions are not isolated, so a converged point may
    # drift along the curve from the oracle's; it must still lie on it
    m, opts = family.matrix, SolverOptions()
    ts = np.linspace(0.0, 2.0 * np.pi, 200001)
    curve = family.coeff_a + family.coeff_b * np.cos(
        ts[:, None] + 2.0 * np.arange(10)[None, :] * family.theta
    )

    def dist_to_curve(x):
        return float(np.min(np.max(np.abs(curve - x[None, :]), axis=1)))

    starts = oracle_starts(m, opts)
    xs, _, _, outcome = _newton(starts, m, opts)
    on_curve = 0
    for s, x, out in zip(starts, xs, outcome):
        ref = newton_oracle(s, m, opts)
        assert (ref is not None) == (out == 0)
        if ref is None:
            continue
        if dist_to_curve(ref[0]) <= 1e-4:
            assert dist_to_curve(x) <= 1e-4
            on_curve += 1
        else:  # the isolated symmetric solution
            assert np.max(np.abs(x - ref[0]) / ref[0]) <= 1e-12
    assert on_curve
