import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bubblefield.circulant import THETA, family_member, family_tangent
from bubblefield.config import InteractionMatrix, build_configuration, interaction_matrix
from bubblefield.equilibrium import (
    MAX_TOL,
    NonPositiveComponent,
    NonPositiveDistance,
    NoSolutionFound,
    ReducedSolution,
    SolverOptions,
    SpectrumFailure,
    isolation_check,
    k2_closed_form,
    lift,
    reduced_jacobian,
    reduced_residual,
    solve_equilibria,
    symmetrized_matrix,
    _ascend,
    _bounds,
    _gamma,
    _Hit,
    _Solve,
)
from bubblefield.errors import InvalidInput

from conftest import NEAR_CURVE, flow_jacobian, random_matrix, signs


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


def test_exported_functions_take_a_list(k2_matrix):
    x = k2_solution_x(k2_matrix)
    for f in (reduced_residual, reduced_jacobian, symmetrized_matrix):
        assert np.array_equal(f(x.tolist(), k2_matrix), f(x, k2_matrix))


def test_solution_k_is_its_length(k2_matrix):
    assert [s.K for s in solve_equilibria(k2_matrix)] == [2]


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
    assert abs(np.prod(6.0 - rep.eigenvalues) + 288.0) <= 1e-9
    assert rep.eig18_residual <= 1e-10
    assert rep.isolated
    assert signs(rep.eigenvalues) == "-+"
    a = symmetrized_matrix(sol.x, k2_matrix)
    assert abs(np.trace(a)) == 0.0
    assert abs(np.sum(rep.eigenvalues)) <= 1e-10 * np.max(np.abs(a))


def test_isolation_check_requires_converged_input(k2_matrix, k3_equilateral):
    bad = ReducedSolution(x=np.array([1.0, 1.0]), residual_norm=1e-3, tolerance=1e-3)
    with pytest.raises(InvalidInput):
        isolation_check(bad, k2_matrix)
    # the gate checks the residual at x, not the one stated: twice the K = 2 solution
    # has max|f| = 18.6, and before, its residual_norm of 0.0 passed the gate and its
    # eigenvalues (-72, 72) were reported
    wrong = ReducedSolution(x=2.0 * k2_solution_x(k2_matrix), residual_norm=0.0, tolerance=1e-12)
    with pytest.raises(InvalidInput, match=r"got 1\.857e\+01"):
        isolation_check(wrong, k2_matrix)
    # and a residual that overflows (to NaN: 0 inf on the diagonal) fails it, without a warning
    with pytest.raises(InvalidInput, match="got nan"):
        isolation_check(replace(wrong, x=np.full(2, 1e200)), k2_matrix)
    # the bound is relative to the solution's size, as the solver's is: K = 2 at
    # distance 7.2e6 has the solution x = 1e10, where the bound is 600; off it by a
    # relative 1e-6, max|f| is 1.2e5, and by 1e-10 it is 12
    kappa = k2_matrix.kappa
    distance = (kappa * 1e20 / 6.0) ** (1.0 / 3.0)
    m = interaction_matrix(build_configuration([[0, 0, 0, 0, 0], [distance, 0, 0, 0, 0]]))
    x_star = np.sqrt(k2_closed_form(distance, kappa).a)
    assert np.allclose(x_star, 1e10, rtol=1e-12, atol=0)
    far = ReducedSolution(x=x_star * (1.0 + 1e-6), residual_norm=0.0, tolerance=1e-12)
    with pytest.raises(InvalidInput, match=r"max\|f\| <= 6\.000e\+02 at x, got 1\.200e\+05"):
        isolation_check(far, m)
    isolation_check(replace(far, x=x_star * (1.0 + 1e-10)), m)
    # and x must have the matrix's length: before, numpy's broadcast ValueError escaped
    with pytest.raises(InvalidInput, match="2 components"):
        isolation_check(solve_equilibria(k3_equilateral)[0], k2_matrix)


def test_every_allowed_tol_passes_the_isolation_gate():
    # solver.tol is capped where isolation_check's bound is: before, tol = 1e-7 gave this
    # K = 16 configuration a solution that isolation_check refused (9.18e-08 > 3.20e-08)
    m = cluster_pool()[1]
    with pytest.raises(InvalidInput):
        SolverOptions(tol=1e-7)
    for sol in solve_equilibria(m, SolverOptions(tol=MAX_TOL)):
        isolation_check(sol, m)


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
    # A has the eigenvalue 18 once and -18/(K-1) K-1 times
    expected = np.array([-18.0 / (K - 1)] * (K - 1) + [18.0])
    assert np.max(np.abs(rep.eigenvalues - expected)) <= 18.0 * K * 1e-14  # O(K u |A|)
    if K == 50:  # the product rule the certificate replaced, still finite at this size
        assert rep.isolated == bool(abs(np.prod(6.0 - rep.eigenvalues)) > 1e-8 * 6.0**K)


def assert_certified_near(sol, m, x_star):
    """The certificate passes and its existence ball holds the exact solution x_star."""
    rep = isolation_check(sol, m)
    # the Krawczyk boxes x +- rho pass for every rho between the radii, all inside the orthant
    assert rep.isolated
    assert rep.existence_radius < rep.uniqueness_radius <= np.min(sol.x)
    # x_star itself is a float, so allow the few ulp of its own rounding
    ulp = np.max(np.spacing(x_star))
    assert np.max(np.abs(sol.x - x_star)) <= rep.existence_radius + 4.0 * ulp
    # the radius covers the rounding of the residual, so it is never below one ulp
    assert rep.existence_radius >= ulp


@pytest.mark.parametrize("distance", [1e-3, 1.0, 2.0, 5.0, 1e30])
def test_solve_k2_closed_form(distance, kappa):
    cfg = build_configuration([[0, 0, 0, 0, 0], [distance, 0, 0, 0, 0]])
    m = interaction_matrix(cfg)
    sols = solve_equilibria(m)
    assert len(sols) == 1
    a = lift(sols[0]).a
    target = 6.0 * distance**3 / kappa
    assert np.max(np.abs(a - target)) <= 1e-10 * target
    assert_certified_near(sols[0], m, np.sqrt(k2_closed_form(distance, kappa).a))


def test_solve_k3_equilateral(k3_equilateral, kappa):
    sols = solve_equilibria(k3_equilateral)
    target = 3.0 / kappa
    best = min(sols, key=lambda s: np.max(np.abs(lift(s).a - target)))
    assert np.max(np.abs(lift(best).a - target)) <= 1e-10 * target
    assert_certified_near(best, k3_equilateral, np.full(3, np.sqrt(target)))


def test_solve_k10_family_member(family):
    sols = solve_equilibria(family.matrix)
    assert sols
    ts = np.linspace(0.0, 2.0 * np.pi, 200001)
    curve = family.coeff_a + family.coeff_b * np.cos(
        ts[:, None] + 2.0 * np.arange(10)[None, :] * THETA
    )
    dists = [float(np.min(np.max(np.abs(curve - s.x[None, :]), axis=1))) for s in sols]
    assert min(dists) <= 1e-4  # the ascent ends on the cosine curve
    # deflation adds the isolated solution off the curve
    off = [s for s, d in zip(sols, dists) if d > 0.1]
    assert off and all(isolation_check(s, family.matrix).isolated for s in off)


def test_no_solution_reported(monkeypatch):
    # the ascent first tries a Newton polish after 5 steps, so 4 cannot succeed
    import bubblefield.equilibrium as eq

    monkeypatch.setattr(eq, "_MAX_ITER", 4)
    with pytest.raises(NoSolutionFound) as exc:
        solve_equilibria(random_matrix(3, np.random.default_rng(2)))
    assert str(exc.value) == "sphere ascent found no solution in _MAX_ITER = 4 steps"


def test_random_k20_solved():
    # the random multistart this solver replaced found nothing here
    m = random_matrix(20, np.random.default_rng(0))
    sols = solve_equilibria(m)
    assert sols
    for s in sols:
        assert np.all(s.x > 0)
        assert np.max(np.abs(reduced_residual(s.x, m))) <= s.tolerance


def cluster_pool():
    """The K = 12..24 configurations of the cluster-solve benchmark, unmoved."""
    ref = np.random.default_rng(12)
    return [random_matrix(k, ref) for _ in range(16) for k in (12, 16, 20, 24)]


def k4_pool():
    """64 random K = 4 configurations, the smallest K at which deflated runs are made."""
    rng = np.random.default_rng(1)
    return [random_matrix(4, rng) for _ in range(64)]


def _stable_dimension(sol, m):
    """Negative eigenvalues of the flow Jacobian at lift(sol), checked against A's spectrum.

    Each eigenvalue mu of A contributes (5 +- sqrt(13 + 2 mu)) / 2 to the
    linearization; the eigenvalue 18 gives {6, -1}, and each other mu > 6
    one more negative eigenvalue.
    """
    lam = np.linalg.eigvals(flow_jacobian(lift(sol), m))
    mu, vecs = np.linalg.eigh(symmetrized_matrix(sol.x, m))
    root = np.sqrt(13.0 + 2.0 * mu.astype(complex))
    predicted = np.concatenate([(5.0 + root) / 2.0, (5.0 - root) / 2.0])
    gap = np.abs(lam[:, None] - predicted[None, :])
    assert max(np.max(np.min(gap, axis=0)), np.max(np.min(gap, axis=1))) <= 1e-9
    assert np.min(np.abs(lam - 6.0)) <= 1e-9 and np.min(np.abs(lam + 1.0)) <= 1e-9
    n_stable = int(np.sum(lam.real < 0))
    i18 = np.argmax(np.abs(vecs.T @ sol.x**2))  # the eigenvector x^2
    assert n_stable == 1 + np.sum(np.delete(mu, i18) > 6.0)
    return n_stable


def solve_box(m):
    """What solve_equilibria's Newton runs share: m and the solution box of _bounds."""
    return _Solve(m, *_bounds(m, np.add.reduce(m.m, axis=1)))


def test_ascent_solution_is_certified_maximizer_with_smallest_a():
    opts = SolverOptions()
    for m in cluster_pool():
        x = _ascend(solve_box(m), opts).x
        mu, vecs = np.linalg.eigh(symmetrized_matrix(x, m))
        i18 = np.argmax(np.abs(vecs.T @ x**2))  # the eigenvector x^2
        assert abs(mu[i18] - 18.0) <= 1e-7
        assert np.max(np.delete(mu, i18)) < 6.0  # a local maximizer of G on the sphere
        sols = solve_equilibria(m, opts)
        assert any(np.array_equal(s.x, x) for s in sols)
        assert np.linalg.norm(x**2) == min(np.linalg.norm(s.x**2) for s in sols)
        # every solution's linearization is the predicted saddle; the maximizer's
        # stable set is one-dimensional
        for s in sols:
            assert _stable_dimension(s, m) == 1 or not np.array_equal(s.x, x)


def test_max_iter_caps_total_ascent_steps(monkeypatch, family):
    # K = 10 family: the polish at step 5 finds a saddle and escapes from it,
    # the one at step 10 fails, and the one at step 15 lands on the cosine curve
    import bubblefield.equilibrium as eq

    monkeypatch.setattr(eq, "_MAX_ITER", 14)
    with pytest.raises(NoSolutionFound):
        solve_equilibria(family.matrix)
    monkeypatch.setattr(eq, "_MAX_ITER", 15)
    assert len(solve_equilibria(family.matrix)) == 2


# ROADMAP item 3 (one principled ascent) is to return a solution on these two as
# well: it must turn both assertions into the residual check below
NEAR_CURVE_UNSOLVED = {"B0(1+1e-3)", "B0(1-1e-6)"}


@pytest.mark.parametrize("case", NEAR_CURVE)
def test_near_curve_pool(case, near_curve, monkeypatch):
    m = near_curve[case]
    if case in NEAR_CURVE_UNSOLVED:
        with pytest.raises(NoSolutionFound):
            solve_equilibria(m)
        return
    sols = solve_equilibria(m)
    assert sols
    for s in sols:
        assert np.all(s.x > 0)
        assert np.max(np.abs(reduced_residual(s.x, m))) <= s.tolerance
    assert_reuse_is_exact(sols, m, monkeypatch)  # P0 is points_k10(B0)
    if case == "P0+1e-3N":
        # a deflated run that finds a new solution is repeated from the same start,
        # and every run spends one of the 1 + n_random: by default four runs hit
        # and the fifth misses, while n_random = 1 stops after two hits
        assert len(sols) == 5
        assert len(solve_equilibria(m, SolverOptions(n_random=1))) == 3


def test_residual_evaluations_per_solve(monkeypatch):
    # a Newton run carries the residual of each accepted iterate, and a seed's
    # residual from the seed check, instead of evaluating them again
    import bubblefield.equilibrium as eq

    calls = []
    residual = eq.reduced_residual
    monkeypatch.setattr(eq, "reduced_residual", lambda x, m: calls.append(1) or residual(x, m))
    pool = cluster_pool()
    for m in pool:
        solve_equilibria(m)
    assert len(calls) / len(pool) <= 50.0


def test_solver_work_does_not_depend_on_rounding(monkeypatch):
    # a rigid motion changes the matrix only by rounding; a failing deflated run
    # must end where it stalls, not creep on for a rounding-dependent number of steps
    import bubblefield.equilibrium as eq

    calls = []
    residual = eq.reduced_residual
    monkeypatch.setattr(eq, "reduced_residual", lambda x, m: calls.append(1) or residual(x, m))
    ref = np.random.default_rng(12)
    for k in (12, 16, 20, 24):
        while True:
            pts = ref.normal(size=(k, 5))
            rows, cols = np.triu_indices(k, 1)
            if np.min(build_configuration(pts).dist[rows, cols]) > 0.2:
                break
        counts = set()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            calls.clear()
            solve_equilibria(interaction_matrix(build_configuration(pts @ q + rng.normal(size=5))))
            counts.add(len(calls))
        assert len(counts) == 1, (k, sorted(counts))


def solution_box(m):
    """(floor, low) written plainly: max x >= floor and min x >= low at every solution.

    With rho the largest row sum of m and mu its smallest coupling,
    6 max x <= rho (max x)^3 and 6 x_k >= mu (max x)^3.
    """
    rho = np.max(np.sum(m.m, axis=1))
    mu = np.min(m.m[np.triu_indices(m.K, 1)])
    return math.sqrt(6.0 / rho), math.sqrt(6.0 / rho) * mu / rho


def newton_oracle(x, m, opts, roots=None, scale=1.0, f=None, searches=None):
    """The damped Newton run written plainly: the lean _newton must repeat it bit for bit.

    Same trials, same positivity test on each, same merit |M f|^2, through
    the fromnumeric reductions and a generator over the list of trials.  The step is
    -J^-1 f with J = D^-1 (6I - A) D, D = diag(x), inverted through one eigh
    of A, each 1 / (6 - mu) cut to 0 where |6 - mu| <= K 2^-52 max|6 - mu|.
    A run stops at an accepted iterate that leaves the solution box.  Each
    line search appends to searches (if given) whether its first trial was
    positive and the halving h it took (None if none).
    """
    import bubblefield.equilibrium as eq

    def merit(y, f=None):
        f = eq.reduced_residual(y, m) if f is None else f
        w = 1.0 if roots is None else np.prod(1.0 + scale**2 / np.sum((y - roots) ** 2, axis=1))
        return f, w * w * (f @ f)

    floor, low = solution_box(m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, m0 = merit(x, f)
    for _ in range(eq._MAX_ITER):
        nf = float(np.max(np.abs(f)))
        thresh = opts.tol * (1.0 + 6.0 * float(np.max(np.abs(x))))
        if nf <= thresh:
            return (x, nf, thresh, f) if np.max(x) >= floor * (1.0 - opts.tol) else None
        mu, v = np.linalg.eigh(eq.symmetrized_matrix(x, m))
        shift = 6.0 - mu
        cut = np.abs(shift) <= len(x) * 2.0**-52 * np.max(np.abs(shift))
        with np.errstate(divide="ignore"):
            r = np.where(cut, 0.0, 1.0 / shift)
        step = -(v @ (r * ((x * f) @ v))) / x
        if roots is not None:
            d = x - roots
            dd = np.sum(d * d, axis=1)
            with np.errstate(over="ignore"):
                step = step / (1.0 + 2.0 * scale**2 * ((1.0 / (dd * (dd + scale**2))) @ d) @ step)
        if not np.all(np.isfinite(step)):
            return None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            edge = np.min(-x / step, where=step < 0, initial=np.inf)
            lam = 2.0 ** min(0.0, np.floor(np.log2(edge)))
            trials = [x + lam * 0.5**h * step for h in range(eq._HALVINGS + 1)]
            evaluated = ((h, y, *merit(y)) for h, y in enumerate(trials) if np.all(y > 0))
            h, x, f, m0 = next((e for e in evaluated if e[3] < m0), (None, None, None, None))
        if searches is not None:
            searches.append((bool(np.all(trials[0] > 0)), h))
        if x is None or np.min(x) < low * (1.0 - opts.tol):
            return None
    return None


def test_newton_matches_readable_oracle(monkeypatch):
    # every Newton run of the solver, ascent polishes and deflated runs alike,
    # on the cluster pool and the K = 4 pool (a triangle makes no deflated run)
    import bubblefield.equilibrium as eq

    calls = []
    residual = eq.reduced_residual
    monkeypatch.setattr(eq, "reduced_residual", lambda x, m: calls.append(1) or residual(x, m))
    lean, runs = eq._newton, []

    def recorded(x, s, opts, roots, scale2=1.0, f=None):
        before = len(calls)
        hit = lean(x, s, opts, roots, scale2, f)
        runs.append((x, s.m, opts, roots, scale2, f, hit, len(calls) - before))
        return hit

    monkeypatch.setattr(eq, "_newton", recorded)
    for m in cluster_pool() + k4_pool():
        solve_equilibria(m)
    assert sum(len(r[3]) == 0 for r in runs) > 100 and sum(len(r[3]) > 0 for r in runs) > 100
    assert sum(r[6] is not None for r in runs) > 100
    taken = []
    for x, m, opts, roots, scale2, f, hit, n_calls in runs:
        deflated = len(roots) > 0  # a polish deflates no root
        scale = np.sqrt(6.0 / np.mean(np.sum(m.m, axis=1))) if deflated else 1.0
        assert scale**2 == scale2 or not deflated  # the square of the symmetric seed value
        searches = []
        want = newton_oracle(x, m, opts, roots if deflated else None, scale, f, searches)
        # the lean search evaluates the whole step alone if it is positive, and the
        # halvings as one stacked call if the whole step is not taken
        assert n_calls == (f is None) + sum(first + (h != 0) for first, h in searches)
        taken += [h for _, h in searches]
        assert (hit is None) == (want is None)
        if hit is not None:
            assert hit.x.tobytes() == want[0].tobytes() and hit.f.tobytes() == want[3].tobytes()
            assert (hit.nf, hit.thresh) == (want[1], want[2])
    # the stack is exercised: runs take a halving from deep in it, and runs fail in it
    assert max(h for h in taken if h is not None) >= 4 and taken.count(None) > 50


def test_stacked_residual_and_merit_match_each_row():
    # the line search evaluates its halvings as one stack: each row must have the bytes
    # of the 1-D call on that row, inside the orthant and out, with roots and without,
    # and the 1-D residual keeps the bytes of 6 x - m @ x^3
    import bubblefield.equilibrium as eq

    rng = np.random.default_rng(46)
    for K in range(2, 101):
        upper = np.triu(rng.uniform(0.0, 3.0, size=(K, K)), 1)
        m = InteractionMatrix(m=upper + upper.T, kappa=1.0)
        ys = rng.normal(0.5, 1.0, size=(8, K))
        ys[:4] = np.abs(ys[:4])  # four rows inside the orthant, the others almost surely not
        roots = np.vstack([np.zeros(K), rng.uniform(0.1, 2.0, size=(3, K))])
        stacked = reduced_residual(ys, m)
        for y, row in zip(ys, stacked):
            assert row.tobytes() == reduced_residual(y, m).tobytes()
            assert reduced_residual(y, m).tobytes() == (6.0 * y - m.m @ y**3).tobytes()
        for deflated in ((), roots):
            fs, ms, dds = eq._merit(ys, m, deflated, 0.7)
            assert fs.tobytes() == stacked.tobytes()
            for i, y in enumerate(ys):
                f, mi, dd = eq._merit(y, m, deflated, 0.7)
                assert f.tobytes() == fs[i].tobytes()
                assert np.asarray(mi).tobytes() == np.asarray(ms[i]).tobytes()
                assert dd is dds is None or dd.tobytes() == dds[i].tobytes()


def assert_reuse_is_exact(sols, m, monkeypatch):
    """isolation_check reuses a solve's record on its own m, with the bits of a fresh check.

    A fresh ReducedSolution of the same x, or an equal copy of m, is decomposed
    again (one _spectrum call); the solve's own m is not (none); and
    dataclasses.replace carries no record.
    """
    import bubblefield.equilibrium as eq

    calls, built, spectrum, build = [], [], eq._spectrum, eq.symmetrized_matrix
    copy = InteractionMatrix(m=m.m.copy(), kappa=m.kappa)
    with monkeypatch.context() as patch:
        patch.setattr(eq, "_spectrum", lambda x, m: calls.append(1) or spectrum(x, m))
        # A u takes the A the solve decomposed: symmetrized_matrix only builds a fresh check's
        patch.setattr(eq, "symmetrized_matrix", lambda x, m: built.append(1) or build(x, m))
        for sol in sols:
            fresh = ReducedSolution(x=sol.x.copy(), residual_norm=sol.residual_norm,
                                    tolerance=sol.tolerance)
            assert replace(sol)._record is None
            for s, matrix, n in ((fresh, m, 1), (sol, m, 0), (sol, m, 0), (sol, copy, 1),
                                 (replace(sol), m, 1)):
                calls.clear()
                built.clear()
                got, want = isolation_check(s, matrix), isolation_check(fresh, copy)
                assert len(calls) == len(built) == n + 1
                assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
                assert (got.eig18_residual, got.isolated, got.existence_radius,
                        got.uniqueness_radius) == (want.eig18_residual, want.isolated,
                                                   want.existence_radius, want.uniqueness_radius)


def test_isolation_check_reuses_the_solve_exactly(monkeypatch):
    # each point a solve returns was decomposed (and maybe certified) by the solve;
    # isolation_check takes both from it, and the report is the fresh one bit for bit
    rng = np.random.default_rng(1)
    triangles = [random_matrix(3, rng) for _ in range(512)]  # triangle-sweep's, seed 1
    for m in cluster_pool() + k4_pool() + triangles:
        assert_reuse_is_exact(solve_equilibria(m), m, monkeypatch)


def test_isolation_check_refuses_a_non_positive_point(k2_matrix):
    # x = 0 and -x* solve the system (its cubes are odd) and pass the residual gate,
    # but A and the certificate need x > 0
    x_star = k2_solution_x(k2_matrix)
    for x in (np.zeros(2), -x_star):
        f = float(np.max(np.abs(reduced_residual(x, k2_matrix))))
        sol = ReducedSolution(x=x, residual_norm=f, tolerance=1e-12)
        with pytest.raises(NonPositiveComponent):
            isolation_check(sol, k2_matrix)


def test_isolation_check_recomputes_on_couplings_that_can_change():
    # a hand-built matrix may hold a writable array, which its caller can change in
    # place after the solve: the solve's record is then not reused, and the gate
    # refuses the point, which no longer solves the system
    base = random_matrix(5, np.random.default_rng(3))
    m = InteractionMatrix(m=base.m.copy(), kappa=base.kappa)
    sol = solve_equilibria(m)[0]
    m.m[...] *= 2.0
    with pytest.raises(InvalidInput, match=r"max\|f\|"):
        isolation_check(sol, m)


def test_newton_fails_on_a_non_finite_step_without_a_warning(monkeypatch, k3_equilateral):
    # one inf in 1 / (6 - mu), on an eigenvector with no zero entry, gives a step
    # of +inf from above the solution; the run must end there, before any
    # line-search trial evaluates the residual at inf
    import bubblefield.equilibrium as eq

    m = k3_equilateral
    x = np.full(3, 100.0)
    f = reduced_residual(x, m)
    assert (f < 0).all()
    v = np.linalg.qr(np.ones((3, 3)) + np.eye(3))[0]  # first column +-(1, 1, 1) / sqrt(3)
    calls = []
    residual = eq.reduced_residual
    monkeypatch.setattr(eq, "reduced_residual", lambda x, m: calls.append(1) or residual(x, m))
    monkeypatch.setattr(eq, "_spectrum", lambda x, m: (None, v, np.array([np.inf, 1.0, 1.0]), None))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eq._newton(x, solve_box(m), SolverOptions(), (), f=f) is None
    assert calls == []


def test_solution_box_changes_no_solution_and_saves_work_at_k4(monkeypatch, family):
    # a Newton run that leaves the box fails at once; with the bound at 0 it runs
    # on until it stalls, so the box only saves work on runs that find nothing
    import bubblefield.equilibrium as eq

    calls = []
    residual = eq.reduced_residual
    monkeypatch.setattr(eq, "reduced_residual", lambda x, m: calls.append(1) or residual(x, m))
    box = eq._bounds

    def solve_all(pool, bounds):
        monkeypatch.setattr(eq, "_bounds", bounds)
        calls.clear()
        sols = [
            [(s.x.tobytes(), s.residual_norm, s.tolerance) for s in solve_equilibria(m)]
            for m in pool
        ]
        return sols, len(calls)

    three = np.random.default_rng(104)
    random_matrix(4, three)  # the second draw has three solutions, two of them maxima
    k2 = interaction_matrix(build_configuration([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]))
    k4 = k4_pool()
    pools = (cluster_pool(), k4, [k2, random_matrix(4, three), family.matrix])
    for pool, count in zip(pools, (82, 64, 5)):
        boxed, n_boxed = solve_all(pool, box)
        unboxed, n_unboxed = solve_all(pool, lambda m, rows: (box(m, rows)[0], 0.0))
        assert boxed == unboxed and sum(map(len, boxed)) == count
        assert n_boxed < n_unboxed or pool is not k4


def test_newton_accepts_an_iterate_within_rounding_below_the_box():
    # at K = 2 the solution lies on both bounds, and at distance 2 low rounds one
    # ulp above floor: a run converging onto the solution ends one ulp below low
    import bubblefield.equilibrium as eq

    m = interaction_matrix(build_configuration([[0, 0, 0, 0, 0], [2, 0, 0, 0, 0]]))
    s = solve_box(m)
    hit = eq._newton(np.full(2, 1.001 * s.floor), s, SolverOptions(), ())
    assert hit is not None and np.all(hit.x == s.floor) and s.floor < s.low


def test_k2_closed_form_lies_on_the_solution_box():
    # at K = 2 both bounds are attained: x = sqrt(6 d^3 / kappa) = floor = low
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @hypothesis.given(hypothesis.strategies.floats(1e-3, 1e3))
    def check(distance):
        m = interaction_matrix(build_configuration([[0, 0, 0, 0, 0], [distance, 0, 0, 0, 0]]))
        x = np.sqrt(k2_closed_form(distance, m.kappa).a)
        for bound in solution_box(m):
            assert np.max(np.abs(x / bound - 1.0)) <= 4 * 2.0**-52

    check()


def test_certificate_holds_for_any_preconditioner(monkeypatch, k3_equilateral):
    # the Krawczyk test is sound for any C, so the spectrum's inverse of J needs no
    # bound of its own: a C scaled by -1 or 2 leaves ||I - C J|| >= 1 and fails,
    # and a C scaled by 1/2 halves a, p and 1 - e alike and keeps both radii; the
    # checks take a fresh solution, which carries no spectrum from its solve
    import bubblefield.equilibrium as eq

    solved = solve_equilibria(k3_equilateral)[0]
    rep = isolation_check(solved, k3_equilateral)
    assert rep.isolated
    sol = ReducedSolution(x=solved.x.copy(), residual_norm=solved.residual_norm,
                          tolerance=solved.tolerance)
    spectrum = eq._spectrum

    def scaled(c):
        def patched(x, m):
            mu, v, r, a = spectrum(x, m)
            return mu, v, c * r, a
        return patched

    for c in (-1.0, 2.0):
        monkeypatch.setattr(eq, "_spectrum", scaled(c))
        bad = isolation_check(sol, k3_equilateral)
        assert not bad.isolated
        assert bad.existence_radius == np.inf and bad.uniqueness_radius == 0.0
    monkeypatch.setattr(eq, "_spectrum", scaled(0.5))
    half = isolation_check(sol, k3_equilateral)
    assert half.isolated
    assert half.existence_radius == pytest.approx(rep.existence_radius, rel=1e-12)
    assert half.uniqueness_radius == pytest.approx(rep.uniqueness_radius, rel=1e-12)


def certificate_oracle(x, m, f, v, r):
    """_certificate's (r0, r1) as first written: reduced_jacobian, fromnumeric max and min."""
    k = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = (v * r) @ v.T * x / x[:, None]
        cabs, j = np.abs(c), reduced_jacobian(x, m)
        g = _gamma(k + 2) * (6.0 * x + m.m @ x**3)
        a = (1.0 + _gamma(k + 1)) * float((cabs @ (np.abs(f) + g)).max())
        e = float(np.add.reduce(np.abs(np.eye(k) - c @ j), axis=1).max())
        e += _gamma(k + 4) * float(np.add.reduce(cabs @ np.abs(j), axis=1).max())
        p = 9.0 * (1.0 + _gamma(2 * k + 1)) * float((cabs @ (m.m @ x)).max())
        b = 1.0 - e
        disc = b * b - 4.0 * a * p
        if not (b > 0.0 and disc > 0.0):
            return math.inf, 0.0
        root = b + math.sqrt(disc)
        r0, r1 = 2.0 * a / root, min(root / (2.0 * p), float(x.min()))
    return (r0, r1) if r0 < r1 else (math.inf, 0.0)


def test_rewritten_forms_keep_the_bytes():
    # the solve-and-certify path takes cheaper numpy forms of the same arithmetic: each
    # must give the bytes of the plain form, at every K up to 100
    import bubblefield.equilibrium as eq

    rng = np.random.default_rng(47)
    seeds, residual = [], eq.reduced_residual

    def first_residual(x, m):
        seeds.append(np.array(x))
        return residual(x, m)

    def stop(m, row_sums):
        seeds.append(row_sums)  # the row sums the seed took, passed on
        raise RuntimeError("seed checked")

    passed = 0
    for K in range(2, 101):
        m = random_matrix(K, rng)
        x = rng.uniform(0.1, 3.0, size=K)
        outer = (3.0 * m.m * np.outer(x, x)).tobytes()
        assert symmetrized_matrix(x, m).tobytes() == outer == eq._spectrum(x, m)[3].tobytes()
        assert eq._g(x, m) == float(x**3 @ m.m @ x**3)
        w = rng.normal(size=K)
        assert math.sqrt(w.dot(w)) == float(np.linalg.norm(w))
        # the flat view of _bounds picks the off-diagonal entries, also of an array stored
        # transposed; the transpose of a non-symmetric matrix tells rows from columns
        upper = np.triu(rng.uniform(0.5, 3.0, size=(K, K)), 1)
        skew = InteractionMatrix(m=(upper + 2.0 * upper.T).T, kappa=1.0)
        assert not skew.m.flags.c_contiguous
        for matrix in (m, skew):
            rows = np.sum(matrix.m, axis=1)
            rho, mu = np.max(rows), np.min(matrix.m[~np.eye(K, dtype=bool)])
            assert eq._bounds(matrix, rows) == (math.sqrt(6.0 / rho), math.sqrt(6.0 / rho) * mu / rho)
        # the symmetric seed of solve_equilibria, and the row sums it passes to _bounds
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eq, "reduced_residual", first_residual)
            patch.setattr(eq, "_bounds", stop)
            with pytest.raises(RuntimeError, match="seed checked"):
                solve_equilibria(m)
        xbar = np.sqrt(6.0 / np.mean(np.sum(m.m, axis=1)))
        assert seeds.pop().tobytes() == np.sum(m.m, axis=1).tobytes()
        assert seeds.pop().tobytes() == np.full(K, xbar).tobytes() and not seeds
        # _certificate with its own identity and J, against reduced_jacobian's; a residual
        # at rounding level lets most boxes pass, so the radii are compared, not just inf
        args = certificate_inputs(x, m, 1e-14 * rng.normal(size=K))
        got = eq._certificate(*args)
        assert got == certificate_oracle(*args)
        passed += got[1] > 0.0
    assert passed > 50


def certificate_inputs(x, m, f=None):
    """x, m, the residual (or f) and the spectrum's v and r: _certificate's arguments."""
    import bubblefield.equilibrium as eq

    _, v, r, _ = eq._spectrum(x, m)
    return x, m, reduced_residual(x, m) if f is None else f, v, r


def k2_one_ulp_off(distance, direction):
    m = interaction_matrix(build_configuration([[0, 0, 0, 0, 0], [distance, 0, 0, 0, 0]]))
    x_star = np.sqrt(k2_closed_form(distance, m.kappa).a)
    return np.nextafter(x_star, direction), x_star, m


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
@pytest.mark.parametrize("distance", [1e-3, 1.0, 2.0, 5.0])
def test_existence_radius_covers_the_k2_closed_form_one_ulp_away(distance, direction):
    # the rounding gate, centred: one ulp off the closed form the residual is at
    # rounding level, and only its rounding bound keeps the closed form in the box
    x, x_star, m = k2_one_ulp_off(distance, direction)
    residual = float(np.max(np.abs(reduced_residual(x, m))))
    rep = isolation_check(ReducedSolution(x=x, residual_norm=residual, tolerance=1e-12), m)
    assert rep.isolated
    assert np.max(np.abs(x - x_star)) <= rep.existence_radius < rep.uniqueness_radius


def exact_krawczyk(x, m, c):
    """(a, e, p) of the Krawczyk quadratic at x for the preconditioner c, in exact arithmetic."""
    from fractions import Fraction

    k = len(x)
    X = [Fraction(float(t)) for t in x]
    M = [[Fraction(float(t)) for t in row] for row in m.m]
    C = [[Fraction(float(t)) for t in row] for row in c]
    f = [6 * X[i] - sum(M[i][j] * X[j] ** 3 for j in range(k)) for i in range(k)]
    J = [[6 * (i == j) - 3 * M[i][j] * X[j] ** 2 for j in range(k)] for i in range(k)]
    mx = [sum(M[i][j] * X[j] for j in range(k)) for i in range(k)]
    a = max(sum(abs(C[i][j] * f[j]) for j in range(k)) for i in range(k))
    e = max(
        sum(abs((i == l) - sum(C[i][j] * J[j][l] for j in range(k))) for l in range(k))
        for i in range(k)
    )
    p = 9 * max(sum(abs(C[i][j]) * mx[j] for j in range(k)) for i in range(k))
    return a, e, p


def test_certificate_holds_in_exact_arithmetic(k3_equilateral):
    # every box x +- rho with rho between the radii passes the Krawczyk test with
    # the exact residual and Jacobian at the float x; the quadratic is convex in
    # rho, so its two ends suffice, and the box stays in the orthant
    from fractions import Fraction

    import bubblefield.equilibrium as eq

    cases = [k2_one_ulp_off(1.0, d)[::2] for d in (-np.inf, np.inf)]
    cases.append((solve_equilibria(k3_equilateral)[0].x, k3_equilateral))
    m5 = random_matrix(5, np.random.default_rng(505))
    cases += [(s.x, m5) for s in solve_equilibria(m5)]
    for x, m in cases:
        x, m, f, v, r = certificate_inputs(x, m)
        for scale in (1.0, 0.5):  # any preconditioner: the spectrum's, and half of it
            r0, r1 = eq._certificate(x, m, f, v, scale * r)
            assert 0.0 < r0 < r1 <= np.min(x)
            a, e, p = exact_krawczyk(x, m, (v * (scale * r)) @ v.T * x / x[:, None])
            for rho in (Fraction(r0), Fraction(r1)):
                assert a + e * rho + p * rho**2 <= rho


def test_every_rounding_allowance_widens_the_test(monkeypatch):
    # four roundings are bounded, each by one gamma_n: of the residual f, of a's
    # sums, of J and C J, and of p's sums.  Inflating any one alone must move the
    # radii the safe way, and visibly: a larger existence, a smaller uniqueness box
    import bubblefield.equilibrium as eq

    args = certificate_inputs(*k2_one_ulp_off(1.0, np.inf)[::2])
    r0, r1 = eq._certificate(*args)
    assert r1 < np.min(args[0])  # the upper root, not the cap, so p's allowance can move it
    gamma, calls = eq._gamma, []

    def inflated(i):
        def g(n):
            calls.append(n)
            return gamma(n) + (2.0**-20 if len(calls) == i + 1 else 0.0)
        return g

    for i in range(4):
        calls.clear()
        monkeypatch.setattr(eq, "_gamma", inflated(i))
        s0, s1 = eq._certificate(*args)
        assert s0 >= r0 and s1 <= r1 and (s0 > r0 or s1 < r1), i
    assert len(calls) == 4


def test_uniqueness_radius_is_capped_at_min_x():
    # |y^2 - x^2| <= 3 x rho only holds for rho <= min x, where the box stays in the
    # orthant: on this K = 16 solution the quadratic's upper root is 0.080, 15 min x
    m = cluster_pool()[1]
    sol = solve_equilibria(m)[0]
    rep = isolation_check(sol, m)
    assert rep.isolated and rep.uniqueness_radius == np.min(sol.x)


@pytest.mark.parametrize("scale", [8.0, 20.0])
def test_certificate_fails_when_no_box_passes(scale):
    # on the solution of the last test, a residual f = scale min x puts the
    # quadratic's lower root past min x (scale 8: 0.0094 > 0.0055) or leaves it no
    # real root (scale 20): either way no box x +- rho passes
    import bubblefield.equilibrium as eq

    m = cluster_pool()[1]
    x = solve_equilibria(m)[0].x
    args = certificate_inputs(x, m, np.full(m.K, scale * np.min(x)))
    assert eq._certificate(*args) == (np.inf, 0.0)
    assert eq._certificate(*args[:2], args[2] / scale, *args[3:])[0] < np.min(x)


def test_spectrum_cuts_the_kernel_on_the_k10_curve(family):
    # 6 is an eigenvalue of A on the curve, in floating point exactly so at t = 0.37;
    # its 1 / (6 - mu) is cut to 0 and no other is, and the cut direction D^-1 v is
    # the curve's tangent, the kernel of J, so no Newton step moves along it
    import bubblefield.equilibrium as eq

    for t in (0.0, 0.37, 1.9):
        x = family_member(t, family).x
        mu, v, r, _ = eq._spectrum(x, family.matrix)
        cut = r == 0.0
        assert cut.sum() == 1 and abs(6.0 - mu[cut][0]) <= 1e-14
        assert np.array_equal(r[~cut], 1.0 / (6.0 - mu[~cut]))
        kernel, tangent = v[:, cut][:, 0] / x, family_tangent(t, family)
        cosine = abs(kernel @ tangent) / (np.linalg.norm(kernel) * np.linalg.norm(tangent))
        assert cosine >= 1.0 - 1e-12


def test_hit_inside_either_uniqueness_ball_is_a_duplicate(monkeypatch):
    # a deflated hit is a known solution when within the larger of the two radii:
    # here the second solution lies outside the first one's ball but inside its own
    import bubblefield.equilibrium as eq

    m = next(m for m in cluster_pool() if len(solve_equilibria(m)) == 2)
    first, second = solve_equilibria(m)
    gap = float(np.max(np.abs(first.x - second.x)))
    certified = []

    def certificate(x, m, f, v, r):
        certified.append(x)
        return 0.0, (gap / 10.0 if len(certified) == 1 else 10.0 * gap)

    monkeypatch.setattr(eq, "_certificate", certificate)
    assert len(solve_equilibria(m)) == 1
    assert len(certified) > 1


def test_a_duplicate_hit_leaves_no_radius_behind(monkeypatch):
    # the symmetric start hits d0, a duplicate of h0 whose radius covers h0; the seed
    # then hits h1 and, on its repeat, h2 just outside h1's ball.  Were d0's radius
    # kept, it would stand as h1's, and h2 would be dropped as a duplicate of h1
    import bubblefield.equilibrium as eq

    m = random_matrix(4, np.random.default_rng(4))
    h0 = np.array([1.0, 1.1, 1.2, 1.3])
    d0, h1 = h0 + 1e-2, h0 + 0.5
    h2 = h1 + 1e-3
    radius = {tuple(h0): 1e-6, tuple(d0): 1.0, tuple(h1): 1e-6, tuple(h2): 1e-6}
    hits = [d0, h1, h2]

    def hit(x):
        return _Hit(x, 0.0, 1e-12, np.zeros(4))

    def newton(x, s, opts, roots, scale2=1.0, f=None):
        return hit(hits.pop(0)) if hits else None

    monkeypatch.setattr(eq, "_ascend", lambda s, opts: hit(h0))
    monkeypatch.setattr(eq, "_newton", newton)
    monkeypatch.setattr(eq, "_certificate", lambda x, m, f, v, r: (0.0, radius[tuple(x)]))
    sols = solve_equilibria(m, SolverOptions(extra_seeds=(np.ones(4),)))
    assert [s.x.tolist() for s in sols] == [h0.tolist(), h1.tolist(), h2.tolist()]


def test_eigensolver_failure_in_a_solve_is_a_spectrum_failure(monkeypatch):
    # the Newton steps, the saddle test and the certificates share one eigh:
    # a LinAlgError at its first, a middle or its last call in a solve that
    # finds two solutions is a NumericalFailure, never a raw ValueError
    m = next(m for m in cluster_pool() if len(solve_equilibria(m)) == 2)
    eigh, calls = np.linalg.eigh, []

    def counted(a, fail_at=None):
        calls.append(1)
        if len(calls) == fail_at:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    solve_equilibria(m)
    n = len(calls)
    assert n > 10
    for fail_at in (1, n // 2, n):
        calls.clear()
        monkeypatch.setattr(np.linalg, "eigh", lambda a: counted(a, fail_at))
        with pytest.raises(SpectrumFailure, match="did not converge"):
            solve_equilibria(m)


def test_solutions_exist_and_are_valid():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    opts = SolverOptions()

    @hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    def check(K, seed):
        m = random_matrix(K, np.random.default_rng(seed))  # well separated
        sols = solve_equilibria(m, opts)
        assert sols
        # K = 2 meets both bounds of the solution box with equality, so allow rounding at tol
        floor, low = (b * (1.0 - opts.tol) for b in solution_box(m))
        for s in sols:
            assert np.all(s.x > 0)
            assert np.max(np.abs(reduced_residual(s.x, m))) <= s.tolerance
            assert np.max(s.x) >= floor and np.min(s.x) >= low
        # each solution lies outside every other's uniqueness ball
        radii = [isolation_check(s, m).uniqueness_radius for s in sols]
        for i, s in enumerate(sols):
            for t, r in zip(sols[i + 1 :], radii[i + 1 :]):
                assert np.max(np.abs(s.x - t.x)) > max(radii[i], r)

    check()


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
    # 50 seeded triangles, standard normal in R^5 with every pairwise distance > 0.2:
    # the certificate isolates each one's solution in a box inside the positive orthant;
    # seed 45 draws triangles no other test draws (acceptance criterion 3 draws seed 0's)
    rng = np.random.default_rng(45)
    for _ in range(50):
        m = random_matrix(3, rng)
        for sol in solve_equilibria(m):
            rep = isolation_check(sol, m)
            e = rep.eigenvalues
            assert e[0] <= e[1] < 0.0
            assert abs(e[2] - 18.0) <= 1e-7
            assert abs(np.prod(6.0 - e)) > 1e-6
            assert rep.isolated
            assert rep.existence_radius < rep.uniqueness_radius <= sol.x.min()
            assert signs(e) == "--+"


def unique_solution_pool(rng):
    """Triangles of solve_equilibria's K <= 3 uniqueness proof.

    64 random, 16 near-collinear (three points at least 0.2 apart on a line,
    moved off it by 1e-3) and 16 with two points 0.3 apart and the third 2 to
    4 away.  With the third point farther away, A's smallest entries are so
    small that its second eigenvalue lies within eigh's rounding of 0.
    """
    pool = [random_matrix(3, rng) for _ in range(64)]
    while len(pool) < 80:
        s = np.sort(rng.uniform(-2.0, 2.0, size=3))
        if np.min(np.diff(s)) > 0.2:
            u = rng.normal(size=5)
            pts = s[:, None] * u / np.linalg.norm(u) + 1e-3 * rng.normal(size=(3, 5))
            pool.append(interaction_matrix(build_configuration(pts)))
    for _ in range(16):
        u, v = (w / np.linalg.norm(w) for w in rng.normal(size=(2, 5)))
        pts = [np.zeros(5), 0.3 * u, rng.uniform(2.0, 4.0) * v]
        pool.append(interaction_matrix(build_configuration(pts)))
    return pool


def test_every_solution_at_k_le_3_is_a_nondegenerate_maximum(k2_matrix):
    # the proof in solve_equilibria: A has a zero diagonal and the eigenvalue 18, so its
    # other eigenvalue is -18 at K = 2, and at K = 3 the other two sum to -18 with
    # product det A / 18 = 2 A12 A13 A23 / 18 > 0: no eigenvalue but 18 lies above 6
    for m in unique_solution_pool(np.random.default_rng(35)) + [k2_matrix]:
        (sol,) = solve_equilibria(m)
        a = symmetrized_matrix(sol.x, m)
        mu, vecs = np.linalg.eigh(a)
        i18 = np.argmax(np.abs(vecs.T @ sol.x**2))  # the eigenvector x^2
        assert abs(mu[i18] - 18.0) <= 1e-7 and abs(mu.sum()) <= 1e-12  # tr A = 0
        assert np.delete(mu, i18).max() < 0.0
        if m.K == 3:
            product = 2.0 * a[0, 1] * a[0, 2] * a[1, 2]
            assert abs(np.linalg.det(a) - product) <= 1e-13 * product


def test_no_deflated_run_at_k_le_3(monkeypatch, k2_matrix, k3_equilateral):
    # the proof leaves a deflated run nothing to find at K <= 3, so none is made, not
    # even from an extra seed; at K = 4 the symmetric seed's run still is
    import bubblefield.equilibrium as eq

    newton, deflated = eq._newton, []

    def counted(x, s, opts, roots, scale2=1.0, f=None):
        deflated.append(len(roots) > 0)
        return newton(x, s, opts, roots, scale2, f)

    monkeypatch.setattr(eq, "_newton", counted)
    seeded = SolverOptions(extra_seeds=(np.array([0.4, 0.6, 0.5]),))
    rng = np.random.default_rng(1)
    for m, opts in ((k2_matrix, SolverOptions()), (k3_equilateral, SolverOptions()),
                    (k3_equilateral, seeded), (random_matrix(3, rng), seeded),
                    (random_matrix(4, rng), SolverOptions())):
        deflated.clear()
        assert len(solve_equilibria(m, opts)) == 1
        assert sum(deflated) == 0 if m.K <= 3 else sum(deflated) >= 1
    # an extra seed is still checked at K = 3, though no run starts from it
    for bad in ([0.4, -0.6, 0.5], [0.4, 0.0, 0.5], [0.4, 0.6]):
        with pytest.raises(InvalidInput):
            solve_equilibria(k3_equilateral, SolverOptions(extra_seeds=(np.array(bad),)))


def test_ascent_at_k_le_3_returns_its_first_polish(monkeypatch, k2_matrix, k3_equilateral):
    # at K <= 3 the solution is unique and a nondegenerate maximum of G (solve_equilibria),
    # so the ascent returns its first polished hit without comparing G or testing for a
    # saddle: the answer is the general path's, and the checks it skips would pass
    import bubblefield.equilibrium as eq

    newton, g_of, counts = eq._newton, eq._g, {"newton": 0, "g": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(eq, "_newton", counted("newton", newton))
    monkeypatch.setattr(eq, "_g", counted("g", g_of))
    opts = SolverOptions()
    rng = np.random.default_rng(1)
    triangles = [random_matrix(3, rng) for _ in range(512)]  # triangle-sweep's, seed 1
    pool = unique_solution_pool(np.random.default_rng(35)) + [k2_matrix, k3_equilateral]
    for m in pool + triangles:
        counts.update(newton=0, g=0)
        (sol,) = solve_equilibria(m, opts)
        assert counts == {"newton": 1, "g": 1}
        x = eq._unit(np.ones(m.K))
        for _ in range(5):
            x = eq._unit(np.sqrt(x * (m.m @ x**3)))
        g = g_of(x, m)
        hit = newton(math.sqrt(6.0 / g) * x, solve_box(m), opts, ())
        assert sol.x.tobytes() == hit.x.tobytes()
        assert (sol.residual_norm, sol.tolerance) == (hit.nf, hit.thresh)
        assert g_of(eq._unit(hit.x), m) >= g * (1.0 - opts.tol)
        mu, vecs = sol._record[1].spectrum[:2]  # the returned hit carries its spectrum
        i18 = np.argmax(np.abs(vecs.T @ hit.x**2))  # the eigenvalue 18
        assert abs(mu[i18] - 18.0) <= 1e-7 and np.delete(mu, i18).max() <= 6.0


def test_lift_round_trip(k2_matrix):
    sol = solve_equilibria(k2_matrix)[0]
    eq = lift(sol)
    assert np.array_equal(np.sqrt(eq.a), sol.x)
    assert np.array_equal(eq.c, 2.0 * eq.a)
    simple = ReducedSolution(x=np.array([1.0, 1.0]), residual_norm=0.0, tolerance=1e-12)
    eq2 = lift(simple)
    assert np.array_equal(eq2.a, [1.0, 1.0]) and np.array_equal(eq2.c, [2.0, 2.0])


@pytest.mark.parametrize(
    "result",
    [
        lambda m, fam: solve_equilibria(m)[0].x,
        lambda m, fam: lift(solve_equilibria(m)[0]).a,
        lambda m, fam: lift(solve_equilibria(m)[0]).c,
        lambda m, fam: k2_closed_form(1.0, m.kappa).a,
        lambda m, fam: k2_closed_form(1.0, m.kappa).c,
        lambda m, fam: fam.lambdas,
        lambda m, fam: family_member(0.37, fam).x,
        lambda m, fam: isolation_check(solve_equilibria(m)[0], m).eigenvalues,
        lambda m, fam: isolation_check(family_member(0.37, fam), fam.matrix).eigenvalues,
    ],
    ids=["solve_equilibria.x", "lift.a", "lift.c", "k2_closed_form.a", "k2_closed_form.c",
         "build_family.lambdas", "family_member.x", "isolation_check.eigenvalues",
         "isolation_check.eigenvalues(fresh)"],
)
def test_returned_arrays_are_read_only(result, k2_matrix, family):
    # the frozen results hold their arrays read-only, so no caller can change one in place
    arr = result(k2_matrix, family)
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = 0.0


def test_a_solution_from_a_seed_leaves_the_seed_writable(family):
    # a family member given as an extra seed is returned as it is, a new point of the
    # curve; the solution is a read-only copy, and the caller's array stays writable
    seed = np.array(family_member(1.23, family).x)
    sols = solve_equilibria(family.matrix, SolverOptions(extra_seeds=(seed,)))
    assert any(np.array_equal(s.x, seed) for s in sols)
    seed[0] = 0.0


def test_k2_closed_form_op(kappa):
    eq = k2_closed_form(1.0, 6.0)
    assert np.array_equal(eq.a, [1.0, 1.0]) and np.array_equal(eq.c, [2.0, 2.0])
    eq = k2_closed_form(1.0, kappa)
    assert np.max(np.abs(eq.a - 6.0 / kappa)) <= 1e-16
    assert np.allclose(k2_closed_form(2.0, kappa).a, 8.0 * eq.a, rtol=1e-15)
    with pytest.raises(NonPositiveDistance):
        k2_closed_form(0.0, kappa)
    for distance, bad_kappa in ((1.0, 0.0), (1.0, True), (1.0, 5e-324), (True, kappa)):
        with pytest.raises(InvalidInput):
            k2_closed_form(distance, bad_kappa)


def test_solution_count_does_not_depend_on_scale():
    # scaling the points by s scales x by s^(3/2): the same solutions, found
    # without overflow, underflow or a duplicate at any scale the seed accepts
    tri = np.zeros((3, 5))
    tri[1, 0], tri[2, 0], tri[2, 1] = 1.0, 0.5, np.sqrt(3.0) / 2.0
    for side in 10.0 ** np.arange(-3, 68, 5):
        m = interaction_matrix(build_configuration(side * tri))
        sols = solve_equilibria(m)
        assert len(sols) == 1
        assert isolation_check(sols[0], m).isolated
    for seed in range(4):
        pts = np.random.default_rng(seed).normal(size=(12, 5))
        counts = {
            len(solve_equilibria(interaction_matrix(build_configuration(s * pts))))
            for s in (1e-3, 1.0, 1e10, 1e30, 1e60)
        }
        assert len(counts) == 1, (seed, counts)


def test_solver_determinism():
    # no random draw: repeated calls return the same solutions bit for bit
    m = random_matrix(12, np.random.default_rng(3))
    a = solve_equilibria(m)
    b = solve_equilibria(m)
    assert len(a) == len(b)
    for s, t in zip(a, b):
        assert np.array_equal(s.x, t.x)


def test_extra_seed_validation(k2_matrix):
    # a finite seed whose residual overflows is rejected too
    for bad in ([1.0, -1.0], [np.nan, 1.0], [np.inf, 1.0], [1e200, 1.0], [1e300, 1e300]):
        with pytest.raises(InvalidInput):
            solve_equilibria(k2_matrix, SolverOptions(extra_seeds=(np.array(bad),)))
    # a run starts from a seed only at K >= 4
    m = random_matrix(4, np.random.default_rng(1))
    sols = solve_equilibria(m, SolverOptions(n_random=0, extra_seeds=(np.full(4, 0.5),)))
    assert len(sols) == 1
    # a seed beside the trivial root 0 meets the residual test at once; the
    # bound max x >= sqrt(6 / max row sum) rejects it
    assert len(solve_equilibria(m, SolverOptions(extra_seeds=(np.full(4, 1e-13),)))) == 1
