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
)
from bubblefield.errors import InvalidInput

from conftest import flow_jacobian, random_matrix


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
    a = symmetrized_matrix(sol.x, k2_matrix)
    assert abs(np.trace(a)) == 0.0
    assert abs(np.sum(rep.eigenvalues)) <= 1e-10 * np.max(np.abs(a))


def test_isolation_check_requires_converged_input(k2_matrix, k3_equilateral):
    bad = ReducedSolution(x=np.array([1.0, 1.0]), residual_norm=1e-3, tolerance=1e-3)
    with pytest.raises(InvalidInput):
        isolation_check(bad, k2_matrix)
    # the bound is relative to the solution's size, as the solver's is
    x = np.full(2, 1e10)
    scale = 1.0 + 6.0 * 1e10
    far = ReducedSolution(x=x, residual_norm=1e-6 * scale, tolerance=1e-12 * scale)
    with pytest.raises(InvalidInput):
        isolation_check(far, k2_matrix)
    isolation_check(replace(far, residual_norm=1e-9 * scale), k2_matrix)
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
    log_det = np.log(12.0) + (K - 1) * np.log(6.0 + 18.0 / (K - 1))
    assert abs(rep.log_abs_det_shift - log_det) <= 1e-12 * log_det
    if K == 50:
        # the product rule it replaces, still finite at this size
        assert rep.isolated == bool(abs(np.prod(6.0 - rep.eigenvalues)) > 1e-8 * 6.0**K)
        assert abs(np.log(-rep.det_shift) - rep.log_abs_det_shift) <= 1e-12 * log_det
    else:
        assert rep.det_shift == -np.inf  # 6^400 overflows; the verdict and the log do not


def assert_certified_near(sol, m, x_star):
    """The certificate passes and its existence ball holds the exact solution x_star."""
    rep = isolation_check(sol, m)
    assert rep.isolated and rep.kantorovich_h <= 0.5
    assert rep.existence_radius < rep.uniqueness_radius
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


def test_no_solution_reported():
    # the ascent first tries a Newton polish after 5 steps, so 4 cannot succeed
    with pytest.raises(NoSolutionFound) as exc:
        solve_equilibria(random_matrix(3, np.random.default_rng(2)), SolverOptions(max_iter=4))
    assert str(exc.value) == "sphere ascent found no solution in max_iter = 4"


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


def test_ascent_solution_is_certified_maximizer_with_smallest_a():
    opts = SolverOptions()
    for m in cluster_pool():
        x = _ascend(m, opts)[0]
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


def test_max_iter_caps_total_ascent_steps(family):
    # K = 10 family: the polish at step 5 finds a saddle and escapes from it,
    # the one at step 10 fails, and the one at step 15 lands on the cosine curve
    with pytest.raises(NoSolutionFound):
        solve_equilibria(family.matrix, SolverOptions(max_iter=14))
    assert len(solve_equilibria(family.matrix, SolverOptions(max_iter=15))) == 2


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


def newton_oracle(x, m, opts, roots=None, scale=1.0, f=None):
    """The damped Newton run written plainly: the lean _newton must repeat it bit for bit.

    Same trials, same positivity test on each, same merit |M f|^2, through
    the fromnumeric reductions and two chained generators.  The step is
    -J^-1 f with J = D^-1 (6I - A) D, D = diag(x), inverted through one eigh
    of A, each 1 / (6 - mu) cut to 0 where |6 - mu| <= K 2^-52 max|6 - mu|.
    """
    import bubblefield.equilibrium as eq

    def merit(y, f=None):
        f = eq.reduced_residual(y, m) if f is None else f
        w = 1.0 if roots is None else np.prod(1.0 + scale**2 / np.sum((y - roots) ** 2, axis=1))
        return f, w * w * (f @ f)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, m0 = merit(x, f)
    for _ in range(opts.max_iter):
        nf = float(np.max(np.abs(f)))
        thresh = opts.tol * (1.0 + 6.0 * float(np.max(np.abs(x))))
        if nf <= thresh:
            floor = math.sqrt(6.0 / float(np.max(np.sum(m.m, axis=1))))
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
            trials = (x + lam * 0.5**h * step for h in range(eq._HALVINGS + 1))
            evaluated = ((y, *merit(y)) for y in trials if np.all(y > 0))
            x, f, m0 = next((e for e in evaluated if e[2] < m0), (None, None, None))
        if x is None:
            return None
    return None


def test_newton_matches_readable_oracle(monkeypatch):
    # every Newton run of the solver, ascent polishes and deflated runs alike,
    # on the cluster pool and 64 triangle-sweep triangles
    import bubblefield.equilibrium as eq

    calls = []
    residual = eq.reduced_residual
    monkeypatch.setattr(eq, "reduced_residual", lambda x, m: calls.append(1) or residual(x, m))
    lean, runs = eq._newton, []

    def recorded(x, m, opts, roots, scale2=1.0, f=None):
        before = len(calls)
        hit = lean(x, m, opts, roots, scale2, f)
        runs.append((x, m, opts, roots, scale2, f, hit, len(calls) - before))
        return hit

    monkeypatch.setattr(eq, "_newton", recorded)
    rng = np.random.default_rng(1)
    for m in cluster_pool() + [random_matrix(3, rng) for _ in range(64)]:
        solve_equilibria(m)
    assert sum(len(r[3]) == 0 for r in runs) > 100 and sum(len(r[3]) > 0 for r in runs) > 100
    assert sum(r[6] is not None for r in runs) > 100
    for x, m, opts, roots, scale2, f, hit, n_calls in runs:
        deflated = len(roots) > 0  # a polish deflates no root
        scale = np.sqrt(6.0 / np.mean(np.sum(m.m, axis=1))) if deflated else 1.0
        assert scale**2 == scale2 or not deflated  # the square of the symmetric seed value
        before = len(calls)
        want = newton_oracle(x, m, opts, roots if deflated else None, scale, f)
        assert len(calls) - before == n_calls
        assert (hit is None) == (want is None)
        if hit is not None:
            assert hit[0].tobytes() == want[0].tobytes() and hit[3].tobytes() == want[3].tobytes()
            assert (hit[1], hit[2]) == (want[1], want[2])


def test_certificate_bounds_the_rounded_inverse(monkeypatch, k3_equilateral):
    # beta and eta come from X = D^-1 v diag(r) v^T D, the spectrum's inverse of J;
    # an X whose residual ||I - XJ|| reaches 1 bounds nothing, while a merely
    # scaled one is corrected by 1 / (1 - delta)
    import bubblefield.equilibrium as eq

    sol = solve_equilibria(k3_equilateral)[0]
    rep = isolation_check(sol, k3_equilateral)
    assert rep.isolated
    spectrum = eq._spectrum

    def scaled(c):
        def patched(x, m):
            mu, v, r = spectrum(x, m)
            return mu, v, c * r
        return patched

    monkeypatch.setattr(eq, "_spectrum", scaled(-1.0))  # |X| exact, delta = 2
    bad = isolation_check(sol, k3_equilateral)
    assert not bad.isolated and bad.kantorovich_h > 0.5
    assert bad.existence_radius == np.inf and bad.uniqueness_radius == 0.0
    monkeypatch.setattr(eq, "_spectrum", scaled(0.5))  # |X| too small, delta = 1/2
    half = isolation_check(sol, k3_equilateral)
    assert half.isolated and half.kantorovich_h >= rep.kantorovich_h * (1.0 - 1e-12)
    assert half.uniqueness_radius <= rep.uniqueness_radius * (1.0 + 1e-12)


def test_spectrum_cuts_the_kernel_on_the_k10_curve(family):
    # 6 is an eigenvalue of A on the curve, in floating point exactly so at t = 0.37;
    # its 1 / (6 - mu) is cut to 0 and no other is, and the cut direction D^-1 v is
    # the curve's tangent, the kernel of J, so no Newton step moves along it
    import bubblefield.equilibrium as eq

    for t in (0.0, 0.37, 1.9):
        x = family_member(t, family).x
        mu, v, r = eq._spectrum(x, family.matrix)
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
        return 0.0, 0.0, (gap / 10.0 if len(certified) == 1 else 10.0 * gap)

    monkeypatch.setattr(eq, "_certificate", certificate)
    assert len(solve_equilibria(m)) == 1
    assert len(certified) > 1


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
        # K = 2 meets this bound with equality, so allow rounding at tol
        floor = np.sqrt(6.0 / np.max(np.sum(m.m, axis=1))) * (1.0 - opts.tol)
        for s in sols:
            assert np.all(s.x > 0)
            assert np.max(np.abs(reduced_residual(s.x, m))) <= s.tolerance
            assert np.max(s.x) >= floor
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
    sols = solve_equilibria(
        k2_matrix, SolverOptions(n_random=0, extra_seeds=(np.array([0.4, 0.6]),))
    )
    assert len(sols) == 1
    # a seed beside the trivial root 0 meets the residual test at once; the
    # bound max x >= sqrt(6 / max row sum) rejects it
    assert len(solve_equilibria(k2_matrix, SolverOptions(extra_seeds=(np.full(2, 1e-13),)))) == 1
