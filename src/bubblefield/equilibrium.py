"""Positive solutions of the reduced interaction system and isolation certificates.

The reduced system in x_k = sqrt(a_k) reads

    6 x_k = sum_{j != k} m[j][k] * x_j^3,      x_k > 0,

whose solutions lift to equilibrium pairs (a, c) = (x^2, 2 x^2).  At a
solution, conjugating the Jacobian by diag(x) yields 6I - A with the
symmetric matrix A_ij = 3 m_ij x_i x_j; A always carries the eigenvalue 18
with eigenvector x^2.  One eigendecomposition of A gives the Newton step, the
spectrum and the preconditioner of the Krawczyk test, which certifies a
solution isolated; its uniqueness box tells a new Newton hit from a known one.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .config import InteractionMatrix
from .errors import InvalidInput, NumericalFailure, real

__all__ = [
    "ReducedSolution",
    "EquilibriumPoint",
    "IsolationReport",
    "SolverOptions",
    "NonPositiveComponent",
    "NonPositiveDistance",
    "SpectrumFailure",
    "NoSolutionFound",
    "reduced_residual",
    "reduced_jacobian",
    "symmetrized_matrix",
    "isolation_check",
    "solve_equilibria",
    "lift",
    "k2_closed_form",
]

_HALVINGS = 8  # Newton step halvings before a run fails; a converging run needs at most 5
# iterations of each Newton run and growth steps of the whole ascent; measured need: at
# most 55 and 20 on the benchmark and test pools, 394 and 410 near the K = 10 curve
_MAX_ITER = 1000
MAX_TOL = 1e-8  # the largest solver tol: isolation_check needs max|f| <= MAX_TOL (1 + 6 max|x|)


class NonPositiveComponent(InvalidInput):
    """An operation requiring x > 0 received a non-positive component."""


class NonPositiveDistance(InvalidInput):
    """Closed-form solution requested for a non-positive separation."""


class SpectrumFailure(NumericalFailure):
    """The symmetric eigensolver did not converge (defective numerical input)."""


class NoSolutionFound(NumericalFailure):
    """The sphere ascent reached its iteration cap without a solution.

    Every configuration has a positive solution, so this is a failure of
    the solver within _MAX_ITER steps, never a proof of non-existence.
    """


@dataclass(frozen=True)
class ReducedSolution:
    """A positive solution x of the reduced system, with its residual."""

    x: np.ndarray
    residual_norm: float
    tolerance: float  # absolute acceptance threshold the residual met

    @property
    def K(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class EquilibriumPoint:
    """Lifted equilibrium (a, c) with c = 2a entrywise."""

    a: np.ndarray
    c: np.ndarray

    @property
    def K(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class IsolationReport:
    """Spectrum of the symmetrized matrix A and the Krawczyk certificate."""

    eigenvalues: np.ndarray  # sorted ascending
    eig18_residual: float    # ||A u - 18 u|| / ||u||, u = x^2
    isolated: bool           # the Krawczyk test passes on some box x +- rho
    existence_radius: float  # a true solution lies this close to x (max-norm); inf on failure
    uniqueness_radius: float  # and is the only one this close; 0.0 if the test fails


@dataclass(frozen=True)
class SolverOptions:
    """The solver's settings; its iteration cap is the module constant _MAX_ITER.

    n_random and extra_seeds shape the deflated search, which makes no run at
    K <= 3, where the solution is unique (solve_equilibria); seeds are still
    checked there.
    """

    tol: float = 1e-12            # residual max-norm <= tol * (1 + ||6x||_inf); tol <= MAX_TOL
    n_random: int = 64            # deflation budget: deflated Newton runs beyond one per start
    extra_seeds: tuple = ()       # user-supplied starts for deflated Newton

    def __post_init__(self):
        object.__setattr__(self, "tol", real("tol", self.tol))
        if not 0 < self.tol <= MAX_TOL:
            raise InvalidInput(f"tol must be positive and at most {MAX_TOL:g}, got {self.tol}")
        n = self.n_random
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise InvalidInput(f"n_random must be an integer >= 0, got {n!r}")


def reduced_residual(x, m: InteractionMatrix) -> np.ndarray:
    """Component k of 6 x_k - sum_{j != k} m[j][k] x_j^3.

    Evaluated for any finite x (cubes are odd); solutions themselves are
    filtered to x > 0 by the solver.
    """
    x = np.asarray(x, dtype=float)
    return 6.0 * x - m.m @ x**3


def reduced_jacobian(x, m: InteractionMatrix) -> np.ndarray:
    """Jacobian of the reduced residual: 6 on the diagonal, -3 m[k][l] x_l^2 off it."""
    x = np.asarray(x, dtype=float)
    return 6.0 * np.eye(x.shape[0]) - 3.0 * m.m * x**2


def symmetrized_matrix(x, m: InteractionMatrix) -> np.ndarray:
    """A with A_ij = 3 m_ij x_i x_j (zero diagonal); requires x > 0 entrywise."""
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise NonPositiveComponent(f"x must be entrywise positive, got min {x.min()}")
    return 3.0 * m.m * np.outer(x, x)


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53: the relative rounding of an n-term sum."""
    return n * 2.0**-53 / (1.0 - n * 2.0**-53)


def _spectrum(x: np.ndarray, m: InteractionMatrix):
    """(mu, v, r): eigh of A, mu ascending, and r = 1 / (6 - mu) but 0 where cut.

    D^-1 v diag(r) v^T D pseudo-inverts J = D^-1 (6I - A) D, D = diag(x), with the
    cut |6 - mu| <= K 2^-52 max|6 - mu| of lstsq's default rcond (the K = 10 kernel).
    """
    try:
        mu, v = np.linalg.eigh(3.0 * m.m * (x * x[:, None]))
    except np.linalg.LinAlgError as e:
        raise SpectrumFailure(f"symmetric eigensolver failed: {e}") from e
    d = 6.0 - mu
    d[np.abs(d) <= x.shape[0] * 2.0**-52 * max(d[0], -d[-1])] = np.inf  # 1 / inf = 0
    return mu, v, 1.0 / d


def _certificate(x: np.ndarray, m: InteractionMatrix, f: np.ndarray, v, r):
    """(r0, r1) of the Krawczyk test at x with residual f, on the boxes X = x +- rho.

    For any matrix C, if the Krawczyk operator K(X) = x - C f(x) + (I - C J(X))(X - x)
    maps X into its interior, X holds exactly one solution (Krawczyk 1969; Rump,
    Acta Numerica 19, 2010); C = D^-1 v diag(r) v^T D is _spectrum's inverse of J.
    For rho <= min x, |y^2 - x^2| <= 3 x rho on X, so in max-norms K(X) lies in
    int X when a + e rho + p rho^2 < rho, with a = || |C| (|f| + g) || (g bounds
    the rounding of f), e = || |I - C J| || plus the rounding of J and of C J, and
    p = 9 || |C| m x ||; each sum carries its gamma_n.  A solution then lies within
    r0, the lower root, and no other within r1, the upper root capped at min x;
    r0 = inf and r1 = 0.0 when no rho passes.  The test is evaluated in floating
    point, not in interval arithmetic.
    """
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
        if not (b > 0.0 and disc > 0.0):  # NaN too
            return math.inf, 0.0
        root = b + math.sqrt(disc)
        r0, r1 = 2.0 * a / root, min(root / (2.0 * p), float(x.min()))
    if not r0 < r1:  # the lower root lies past min x: no box in the orthant passes
        return math.inf, 0.0
    return r0, r1


def isolation_check(sol: ReducedSolution, m: InteractionMatrix) -> IsolationReport:
    """Certify (non-)isolation of a solution by the Krawczyk test (_certificate).

    The spectrum of A is reported alongside.  The residual f at sol.x, not
    the residual_norm sol states, must meet the solver's relative form of the
    bound at its largest tol, max|f| <= MAX_TOL * (1 + 6 max|x|).
    """
    if sol.x.shape != (m.K,):
        raise InvalidInput(f"isolation_check needs {m.K} components, got x of shape {sol.x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # x^3 may overflow: the gate fails
        f = reduced_residual(sol.x, m)
    bound = MAX_TOL * (1.0 + 6.0 * float(np.abs(sol.x).max()))
    norm = float(np.abs(f).max())
    if not norm <= bound:
        raise InvalidInput(f"isolation_check needs max|f| <= {bound:.3e} at x, got {norm:.3e}")
    a = symmetrized_matrix(sol.x, m)
    eigs, v, r = _spectrum(sol.x, m)
    r0, r1 = _certificate(sol.x, m, f, v, r)
    u = _pow2_scaled(sol.x) ** 2
    eig18 = float(np.linalg.norm(a @ u - 18.0 * u) / np.linalg.norm(u))
    return IsolationReport(
        eigenvalues=eigs,
        eig18_residual=eig18,
        isolated=r1 > 0.0,
        existence_radius=r0,
        uniqueness_radius=r1,
    )


def _g(x: np.ndarray, m: InteractionMatrix) -> float:
    """G = x^3 . m x^3, that is a^{3/2} . m a^{3/2} for a = x^2."""
    return float(x**3 @ m.m @ x**3)


def _pow2_scaled(x: np.ndarray) -> np.ndarray:
    """x times the power of two that puts max x in [1/2, 1).

    The scaling is exact, so scale-free quantities computed from the result
    round as they would from x, while powers of x no longer underflow or
    overflow at extreme scales of the configuration.
    """
    return np.ldexp(x, -math.frexp(x.max())[1])


def _unit(x: np.ndarray) -> np.ndarray:
    """x scaled onto the sphere sum x^4 = 1, where |a| = 1."""
    x = _pow2_scaled(x)
    return x / np.add.reduce(x**4) ** 0.25


def _bounds(m: InteractionMatrix):
    """(floor, low): every solution has max x >= floor and every x_k >= low.

    With rho the largest row sum of m and mu its smallest off-diagonal
    coupling, 6 max x <= rho (max x)^3 gives floor = sqrt(6 / rho), and
    6 x_k >= mu (max x)^3 >= mu floor^3 gives low = floor mu / rho, written
    so, not as mu floor^3 / 6, because floor^3 overflows at extreme scales.
    """
    rho = float(np.maximum.reduce(np.add.reduce(m.m, axis=1)))
    floor = math.sqrt(6.0 / rho)
    return floor, floor * float(np.minimum.reduce(m.m[~np.eye(m.K, dtype=bool)])) / rho


@dataclass(frozen=True)
class _Solve:
    """What every Newton run of one solve shares: m and the solution box of _bounds(m)."""

    m: InteractionMatrix
    floor: float  # every solution has max x >= floor
    low: float    # and min x >= low


def _newton(x, s: _Solve, opts: SolverOptions, roots, scale2=1.0, f=None):
    """Damped Newton from x (residual f, if known): (x, max|f|, threshold, f) at a root, or None.

    The step -J^-1 f (from _spectrum, whose cut bounds it where J is near-singular,
    as on non-isolated solution manifolds) is halved until it keeps x > 0 and
    lowers |M f|^2.  A run fails after _MAX_ITER iterations, as soon as an
    accepted iterate leaves the box of the solve s (min x < s.low (1 - tol)),
    when it converges to a point with max x below s.floor (1 - tol), or when
    _HALVINGS halvings do not descend: it stalls at a local minimum of |M f|.
    The (1 - tol) allows for rounding: K = 2 solutions lie on both bounds.
    M = prod_r (1 + scale2 / |x - r|^2) over the rows r of roots, and the
    step rescaled by 1 / (1 - grad log M . step) is the Newton step of M f
    (Farrell, Birkisson & Funke, SIAM J. Sci. Comput. 37(4), 2015).  With
    no roots (ascent polishes) M = 1: the merit is |f|^2 and the step is
    not rescaled, as the empty product and sum would give exactly.  The
    whole run is one errstate scope, in which overflow, invalid operations
    and division by zero warn of nothing: a far root's |x - r|^2 overflows,
    and 1 / inf = 0 is the limit; a step that is not finite fails the run.
    """
    m = s.m

    def merit(y, f=None):  # f, |M f|^2 and the |y - r|^2 at y
        f = reduced_residual(y, m) if f is None else f
        if not len(roots):
            return f, f @ f, None
        dd = np.add.reduce((y - roots) ** 2, axis=1)
        w = np.multiply.reduce(1.0 + scale2 / dd)
        return f, w * w * (f @ f), dd

    floor, low = s.floor * (1.0 - opts.tol), s.low * (1.0 - opts.tol)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, m0, dd = merit(x, f)
        for _ in range(_MAX_ITER):
            nf = float(np.maximum.reduce(np.abs(f)))
            thresh = opts.tol * (1.0 + 6.0 * float(np.maximum.reduce(x)))  # x > 0 throughout
            if nf <= thresh:
                return (x, nf, thresh, f) if np.maximum.reduce(x) >= floor else None
            _, v, r = _spectrum(x, m)
            step = -(v @ (r * ((x * f) @ v))) / x
            if len(roots):
                grad = 2.0 * scale2 * ((1.0 / (dd * (dd + scale2))) @ (x - roots))  # -grad log M
                step = step / (1.0 + grad @ step)
            if not np.isfinite(step).all():
                return None
            # skip the halvings from 1 that would leave the orthant
            edge = np.minimum.reduce(-x / step, where=step < 0, initial=np.inf)
            lam = 2.0 ** np.floor(np.log2(edge)) if edge < 1.0 else 1.0
            for h in range(_HALVINGS + 1):
                y = x + lam * 0.5**h * step
                if np.minimum.reduce(y) > 0.0 and (trial := merit(y))[1] < m0:
                    break
            else:
                return None
            if np.minimum.reduce(y) < low:
                return None
            x, (f, m0, dd) = y, trial
    return None


def _ascend(s: _Solve, opts: SolverOptions):
    """A solution whose a = x^2 locally maximizes G on the sphere, or None.

    The solutions are the rescaled critical points of G on the sphere
    |a| = 1, where G has a maximum inside the positive orthant.  The growth
    transform x <- sqrt(x m x^3) never lowers G; after every 5 of its at most
    _MAX_ITER steps a Newton polish from the iterate rescaled by sqrt(6 / G)
    is tried, and counts only if its G on the sphere is no lower.  At a
    solution the Hessian of G on the sphere is a positive multiple of A - 6I
    off the eigenvector x^2 of the eigenvalue 18, so any other eigenvalue
    above 6 at a solution the Krawczyk test isolates marks a
    saddle: the iterate steps along its eigenvector to higher G and ascends
    again, within the same _MAX_ITER steps.
    """
    m = s.m
    x = _unit(np.ones(m.K))
    for _ in range(_MAX_ITER // 5):
        for _ in range(5):
            x = _unit(np.sqrt(x * (m.m @ x**3)))
        g = _g(x, m)
        hit = _newton(math.sqrt(6.0 / g) * x, s, opts, ())
        if hit is None:
            continue
        u = _unit(hit[0])
        g_hit = _g(u, m)
        if not g_hit >= g * (1.0 - opts.tol):
            continue
        mu, vecs, r = _spectrum(hit[0], m)
        mu[np.argmax(np.abs(vecs.T @ hit[0] ** 2))] = -np.inf  # the eigenvalue 18
        # a hit the certificate cannot isolate is kept: on a curve of solutions
        # (the K = 10 family) G is constant, and no direction raises it
        if mu.max() <= 6.0 or _certificate(hit[0], m, hit[3], vecs, r)[1] == 0.0:
            return hit
        a, v = u**2, vecs[:, np.argmax(mu)]
        with np.errstate(invalid="ignore"):  # a + s v leaving the orthant gives NaN
            steps = (_unit(np.sqrt(a + s * v)) for t in 0.5 ** np.arange(1, 53) for s in (t, -t))
            x = next((y for y in steps if _g(y, m) > g_hit), None)
        if x is None:
            return hit
    return None


def solve_equilibria(m: InteractionMatrix, options: SolverOptions = SolverOptions()):
    """Positive solutions of the reduced system, sorted lexicographically.

    The first comes from the sphere ascent and is a local maximizer of G.
    Further ones come from deflated Newton with x = 0 and every known
    solution deflated: a run starts from the symmetric seed (exact for
    equal-distance configurations) and from each extra seed, and a run that
    finds a new solution is repeated from the same start, within
    1 + n_random + len(extra_seeds) runs in all; no random draw is made.  A
    hit is a known solution if within the larger of their uniqueness radii.
    A seed, the symmetric one included, needs x > 0 and a finite residual.

    At K <= 3 the system has exactly one positive solution, so no deflated
    run is made there (seeds are still checked).  At a solution A has a zero
    diagonal, positive entries off it and the eigenvalue 18 with eigenvector
    x^2.  At K = 2 its other eigenvalue is tr A - 18 = -18.  At K = 3 the
    other two have mu2 + mu3 = -18 and 18 mu2 mu3 = det A = 2 A12 A13 A23 > 0,
    so both are negative.  Every solution thus has |6 - mu| >= 6 off x^2 and
    no eigenvalue but 18 above 6: by _ascend's Hessian it is a nondegenerate
    maximum of G on the sphere, with q = 0 ascent directions.  Cut the sphere
    to a >= delta: it stays a closed disk, it holds every solution (all have
    x >= low > 0), and for small delta grad G points strictly inward on its
    boundary.  Poincare-Hopf (Milnor, Topology from the Differentiable
    Viewpoint, 1965, ch. 6) for -grad G there gives sum (-1)^q = 1 over the
    solutions, so there is exactly one.
    """
    k = m.K
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xbar = np.sqrt(6.0 / np.mean(np.sum(m.m, axis=1)))  # inf if the couplings underflow
        starts = [np.full(k, xbar)] + [np.asarray(s, dtype=float) for s in options.extra_seeds]
        for i, s in enumerate(starts):
            f = reduced_residual(s, m) if s.shape == (k,) and np.all(s > 0) else None
            if f is None or not np.all(np.isfinite(f)):
                what = "extra seed" if i else f"symmetric seed {xbar:.3e} (couplings out of range)"
                raise InvalidInput(f"{what} must be positive, of length {k}, with finite residual")
            starts[i] = (s, f)  # every run from the seed reuses its residual

    solve = _Solve(m, *_bounds(m))
    found = [_ascend(solve, options)]
    if found[0] is None:
        raise NoSolutionFound(f"sphere ascent found no solution in _MAX_ITER = {_MAX_ITER} steps")
    radii = []  # uniqueness radius of each found solution, certified once a hit needs it
    # at K <= 3 the ascent's solution is the only one (see above): no run can find another
    runs = 0 if k <= 3 else 1 + options.n_random + len(options.extra_seeds)
    while starts and runs:
        runs -= 1
        roots = np.array([np.zeros(k)] + [h[0] for h in found])
        hit = _newton(starts[0][0], solve, options, roots, xbar**2, starts[0][1])
        if hit is not None:
            certify = found[len(radii):] + [hit]
            radii += [_certificate(x, m, f, *_spectrum(x, m)[1:])[1] for x, _, _, f in certify]
            if all(np.abs(hit[0] - h[0]).max() > max(radii[-1], r) for h, r in zip(found, radii)):
                found.append(hit)
                continue
            radii.pop()
        starts.pop(0)

    sols = []
    for x, nf, thresh, _ in sorted(found, key=lambda h: tuple(h[0])):
        x = x.copy()
        x.setflags(write=False)
        sols.append(ReducedSolution(x=x, residual_norm=float(nf), tolerance=float(thresh)))
    return sols


def lift(sol: ReducedSolution) -> EquilibriumPoint:
    """Lift x to the equilibrium pair a = x^2, c = 2a."""
    a = sol.x**2
    c = 2.0 * a
    a.setflags(write=False)
    c.setflags(write=False)
    return EquilibriumPoint(a=a, c=c)


def k2_closed_form(distance: float, kappa: float) -> EquilibriumPoint:
    """The unique two-bubble equilibrium: a = (6 d^3 / kappa) * (1, 1), c = 2a."""
    distance, kappa = real("distance", distance), real("kappa", kappa)
    if not distance > 0:
        raise NonPositiveDistance(f"distance must be positive, got {distance}")
    if not kappa >= sys.float_info.min:
        raise InvalidInput(f"kappa must be at least {sys.float_info.min:g}, got {kappa}")
    a = np.full(2, 6.0 * distance**3 / kappa)
    c = 2.0 * a
    a.setflags(write=False)
    c.setflags(write=False)
    return EquilibriumPoint(a=a, c=c)
