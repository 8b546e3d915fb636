"""Positive solutions of the reduced interaction system and isolation certificates.

The reduced system in x_k = sqrt(a_k) reads

    6 x_k = sum_{j != k} m[j][k] * x_j^3,      x_k > 0,

whose solutions lift to equilibrium pairs (a, c) = (x^2, 2 x^2).  At a
solution, conjugating the Jacobian by diag(x) yields 6I - A with the
symmetric matrix A_ij = 3 m_ij x_i x_j; A always carries the eigenvalue 18
with eigenvector x^2.  One eigendecomposition of A gives the Newton step, the
spectrum and the preconditioner of the Krawczyk test, which certifies a
solution isolated; its uniqueness box tells a new Newton hit from a known one.
Each point a solve finds is decomposed and certified at most once: the
solution it returns carries both to isolation_check.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh  # what np.linalg.eigh calls on floats

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
_HALVES = 0.5 ** np.arange(1, _HALVINGS + 1)  # the factors of the halvings
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
    # (m, _Hit) of the solve that found x, for isolation_check; set by solve_equilibria only,
    # so dataclasses.replace drops it
    _record: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    eigenvalues: np.ndarray  # sorted ascending, read-only
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
    """Component k of 6 x_k - sum_{j != k} m[j][k] x_j^3, at a point or each row of a stack.

    Evaluated for any finite x (cubes are odd); solutions themselves are
    filtered to x > 0 by the solver.  The product is m.m @ x**3, one gemv a row,
    so a row of a stack has the bytes of the call on that row alone.
    """
    x = np.asarray(x, dtype=float)
    return 6.0 * x - np.matmul(m.m, (x**3)[..., None])[..., 0]


def reduced_jacobian(x, m: InteractionMatrix) -> np.ndarray:
    """Jacobian of the reduced residual: 6 on the diagonal, -3 m[k][l] x_l^2 off it."""
    x = np.asarray(x, dtype=float)
    return 6.0 * np.eye(x.shape[0]) - 3.0 * m.m * x**2


def symmetrized_matrix(x, m: InteractionMatrix) -> np.ndarray:
    """A with A_ij = 3 m_ij x_i x_j (zero diagonal); requires x > 0 entrywise."""
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise NonPositiveComponent(f"x must be entrywise positive, got min {x.min()}")
    return 3.0 * m.m * (x * x[:, None])  # np.outer(x, x), with the same products


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53: the relative rounding of an n-term sum."""
    return n * 2.0**-53 / (1.0 - n * 2.0**-53)


def _spectrum(x: np.ndarray, m: InteractionMatrix):
    """(mu, v, r, a): eigh of a = A, mu ascending, and r = 1 / (6 - mu) but 0 where cut.

    D^-1 v diag(r) v^T D pseudo-inverts J = D^-1 (6I - A) D, D = diag(x), with the
    cut |6 - mu| <= K 2^-52 max|6 - mu| of lstsq's default rcond (the K = 10 kernel).
    a has the bytes of symmetrized_matrix(x, m), for isolation_check's A u.  mu and v
    are np.linalg.eigh's bits, from the gufunc it wraps, which flags a failure by NaN
    in mu and by the invalid flag, silent in its callers' errstate scope.
    """
    a = 3.0 * m.m * (x * x[:, None])
    mu, v = _eigh(a, signature="d->dd")
    if math.isnan(mu.dot(mu)):  # any NaN: a sum of squares is NaN only then
        raise SpectrumFailure("symmetric eigensolver failed: eigenvalues did not converge")
    mu.setflags(write=False)  # every report on the point shares it
    d = 6.0 - mu
    d[np.abs(d) <= x.shape[0] * 2.0**-52 * max(d[0], -d[-1])] = np.inf  # 1 / inf = 0
    return mu, v, 1.0 / d, a


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
    k, eye = x.shape[0], np.eye(x.shape[0])
    c = (v * r) @ v.T * x / x[:, None]
    cabs, j = np.abs(c), 6.0 * eye - 3.0 * m.m * x**2  # reduced_jacobian(x, m)
    g = _gamma(k + 2) * (6.0 * x + m.m @ x**3)
    a = (1.0 + _gamma(k + 1)) * float(np.maximum.reduce(cabs @ (np.abs(f) + g)))
    e = float(np.maximum.reduce(np.add.reduce(np.abs(eye - c @ j), axis=1)))
    e += _gamma(k + 4) * float(np.maximum.reduce(np.add.reduce(cabs @ np.abs(j), axis=1)))
    p = 9.0 * (1.0 + _gamma(2 * k + 1)) * float(np.maximum.reduce(cabs @ (m.m @ x)))
    b = 1.0 - e
    disc = b * b - 4.0 * a * p
    if not (b > 0.0 and disc > 0.0):  # NaN too
        return math.inf, 0.0
    root = b + math.sqrt(disc)
    r0, r1 = 2.0 * a / root, min(root / (2.0 * p), float(np.minimum.reduce(x)))
    if not r0 < r1:  # the lower root lies past min x: no box in the orthant passes
        return math.inf, 0.0
    return r0, r1


def isolation_check(sol: ReducedSolution, m: InteractionMatrix) -> IsolationReport:
    """Certify (non-)isolation of a solution by the Krawczyk test (_certificate).

    The spectrum of A is reported alongside.  The residual f at sol.x, not
    the residual_norm sol states, must meet the solver's relative form of the
    bound at its largest tol, max|f| <= MAX_TOL * (1 + 6 max|x|).  Given the very
    matrix object its solve_equilibria call was given, with read-only couplings
    (as interaction_matrix makes them), the residual, the spectrum (with the
    A it decomposed, which gives A u) and the certificate that solve made at
    x are reused, with the same bits; otherwise they are computed here, A by
    symmetrized_matrix, which raises NonPositiveComponent unless x > 0.  Past the
    shape check it is one errstate scope, as a solve is, around every _spectrum call.
    """
    if sol.x.shape != (m.K,):
        raise InvalidInput(f"isolation_check needs {m.K} components, got x of shape {sol.x.shape}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        solved_m, hit = sol._record or (None, None)
        fresh = solved_m is not m or m.m.flags.writeable  # couplings that can change: untrusted
        if fresh:  # x^3 may overflow: the gate then fails
            hit = _Hit(sol.x, None, None, reduced_residual(sol.x, m))
        bound = MAX_TOL * (1.0 + 6.0 * float(np.maximum.reduce(np.abs(sol.x))))
        norm = float(np.maximum.reduce(np.abs(hit.f)))
        if not norm <= bound:
            raise InvalidInput(f"isolation_check needs max|f| <= {bound:.3e} at x, "
                               f"got {norm:.3e}")
        a = symmetrized_matrix(sol.x, m) if fresh else hit.spectrum[3]  # the same bytes
        r0, r1 = hit.certify(m)
        u = _pow2_scaled(sol.x) ** 2
        w = a @ u - 18.0 * u
        eig18 = math.sqrt(w.dot(w)) / math.sqrt(u.dot(u))  # the norms np.linalg.norm takes
        return IsolationReport(eigenvalues=hit.spectrum[0], eig18_residual=eig18,
                               isolated=r1 > 0.0, existence_radius=r0, uniqueness_radius=r1)


def _g(x: np.ndarray, m: InteractionMatrix) -> float:
    """G = x^3 . m x^3, that is a^{3/2} . m a^{3/2} for a = x^2."""
    x3 = x**3
    return float((x3 @ m.m).dot(x3))


def _pow2_scaled(x: np.ndarray) -> np.ndarray:
    """x times the power of two that puts max x in [1/2, 1).

    The scaling is exact, so scale-free quantities computed from the result
    round as they would from x, while powers of x no longer underflow or
    overflow at extreme scales of the configuration.
    """
    return np.ldexp(x, -math.frexp(np.maximum.reduce(x))[1])


def _unit(x: np.ndarray) -> np.ndarray:
    """x scaled onto the sphere sum x^4 = 1, where |a| = 1."""
    x = _pow2_scaled(x)
    return x / np.add.reduce(x**4) ** 0.25


def _bounds(m: InteractionMatrix, row_sums: np.ndarray):
    """(floor, low): every solution has max x >= floor and every x_k >= low.

    With rho the largest of row_sums, m's row sums, and mu its smallest
    off-diagonal coupling, 6 max x <= rho (max x)^3 gives floor = sqrt(6 / rho), and
    6 x_k >= mu (max x)^3 >= mu floor^3 gives low = floor mu / rho, written
    so, not as mu floor^3 / 6, because floor^3 overflows at extreme scales.
    """
    k = m.K
    rho = float(np.maximum.reduce(row_sums))
    floor = math.sqrt(6.0 / rho)
    # the flat m without its first entry, in rows of k + 1 that each end on a diagonal entry
    off = m.m.reshape(-1)[1:].reshape(k - 1, k + 1)[:, :k]
    return floor, floor * float(np.minimum.reduce(off, axis=None)) / rho


@dataclass(eq=False)
class _Hit:
    """A Newton run's root x, with max|f|, the threshold it met and f.

    Its _spectrum and _certificate are kept once made, so that a point is
    decomposed and certified at most once, whoever asks first.
    """

    x: np.ndarray
    nf: float
    thresh: float
    f: np.ndarray
    spectrum: tuple | None = None      # _spectrum(x, m); set on every hit a solve returns
    certificate: tuple | None = None   # _certificate(x, m, f, ...): (r0, r1)

    def certify(self, m: InteractionMatrix):
        """(r0, r1) of the Krawczyk test at x, from the kept spectrum and certificate if made."""
        if self.spectrum is None:
            self.spectrum = _spectrum(self.x, m)
        if self.certificate is None:
            self.certificate = _certificate(self.x, m, self.f, *self.spectrum[1:3])
        return self.certificate


def _merit(y, m: InteractionMatrix, roots, scale2, f=None):
    """f, |M f|^2 and the |y - r|^2 (None without roots) at a point y or each row of a stack.

    M = prod_r (1 + scale2 / |y - r|^2) over the rows r of roots.  f . f is one
    dot a row and each sum over a row one reduce, so a row of a stack has the
    bytes of the call on that row alone.
    """
    f = reduced_residual(y, m) if f is None else f
    ff = f.dot(f) if f.ndim == 1 else np.matmul(f[..., None, :], f[..., :, None])[..., 0, 0]
    if not len(roots):
        return f, ff, None
    dd = np.add.reduce((y[..., None, :] - roots) ** 2, axis=-1)
    w = np.multiply.reduce(1.0 + scale2 / dd, axis=-1)
    return f, w * w * ff, dd


@dataclass(frozen=True)
class _Solve:
    """What every Newton run of one solve shares: m and the solution box of _bounds(m)."""

    m: InteractionMatrix
    floor: float  # every solution has max x >= floor
    low: float    # and min x >= low


def _newton(x, s: _Solve, opts: SolverOptions, roots, scale2=1.0, f=None):
    """Damped Newton from x (residual f, if known): a _Hit at a root, or None.

    The step -J^-1 f (from _spectrum, whose cut bounds it where J is near-singular,
    as on non-isolated solution manifolds) is halved until it keeps x > 0 and
    lowers |M f|^2.  The whole step is tried first; if it is refused, its
    _HALVINGS halvings are evaluated as one stack (_merit) and the first that
    passes is taken, the trial a loop over them would take, with its bits.
    A run fails after _MAX_ITER iterations, as soon as an
    accepted iterate leaves the box of the solve s (min x < s.low (1 - tol)),
    when it converges to a point with max x below s.floor (1 - tol), or when
    _HALVINGS halvings do not descend: it stalls at a local minimum of |M f|.
    The (1 - tol) allows for rounding: K = 2 solutions lie on both bounds.
    M = prod_r (1 + scale2 / |x - r|^2) over the rows r of roots, and the
    step rescaled by 1 / (1 - grad log M . step) is the Newton step of M f
    (Farrell, Birkisson & Funke, SIAM J. Sci. Comput. 37(4), 2015).  With
    no roots (ascent polishes) M = 1: the merit is |f|^2 and the step is
    not rescaled, as the empty product and sum would give exactly.  It runs
    in solve_equilibria's errstate scope, in which overflow, invalid operations
    and division by zero warn of nothing: a far root's |x - r|^2 overflows,
    and 1 / inf = 0 is the limit; a step that is not finite fails the run.
    """
    m = s.m
    floor, low = s.floor * (1.0 - opts.tol), s.low * (1.0 - opts.tol)
    twice = 2.0 * scale2
    f, m0, dd = _merit(x, m, roots, scale2, f)
    for _ in range(_MAX_ITER):
        nf = float(np.maximum.reduce(np.abs(f)))
        top = float(np.maximum.reduce(x))  # max |x|: x > 0 throughout
        thresh = opts.tol * (1.0 + 6.0 * top)
        if nf <= thresh:
            return _Hit(x, nf, thresh, f) if top >= floor else None
        _, v, r, _ = _spectrum(x, m)
        step = (v @ (r * ((x * f) @ v))) / -x
        if len(roots):
            grad = twice * ((1.0 / (dd * (dd + scale2))) @ (x - roots))  # -grad log M
            step = step / (1.0 + grad.dot(step))
        if not np.isfinite(step).all():
            return None
        # skip the halvings from 1 that would leave the orthant: edge = min -x / step
        edge = -np.maximum.reduce(x / step, where=step < 0, initial=-np.inf)
        lam = 2.0 ** np.floor(np.log2(edge)) if edge < 1.0 else 1.0
        y = x + lam * step
        ymin = np.minimum.reduce(y)
        if not (ymin > 0.0 and (trial := _merit(y, m, roots, scale2))[1] < m0):
            ys = x + (lam * _HALVES)[:, None] * step
            fs, ms, dds = _merit(ys, m, roots, scale2)
            mins = np.minimum.reduce(ys, axis=1)
            h = ((mins > 0.0) & (ms < m0)).argmax()  # the first that passes, if any
            if not (mins[h] > 0.0 and ms[h] < m0):
                return None
            y, ymin, trial = ys[h], mins[h], (fs[h], ms[h], None if dds is None else dds[h])
        if ymin < low:
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
    again, within the same _MAX_ITER steps.  At K <= 3 the first polish that
    converges is returned as it is: its solution is the only one and a
    nondegenerate maximum (solve_equilibria), so its G is no lower than the
    iterate's and it is no saddle.  Every hit returned carries its _spectrum.
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
        if m.K <= 3:  # the only solution, a nondegenerate maximum (solve_equilibria)
            hit.spectrum = _spectrum(hit.x, m)
            return hit
        u = _unit(hit.x)
        g_hit = _g(u, m)
        if not g_hit >= g * (1.0 - opts.tol):
            continue
        hit.spectrum = _spectrum(hit.x, m)
        mu, vecs = hit.spectrum[0].copy(), hit.spectrum[1]  # the hit keeps mu unmasked
        mu[np.argmax(np.abs(vecs.T @ hit.x**2))] = -np.inf  # the eigenvalue 18
        # a hit the certificate cannot isolate is kept: on a curve of solutions
        # (the K = 10 family) G is constant, and no direction raises it
        if mu.max() <= 6.0 or hit.certify(m)[1] == 0.0:
            return hit
        a, v = u**2, vecs[:, np.argmax(mu)]  # a + s v leaving the orthant gives NaN
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
    The whole solve is one errstate scope, in which nothing warns of overflow,
    invalid operations or division by zero (_newton); every _spectrum call runs in it.

    At K <= 3 the system has exactly one positive solution, so no deflated
    run is made there (seeds are still checked), and the ascent returns the
    first solution its Newton polish finds.  At a solution A has a zero
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = m.K
        # sqrt(6 / mean row sum), inf if the couplings underflow
        row_sums = np.add.reduce(m.m, axis=1)
        xbar = np.sqrt(6.0 / (np.add.reduce(row_sums) / k))
        starts = [np.full(k, xbar)] + [np.asarray(s, dtype=float) for s in options.extra_seeds]
        for i, s in enumerate(starts):
            f = reduced_residual(s, m) if s.shape == (k,) and (s > 0).all() else None
            if f is None or not np.isfinite(f).all():
                what = "extra seed" if i else f"symmetric seed {xbar:.3e} (couplings out of range)"
                raise InvalidInput(f"{what} must be positive, of length {k}, with finite residual")
            starts[i] = (s, f)  # every run from the seed reuses its residual

        solve = _Solve(m, *_bounds(m, row_sums))
        found = [_ascend(solve, options)]
        if found[0] is None:
            raise NoSolutionFound(f"sphere ascent found no solution in _MAX_ITER = {_MAX_ITER}"
                                  " steps")
        # at K <= 3 the ascent's solution is the only one (see above): no run can find another
        runs = 0 if k <= 3 else 1 + options.n_random + len(options.extra_seeds)
        while starts and runs:
            runs -= 1
            roots = np.array([np.zeros(k)] + [h.x for h in found])
            hit = _newton(starts[0][0], solve, options, roots, xbar**2, starts[0][1])
            if hit is not None:
                radii = [h.certify(m)[1] for h in found + [hit]]  # each point certified once
                if all(np.abs(hit.x - h.x).max() > max(radii[-1], r) for h, r in zip(found, radii)):
                    found.append(hit)
                    continue
            starts.pop(0)

        sols = []
        for hit in sorted(found, key=lambda h: tuple(h.x)):
            x = hit.x.copy()
            x.setflags(write=False)
            sol = ReducedSolution(x=x, residual_norm=float(hit.nf), tolerance=float(hit.thresh))
            object.__setattr__(sol, "_record", (m, hit))  # for isolation_check
            sols.append(sol)
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
