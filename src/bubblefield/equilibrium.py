"""Positive solutions of the reduced interaction system and isolation certificates.

The reduced system in x_k = sqrt(a_k) reads

    6 x_k = sum_{j != k} m[j][k] * x_j^3,      x_k > 0,

whose solutions lift to equilibrium pairs (a, c) = (x^2, 2 x^2).  At a
solution, conjugating the Jacobian by diag(x) yields 6I - A with the
symmetric matrix A_ij = 3 m_ij x_i x_j; A always carries the eigenvalue 18
with eigenvector x^2, and a solution is isolated exactly when det(6I - A)
stays away from zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import InteractionMatrix
from .errors import InvalidInput, NumericalFailure

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


class NonPositiveComponent(InvalidInput):
    """An operation requiring x > 0 received a non-positive component."""


class NonPositiveDistance(InvalidInput):
    """Closed-form solution requested for a non-positive separation."""


class SpectrumFailure(NumericalFailure):
    """The symmetric eigensolver did not converge (defective numerical input)."""


class NoSolutionFound(NumericalFailure):
    """The sphere ascent reached its iteration cap without a solution.

    Every configuration has a positive solution, so this is a failure of
    the solver within options.max_iter, never a proof of non-existence.
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
    """Spectrum of the symmetrized matrix A and the det(6I - A) certificate."""

    a_matrix: np.ndarray
    eigenvalues: np.ndarray  # sorted ascending
    det_shift: float         # det(6I - A); +-inf once the product overflows
    log_abs_det_shift: float  # sum log|6 - mu|: finite at any K, -inf only if det is 0
    eig18_residual: float    # ||A u - 18 u|| / ||u||, u = x^2
    isolated: bool
    sign_pattern: str        # one character per eigenvalue: '-', '0' or '+'


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12            # residual max-norm <= tol * (1 + ||6x||_inf)
    dedup_radius: float = 1e-6    # max-norm dedup distance on x, relative to max(1, max x)
    n_random: int = 64            # deflation budget: deflated Newton runs beyond one per start
    max_iter: int = 200           # cap on all ascent steps and on each Newton run's iterations
    extra_seeds: tuple = ()       # user-supplied starts for deflated Newton

    def __post_init__(self):
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "dedup_radius", float(self.dedup_radius))
        if not self.tol > 0:
            raise InvalidInput(f"tol must be positive, got {self.tol}")
        if not self.dedup_radius >= 0:
            raise InvalidInput(f"dedup_radius must be >= 0, got {self.dedup_radius}")
        for name, low in (("n_random", 0), ("max_iter", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise InvalidInput(f"{name} must be an integer >= {low}, got {value!r}")


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
    if np.any(x <= 0):
        raise NonPositiveComponent(f"x must be entrywise positive, got min {x.min()}")
    return 3.0 * m.m * np.outer(x, x)


def isolation_check(sol: ReducedSolution, m: InteractionMatrix) -> IsolationReport:
    """Certify (non-)isolation of a solution through the spectrum of A.

    isolated is true iff |det(6I - A)| > 1e-8 * 6^K, a threshold scaled to
    the natural magnitude of det(6I).  The test is made on
    log_abs_det_shift = sum(log|6 - mu|), so it holds for any K; det_shift
    itself is the plain product of the shifted eigenvalues and may overflow
    to +-inf for large K.  The residual must meet the solver's relative form
    of the bound, max|f| <= 1e-8 * (1 + 6 max|x|).
    """
    bound = 1e-8 * (1.0 + 6.0 * float(np.max(np.abs(sol.x))))
    if not sol.residual_norm <= bound:
        raise InvalidInput(
            f"isolation_check needs residual_norm <= {bound:.3e}, got {sol.residual_norm:.3e}"
        )
    a = symmetrized_matrix(sol.x, m)
    try:
        eigs = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as e:
        raise SpectrumFailure(f"symmetric eigensolver failed: {e}") from e
    k = sol.K
    with np.errstate(over="ignore", divide="ignore"):
        det_shift = float(np.prod(6.0 - eigs))
        log_abs_det = float(np.sum(np.log(np.abs(6.0 - eigs))))
    u = _pow2_scaled(sol.x) ** 2
    eig18 = float(np.linalg.norm(a @ u - 18.0 * u) / np.linalg.norm(u))
    scale = float(np.max(np.abs(eigs))) if k else 0.0
    pattern = "".join(
        "0" if abs(e) <= 1e-10 * max(scale, 1.0) else ("-" if e < 0 else "+") for e in eigs
    )
    return IsolationReport(
        a_matrix=a,
        eigenvalues=eigs,
        det_shift=det_shift,
        log_abs_det_shift=log_abs_det,
        eig18_residual=eig18,
        isolated=log_abs_det > math.log(1e-8) + k * math.log(6.0),
        sign_pattern=pattern,
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
    return np.ldexp(x, -np.frexp(np.max(x))[1])


def _unit(x: np.ndarray) -> np.ndarray:
    """x scaled onto the sphere sum x^4 = 1, where |a| = 1."""
    x = _pow2_scaled(x)
    return x / np.sum(x**4) ** 0.25


def _newton(x, m: InteractionMatrix, opts: SolverOptions, roots=None, scale=1.0, f=None):
    """Damped Newton from x (residual f, if known): (x, max|f|, threshold) of a solution, or None.

    The minimum-norm least-squares step (bounded where J is near-singular,
    as on non-isolated solution manifolds) is halved until it keeps x > 0
    and lowers |M f|^2.  A run fails after max_iter iterations, on a point
    below the bound every solution meets, or when _HALVINGS halvings do not
    descend: it then stalls at a local minimum of |M f|.  M = 1 unless the
    rows of roots are deflated: M = prod_r (1 + scale^2 / |x - r|^2), and
    the step rescaled by 1 / (1 - grad log M . step) is the Newton step of
    M f (Farrell, Birkisson & Funke, SIAM J. Sci. Comput. 37(4), 2015).
    """

    def merit(y, f=None):
        f = reduced_residual(y, m) if f is None else f
        w = 1.0 if roots is None else np.prod(1.0 + scale**2 / np.sum((y - roots) ** 2, axis=1))
        return f, w * w * (f @ f)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, m0 = merit(x, f)
    for _ in range(opts.max_iter):
        nf = float(np.max(np.abs(f)))
        thresh = opts.tol * (1.0 + 6.0 * float(np.max(np.abs(x))))
        if nf <= thresh:
            # a solution has 6 max(x) <= (max row sum) max(x)^3; points near 0 do not
            floor = math.sqrt(6.0 / float(np.max(np.sum(m.m, axis=1))))
            return (x, nf, thresh) if np.max(x) >= floor * (1.0 - opts.tol) else None
        step = np.linalg.lstsq(reduced_jacobian(x, m), -f, rcond=None)[0]
        if roots is not None:
            d = x - roots
            dd = np.sum(d * d, axis=1)
            with np.errstate(over="ignore"):  # far roots: 1 / inf = 0 is the limit
                step = step / (1.0 + 2.0 * scale**2 * ((1.0 / (dd * (dd + scale**2))) @ d) @ step)
        if not np.all(np.isfinite(step)):
            return None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # skip the halvings from 1 that would leave the orthant
            edge = np.min(-x / step, where=step < 0, initial=np.inf)
            lam = 2.0 ** min(0.0, np.floor(np.log2(edge)))
            trials = (x + lam * 0.5**h * step for h in range(_HALVINGS + 1))
            evaluated = ((y, *merit(y)) for y in trials if np.all(y > 0))  # (y, f, merit)
            x, f, m0 = next((e for e in evaluated if e[2] < m0), (None, None, None))
        if x is None:
            return None
    return None


def _ascend(m: InteractionMatrix, opts: SolverOptions):
    """A solution whose a = x^2 locally maximizes G on the sphere, or None.

    The solutions are the rescaled critical points of G on the sphere
    |a| = 1, where G has a maximum inside the positive orthant.  The growth
    transform x <- sqrt(x m x^3) never lowers G; after every 5 of its at most
    max_iter steps a Newton polish from the iterate rescaled by sqrt(6 / G)
    is tried, and counts only if its G on the sphere is no lower.  At a
    solution the Hessian of G on the sphere is a positive multiple of A - 6I
    off the eigenvector x^2 of the eigenvalue 18, so any other eigenvalue
    above 6 marks a saddle: the iterate steps along its eigenvector to
    higher G and ascends again, within the same max_iter steps.
    """
    x = _unit(np.ones(m.K))
    for _ in range(opts.max_iter // 5):
        for _ in range(5):
            x = _unit(np.sqrt(x * (m.m @ x**3)))
        g = _g(x, m)
        hit = _newton(math.sqrt(6.0 / g) * x, m, opts)
        if hit is None:
            continue
        u = _unit(hit[0])
        g_hit = _g(u, m)
        if not g_hit >= g * (1.0 - opts.tol):
            continue
        mu, vecs = np.linalg.eigh(symmetrized_matrix(hit[0], m))
        mu[np.argmax(np.abs(vecs.T @ hit[0] ** 2))] = -np.inf  # the eigenvalue 18
        # an eigenvalue of 6 up to rounding lies on a curve of solutions, along
        # which G is constant (the K = 10 family): no direction raises G there
        if np.max(mu) <= 6.0 * (1.0 + 1e-8):
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
    1 + n_random + len(extra_seeds) runs in all.  No random draw is made.
    A seed, the symmetric one included, needs x > 0 and a finite residual.
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

    found = [_ascend(m, options)]
    if found[0] is None:
        raise NoSolutionFound(f"sphere ascent found no solution in max_iter = {options.max_iter}")
    runs = 1 + options.n_random + len(options.extra_seeds)
    while starts and runs:
        runs -= 1
        roots = np.array([np.zeros(k)] + [h[0] for h in found])
        hit = _newton(starts[0][0], m, options, roots, xbar, starts[0][1])
        if hit is None or any(
            np.max(np.abs(hit[0] - h[0])) < options.dedup_radius * max(1.0, np.max(h[0]))
            for h in found
        ):
            starts.pop(0)
        else:
            found.append(hit)

    sols = []
    for x, nf, thresh in sorted(found, key=lambda h: tuple(h[0])):
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
    if not distance > 0:
        raise NonPositiveDistance(f"distance must be positive, got {distance}")
    if not kappa > 0:
        raise InvalidInput(f"kappa must be positive, got {kappa}")
    a = np.full(2, 6.0 * distance**3 / kappa)
    c = 2.0 * a
    a.setflags(write=False)
    c.setflags(write=False)
    return EquilibriumPoint(a=a, c=c)
