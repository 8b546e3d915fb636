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


class NonPositiveComponent(InvalidInput):
    """An operation requiring x > 0 received a non-positive component."""


class NonPositiveDistance(InvalidInput):
    """Closed-form solution requested for a non-positive separation."""


class SpectrumFailure(NumericalFailure):
    """The symmetric eigensolver did not converge (defective numerical input)."""


class NoSolutionFound(NumericalFailure):
    """Every Newton start failed; no positive solution was located.

    outcomes counts the starts by how each ended: converged, below floor
    (converged toward the trivial solution), line search exhausted and
    iteration cap.
    """

    def __init__(self, message: str, outcomes: dict[str, int]):
        super().__init__(message)
        self.outcomes = outcomes


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
    eig18_residual: float    # ||A u - 18 u|| / ||u||, u = x^2
    isolated: bool
    sign_pattern: str        # one character per eigenvalue: '-', '0' or '+'


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12            # residual max-norm <= tol * (1 + ||6x||_inf)
    dedup_radius: float = 1e-6    # max-norm dedup distance on x
    n_random: int = 64            # log-uniform random starts around the symmetric seed
    seed: int = 0
    max_iter: int = 200
    seed_span: tuple[float, float] = (1e-2, 1e2)
    extra_seeds: tuple = ()       # user-supplied start vectors

    def __post_init__(self):
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "dedup_radius", float(self.dedup_radius))
        if not self.tol > 0:
            raise InvalidInput(f"tol must be positive, got {self.tol}")
        if not self.dedup_radius >= 0:
            raise InvalidInput(f"dedup_radius must be >= 0, got {self.dedup_radius}")
        for name, low in (("n_random", 0), ("max_iter", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise InvalidInput(f"{name} must be an integer >= {low}, got {value!r}")
        try:
            lo, hi = (float(v) for v in self.seed_span)
        except (TypeError, ValueError, OverflowError) as e:
            raise InvalidInput(f"seed_span must be two numbers, got {self.seed_span!r}") from e
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi):
            raise InvalidInput(f"seed_span must be finite with 0 < lo <= hi, got {(lo, hi)}")
        object.__setattr__(self, "seed_span", (lo, hi))


def reduced_residual(x, m: InteractionMatrix) -> np.ndarray:
    """Component k of 6 x_k - sum_{j != k} m[j][k] x_j^3, for x of shape (..., K).

    Evaluated for any finite x (cubes are odd), so Newton line searches may
    probe outside the positive orthant; solutions themselves are filtered to
    x > 0 by the solver.  A stack of x is evaluated as a stack of
    matrix-vector products, so each row is rounded as it is on its own.
    """
    x = np.asarray(x, dtype=float)
    return 6.0 * x - (m.m @ x[..., None] ** 3)[..., 0]


def _sq_norms(f: np.ndarray) -> np.ndarray:
    """f_i . f_i along the last axis, rounded as the dot product of one row."""
    return (f[..., None, :] @ f[..., None])[..., 0, 0]


def reduced_jacobian(x, m: InteractionMatrix) -> np.ndarray:
    """Jacobian of the reduced residual: 6 on the diagonal, -3 m[k][l] x_l^2 off it.

    x of shape (..., K) gives one K x K Jacobian per row.
    """
    x = np.asarray(x, dtype=float)
    return 6.0 * np.eye(x.shape[-1]) - 3.0 * m.m * x[..., None, :] ** 2


def symmetrized_matrix(x, m: InteractionMatrix) -> np.ndarray:
    """A with A_ij = 3 m_ij x_i x_j (zero diagonal); requires x > 0 entrywise."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise NonPositiveComponent(f"x must be entrywise positive, got min {x.min()}")
    return 3.0 * m.m * np.outer(x, x)


def isolation_check(sol: ReducedSolution, m: InteractionMatrix) -> IsolationReport:
    """Certify (non-)isolation of a solution through the spectrum of A.

    isolated is true iff |det(6I - A)| > 1e-8 * 6^K, a threshold scaled to
    the natural magnitude of det(6I).  The test is made on sum(log|6 - mu|),
    so it holds for any K; det_shift itself is the plain product of the
    shifted eigenvalues and may overflow to +-inf for large K.
    """
    if not sol.residual_norm <= 1e-8:
        raise InvalidInput(
            f"isolation_check needs residual_norm <= 1e-8, got {sol.residual_norm:.3e}"
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
    u = sol.x**2
    eig18 = float(np.linalg.norm(a @ u - 18.0 * u) / np.linalg.norm(u))
    scale = float(np.max(np.abs(eigs))) if k else 0.0
    pattern = "".join(
        "0" if abs(e) <= 1e-10 * max(scale, 1.0) else ("-" if e < 0 else "+") for e in eigs
    )
    return IsolationReport(
        a_matrix=a,
        eigenvalues=eigs,
        det_shift=det_shift,
        eig18_residual=eig18,
        isolated=log_abs_det > math.log(1e-8) + k * math.log(6.0),
        sign_pattern=pattern,
    )


# Starts advance in blocks of about _BLOCK Jacobian entries, so the memory
# of the batched SVD and the backtracking ladder does not grow with the
# number of starts.
_BLOCK = 4096
# Every backtracking factor a halving loop from 1 tries: 2^0 .. 2^-39, exact.
_LADDER = 0.5 ** np.arange(40)
_CONVERGED, _LINE_SEARCH_EXHAUSTED, _ITERATION_CAP = 0, 1, 2


def _newton(x0: np.ndarray, m: InteractionMatrix, opts: SolverOptions):
    """Damped Newton with positivity-preserving backtracking from each row of x0.

    The rows advance together, but each follows the iteration of a lone
    start: it stops as converged once max|f| <= tol (1 + max|6x|), takes the
    minimum-norm least-squares step (bounded when J is near-singular, as on
    non-isolated solution manifolds), and accepts the first halving of that
    step that keeps x > 0 and lowers |f|^2.  Returns the final x, max|f|,
    the threshold (both NaN unless converged) and the outcome code of every
    row.
    """
    k = x0.shape[1]
    block = max(1, _BLOCK // (k * k))
    parts = [_newton_block(x0[lo : lo + block], m, opts) for lo in range(0, len(x0), block)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _newton_block(x0, m, opts):
    """_newton on one block of starts, all live rows moved in lockstep."""
    x = np.array(x0, dtype=float)
    s, k = x.shape
    nf = np.full(s, np.nan)
    thresh = np.full(s, np.nan)
    outcome = np.full(s, _ITERATION_CAP)
    live = np.arange(s)
    for _ in range(opts.max_iter):
        xl = x[live]
        f = reduced_residual(xl, m)
        nfl = np.max(np.abs(f), axis=1)
        tl = opts.tol * (1.0 + np.max(np.abs(6.0 * xl), axis=1))
        done = nfl <= tl
        nf[live[done]], thresh[live[done]] = nfl[done], tl[done]
        outcome[live[done]] = _CONVERGED
        live, xl, f = live[~done], xl[~done], f[~done]
        if not live.size:
            break
        # pinv at this cutoff gives lstsq's (rcond=None) minimum-norm step
        jac = reduced_jacobian(xl, m)
        step = -(np.linalg.pinv(jac, rtol=k * np.finfo(float).eps) @ f[:, :, None])[:, :, 0]
        xn = xl[:, None, :] + _LADDER[:, None] * step[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            ok = np.all(xn > 0, axis=2) & (
                _sq_norms(reduced_residual(xn, m)) < _sq_norms(f)[:, None]
            )
        first = ok.argmax(axis=1)
        moved = ok[np.arange(live.size), first]
        x[live[moved]] = xn[moved, first[moved]]
        outcome[live[~moved]] = _LINE_SEARCH_EXHAUSTED
        live = live[moved]
    return x, nf, thresh, outcome


def solve_equilibria(m: InteractionMatrix, options: SolverOptions = SolverOptions()):
    """Multistart damped Newton for positive solutions of the reduced system.

    Starts from a symmetric seed (exact for equal-distance configurations),
    options.n_random log-uniform perturbations of it, and any user seeds;
    all starts are advanced together.  Converged positive solutions are
    sorted lexicographically and deduplicated within options.dedup_radius
    in max-norm.  NoSolutionFound carries the count of each start outcome.
    """
    k = m.K
    mean_row = float(np.mean(np.sum(m.m, axis=1)))
    xbar = np.sqrt(6.0 / mean_row)
    rng = np.random.default_rng(options.seed)
    lo, hi = np.log(options.seed_span[0]), np.log(options.seed_span[1])
    seeds = [np.full((1, k), xbar), xbar * np.exp(rng.uniform(lo, hi, size=(options.n_random, k)))]
    for s in options.extra_seeds:
        s = np.asarray(s, dtype=float)
        if s.shape != (k,) or not np.all((s > 0) & (s < np.inf)):
            raise InvalidInput(f"extra seed must be a finite positive vector of length {k}")
        seeds.append(s[None, :])

    # any genuine solution satisfies 6 max(x) <= max_rowsum * max(x)^3, so
    # max(x) >= sqrt(6 / max_rowsum); Newton runs that collapse toward the
    # trivial zero solution fall below this floor and are discarded
    floor = 0.5 * np.sqrt(6.0 / float(np.max(np.sum(m.m, axis=1))))
    xs, nfs, threshs, outcome = _newton(np.concatenate(seeds), m, options)
    converged = outcome == _CONVERGED
    hit = converged & (np.max(xs, axis=1) >= floor)
    if not hit.any():
        outcomes = {
            "converged": int(hit.sum()),
            "below_floor": int(converged.sum()),
            "line_search_exhausted": int(np.sum(outcome == _LINE_SEARCH_EXHAUSTED)),
            "iteration_cap": int(np.sum(outcome == _ITERATION_CAP)),
        }
        raise NoSolutionFound(
            f"no positive solution from {outcome.size} starts ("
            + ", ".join(f"{key.replace('_', ' ')} {n}" for key, n in outcomes.items())
            + ")",
            outcomes,
        )

    hits = sorted(zip(xs[hit], nfs[hit], threshs[hit]), key=lambda h: tuple(h[0]))
    kept: list[ReducedSolution] = []
    for x, nf, thresh in hits:
        if any(np.max(np.abs(x - p.x)) < options.dedup_radius for p in kept):
            continue
        x = x.copy()
        x.setflags(write=False)
        kept.append(ReducedSolution(x=x, residual_norm=float(nf), tolerance=float(thresh)))
    return kept


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
