"""Rescaled modulation flow with decaying perturbations and Lyapunov diagnostics.

State is (alpha, beta) in R^K x R^K evolving under

    alpha_k' = 2 alpha_k - beta_k            + eps1_k(t),
    beta_k'  = 3 beta_k  - sum_{j != k} m[j][k] alpha_k^(1/2) alpha_j^(3/2)
                                             + eps2_k(t),

with eps -> 0 as t -> infinity.  Along the autonomous flow the functional

    L = 1/2 sum (2 alpha_k - beta_k)^2 + 3 sum alpha_k^2
        - 2/3 sum_{i<j} m[i][j] alpha_i^(3/2) alpha_j^(3/2)

is non-decreasing with dL/dt = 5 sum (2 alpha_k - beta_k)^2, vanishing
exactly on the equilibrium set.  Integration uses an embedded
Dormand-Prince 5(4) pair with PI step-size control; steps land exactly on
the requested sample grid, and the run aborts if any alpha component falls
below the admissible floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import InteractionMatrix
from .errors import InvalidInput, NumericalFailure

__all__ = [
    "TrajectoryState",
    "PerturbationSchedule",
    "Trajectory",
    "IntegratorOptions",
    "OmegaReport",
    "NegativeAlpha",
    "AlphaCollapse",
    "StepUnderflow",
    "EmptySet",
    "WindowTooLarge",
    "vector_field",
    "lyapunov",
    "lyapunov_gradient",
    "lyapunov_rate",
    "integrate",
    "distance_to_set",
    "omega_limit_estimate",
    "to_physical",
    "trajectory_csv",
]

SCHEDULE_KINDS = ("zero", "exponential", "power")


class NegativeAlpha(InvalidInput):
    """The field was evaluated at a state with some alpha_k <= 0."""


class AlphaCollapse(NumericalFailure):
    """A trajectory left the admissible regime alpha_k >= alpha_floor."""

    def __init__(self, message: str, t_exit: float):
        super().__init__(message)
        self.t_exit = t_exit


class StepUnderflow(NumericalFailure):
    """The adaptive step shrank below 1e-14."""


class EmptySet(InvalidInput):
    """distance_to_set needs a non-empty equilibrium list."""


class WindowTooLarge(InvalidInput):
    """The trailing window exceeds the trajectory's time span."""


@dataclass(frozen=True)
class TrajectoryState:
    t: float
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def K(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class PerturbationSchedule:
    """Decaying forcing (eps1, eps2); kinds: zero, exponential c0*exp(-g t),
    power c0*(1+t)^-g.  Directions weight the K components of each channel."""

    kind: str = "zero"
    amplitude: float = 0.0
    rate: float = 1.0
    dir1: np.ndarray | None = None
    dir2: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidInput(f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if self.amplitude < 0:
            raise InvalidInput(f"amplitude must be >= 0, got {self.amplitude}")
        if self.kind != "zero" and not self.rate > 0:
            raise InvalidInput(f"decay rate must be positive, got {self.rate}")
        for name in ("dir1", "dir2"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def _decay(self, t: float) -> float:
        if self.kind == "zero" or self.amplitude == 0.0:
            return 0.0
        if self.kind == "exponential":
            return self.amplitude * math.exp(-self.rate * t)
        return self.amplitude * (1.0 + t) ** -self.rate

    def _dir(self, d, k: int) -> np.ndarray:
        if d is None:
            return np.ones(k)
        if d.shape != (k,):
            raise InvalidInput(f"schedule direction must have length {k}, got shape {d.shape}")
        return d

    def eps1(self, t: float, k: int) -> np.ndarray:
        return self._decay(t) * self._dir(self.dir1, k)

    def eps2(self, t: float, k: int) -> np.ndarray:
        return self._decay(t) * self._dir(self.dir2, k)


@dataclass(frozen=True)
class IntegratorOptions:
    rtol: float = 1e-9
    atol: float = 1e-12
    alpha_floor: float = 1e-8
    sample_dt: float = 0.1    # spacing of recorded samples (steps land on them)
    max_step: float = math.inf

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        if not self.rtol > 0 or not self.atol >= 0:
            raise InvalidInput("rtol must be positive and atol non-negative")
        if not self.sample_dt > 0:
            raise InvalidInput(f"sample_dt must be positive, got {self.sample_dt}")
        if not self.max_step > 0:
            raise InvalidInput(f"max_step must be positive, got {self.max_step}")
        if not self.alpha_floor >= 0:
            raise InvalidInput(f"alpha_floor must be >= 0, got {self.alpha_floor}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples plus per-sample diagnostics."""

    ts: np.ndarray            # (n,)
    alpha: np.ndarray         # (n, K)
    beta: np.ndarray          # (n, K)
    lyapunov: np.ndarray      # (n,)
    lyapunov_rate: np.ndarray # (n,)
    dist_to_eq: np.ndarray    # (n,), nan when no equilibria were supplied

    @property
    def K(self) -> int:
        return self.alpha.shape[1]

    @property
    def samples(self) -> list[TrajectoryState]:
        return [
            TrajectoryState(t=float(t), alpha=a, beta=b)
            for t, a, b in zip(self.ts, self.alpha, self.beta)
        ]


@dataclass(frozen=True)
class OmegaReport:
    """Trailing-window bounding box: evidence, not a verdict, of convergence."""

    window: float
    t_start: float
    box_min: np.ndarray  # (2K,) over concatenated (alpha, beta)
    box_max: np.ndarray
    diameter: float      # max-norm diameter of the window's sample cloud
    final_dist_to_eq: float


def _field_raw(alpha: np.ndarray, beta: np.ndarray, m: InteractionMatrix):
    dalpha = 2.0 * alpha - beta
    dbeta = 3.0 * beta - np.sqrt(alpha) * (m.m @ alpha**1.5)
    return dalpha, dbeta


def vector_field(state: TrajectoryState, m: InteractionMatrix):
    """Autonomous field (dalpha, dbeta); perturbations are the integrator's job."""
    if np.any(state.alpha <= 0):
        raise NegativeAlpha(f"alpha must be entrywise positive, got min {state.alpha.min()}")
    return _field_raw(state.alpha, state.beta, m)


def lyapunov(state: TrajectoryState, m: InteractionMatrix) -> float:
    """L = 1/2 sum(2a-b)^2 + 3 sum a^2 - 2/3 sum_{i<j} m_ij a_i^1.5 a_j^1.5."""
    a, b = state.alpha, state.beta
    if np.any(a < 0):
        raise NegativeAlpha(f"alpha must be entrywise >= 0, got min {a.min()}")
    a32 = a**1.5
    return float(
        0.5 * np.sum((2.0 * a - b) ** 2)
        + 3.0 * np.sum(a**2)
        - (a32 @ (m.m @ a32)) / 3.0  # half of the 2/3-weighted i<j double sum
    )


def lyapunov_gradient(state: TrajectoryState, m: InteractionMatrix):
    """(dL/dalpha, dL/dbeta) in closed form."""
    a, b = state.alpha, state.beta
    if np.any(a < 0):
        raise NegativeAlpha(f"alpha must be entrywise >= 0, got min {a.min()}")
    galpha = 2.0 * (2.0 * a - b) + 6.0 * a - np.sqrt(a) * (m.m @ a**1.5)
    gbeta = -(2.0 * a - b)
    return galpha, gbeta


def lyapunov_rate(state: TrajectoryState) -> float:
    """Dissipation 5 sum_k (2 alpha_k - beta_k)^2 of L along the autonomous flow."""
    return float(5.0 * np.sum((2.0 * state.alpha - state.beta) ** 2))


def distance_to_set(state: TrajectoryState, equilibria) -> float:
    """min over the list of max(||alpha - a||_inf, ||beta - c||_inf)."""
    eqs = list(equilibria)
    if not eqs:
        raise EmptySet("equilibrium list is empty")
    return min(
        max(
            float(np.max(np.abs(state.alpha - e.a))),
            float(np.max(np.abs(state.beta - e.c))),
        )
        for e in eqs
    )


# Dormand-Prince 5(4) tableau (FSAL)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = np.append(_DP_A[6], 0.0) - _DP_B4  # the last stage row is the 5th-order weights


def integrate(
    initial: TrajectoryState,
    m: InteractionMatrix,
    schedule: PerturbationSchedule,
    t_end: float,
    options: IntegratorOptions = IntegratorOptions(),
    equilibria=None,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration with samples every sample_dt.

    Steps are clamped to land exactly on the sample grid and on t_end.
    Raises AlphaCollapse (with the exit time) when any alpha component drops
    below options.alpha_floor, and StepUnderflow when the controller cannot
    make progress with steps above 1e-14.
    """
    if np.any(initial.alpha <= 0):
        raise NegativeAlpha("initial alpha must be entrywise positive")
    if not initial.t < t_end < math.inf:
        raise InvalidInput(f"t_end must be finite and exceed the initial time {initial.t}")
    if initial.alpha.ndim != 1 or initial.beta.shape != initial.alpha.shape:
        raise InvalidInput("alpha and beta must be vectors of equal length")
    k = initial.K
    if k != m.K:
        raise InvalidInput(f"state has {k} components but the coupling matrix has {m.K}")
    if not (np.all(np.isfinite(initial.alpha)) and np.all(np.isfinite(initial.beta))):
        raise InvalidInput("initial state contains non-finite values")
    dir1 = schedule._dir(schedule.dir1, k)
    dir2 = schedule._dir(schedule.dir2, k)
    forced = schedule.kind != "zero" and schedule.amplitude != 0.0
    decay = schedule._decay

    def rhs(t: float, y: np.ndarray, out: np.ndarray) -> None:
        """Write the full right-hand side at the stacked state y = (alpha, beta) into out."""
        alpha = y[:k]
        if not alpha.min() > 0.0 or not np.isfinite(y).all():
            raise FloatingPointError  # stage left the admissible region
        da, db = _field_raw(alpha, y[k:], m)
        if forced:
            c = decay(t)
            da = da + c * dir1
            db = db + c * dir2
        out[:k] = da
        out[k:] = db

    t = float(initial.t)
    y = np.concatenate([initial.alpha.astype(float), initial.beta.astype(float)])

    n_samples = int(math.floor((t_end - t) / options.sample_dt + 1e-9))
    sample_ts = [t + i * options.sample_dt for i in range(1, n_samples + 1)]
    if not sample_ts or sample_ts[-1] < t_end - 1e-12 * max(1.0, abs(t_end)):
        sample_ts.append(t_end)
    else:
        sample_ts[-1] = t_end

    ts = np.array([t] + sample_ts)
    ys = np.empty((ts.shape[0], y.shape[0]))
    ys[0] = y
    ks = np.empty((7, y.shape[0]))  # row 0 carries f(t, y) between steps (FSAL)
    rhs(t, y, ks[0])
    # per stage: node, the earlier stages (transposed), tableau row, output row
    stages = [(_DP_C[i], ks[:i].T, _DP_A[i], ks[i]) for i in range(1, 7)]
    ks_t = ks.T
    h = min(1e-2, options.sample_dt, options.max_step)
    err_prev = None

    for j, target in enumerate(sample_ts, start=1):
        t_stop = target - 1e-12 * max(1.0, abs(target))
        while t < t_stop:
            h = min(h, options.max_step, target - t)
            if h < 1e-14:
                raise StepUnderflow(f"step size {h:.3e} below 1e-14 at t={t:.6g}")
            try:
                # the last stage's input is the 5th-order solution (FSAL), checked by rhs
                for c, ks_prev, a, k_i in stages:
                    y5 = y + h * (ks_prev @ a)
                    rhs(t + c * h, y5, k_i)
            except FloatingPointError:
                h *= 0.5
                err_prev = None
                continue
            scale = options.atol + options.rtol * np.maximum(np.abs(y), np.abs(y5))
            err = math.sqrt(np.add.reduce((h * (ks_t @ _DP_E) / scale) ** 2) / (2 * k))
            if err <= 1.0:
                t = t + h
                y = y5
                ks[0] = ks[6]  # FSAL
                if y[:k].min() < options.alpha_floor:
                    raise AlphaCollapse(
                        f"alpha fell below the floor {options.alpha_floor:.0e} at t={t:.6g}",
                        t_exit=t,
                    )
                # PI controller (order 5 propagation)
                e = max(err, 1e-10)
                if err_prev is None:
                    fac = 0.9 * e ** (-0.2)
                else:
                    fac = 0.9 * e ** (-0.14) * err_prev**0.08
                err_prev = e
                h = h * min(5.0, max(0.2, fac))
            else:
                h = h * max(0.2, 0.9 * err ** (-0.2))
                err_prev = None
        ys[j] = y
        t = target

    alphas, betas = ys[:, :k], ys[:, k:]
    # Lyapunov diagnostics for all samples at once; the stacked matmuls
    # reduce in the same order as lyapunov() on one sample.
    sq = np.sum((2.0 * alphas - betas) ** 2, axis=1)
    a32 = alphas**1.5
    coupling = np.matmul(a32[:, None, :], np.matmul(m.m, a32[:, :, None]))[:, 0, 0]
    lyap = 0.5 * sq + 3.0 * np.sum(alphas**2, axis=1) - coupling / 3.0
    rate = 5.0 * sq
    eqs = list(equilibria) if equilibria is not None else []
    if eqs:
        ea = np.array([e.a for e in eqs])
        ec = np.array([e.c for e in eqs])
        dist = np.maximum(
            np.abs(alphas[:, None, :] - ea).max(axis=2),
            np.abs(betas[:, None, :] - ec).max(axis=2),
        ).min(axis=1)
    else:
        dist = np.full(ts.shape[0], math.nan)
    return Trajectory(
        ts=ts, alpha=alphas, beta=betas, lyapunov=lyap, lyapunov_rate=rate, dist_to_eq=dist
    )


def omega_limit_estimate(traj: Trajectory, window: float) -> OmegaReport:
    """Bounding box and diameter of all samples with t >= t_end - window."""
    span = float(traj.ts[-1] - traj.ts[0])
    if window >= span:
        raise WindowTooLarge(f"window {window} must be smaller than the span {span}")
    t0 = traj.ts[-1] - window
    sel = traj.ts >= t0 - 1e-12 * max(1.0, abs(t0))
    cloud = np.hstack([traj.alpha[sel], traj.beta[sel]])
    box_min = cloud.min(axis=0)
    box_max = cloud.max(axis=0)
    return OmegaReport(
        window=window,
        t_start=float(t0),
        box_min=box_min,
        box_max=box_max,
        diameter=float(np.max(box_max - box_min)),
        final_dist_to_eq=float(traj.dist_to_eq[-1]),
    )


def to_physical(traj: Trajectory):
    """Per-sample (s, lambda, b) with s = e^t, lambda = alpha/s^2, b = beta/s^3."""
    out = []
    for t, a, b in zip(traj.ts, traj.alpha, traj.beta):
        s = math.exp(t)
        out.append((s, a / s**2, b / s**3))
    return out


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export: t, s, alpha_1..alpha_K, beta_1..beta_K, L, L_rate, dist_to_eq."""
    k = traj.K
    cols = (
        ["t", "s"]
        + [f"alpha_{i + 1}" for i in range(k)]
        + [f"beta_{i + 1}" for i in range(k)]
        + ["L", "L_rate", "dist_to_eq"]
    )
    s = [math.exp(t) for t in traj.ts.tolist()]  # math.exp and np.exp can differ in the last bit
    table = np.column_stack(
        [traj.ts, s, traj.alpha, traj.beta, traj.lyapunov, traj.lyapunov_rate, traj.dist_to_eq]
    )
    fmt = ",".join(["%.17g"] * len(cols))
    lines = [",".join(cols)]
    lines.extend(fmt % tuple(row.tolist()) for row in table)
    return "\n".join(lines) + "\n"
