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
Dormand-Prince 5(4) pair with PI step-size control; samples between step
ends come from the pair's continuous extension, so the sample grid never
sets the step size, and the run aborts if any alpha component falls below
the admissible floor.  An autonomous run that reaches a state no later step
can move (an exact equilibrium, up to rounding) stops stepping and fills
the remaining samples with that state, bit for bit what the steps would
have written.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import InteractionMatrix
from .errors import InvalidInput, NumericalFailure, real, reals

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
    "lyapunov_rate",
    "integrate",
    "distance_to_set",
    "omega_limit_estimate",
    "to_physical",
    "trajectory_csv",
]

SCHEDULE_KINDS = ("zero", "exponential", "power")
# cap on the values a run holds, (samples + 1) (2K + 3) with samples = (t_end - t) / sample_dt
# and 2K + 3 the columns of Trajectory.table, checked before the grid is allocated: 10^6 samples fit
# at K = 2, about 3.5 x 10^5 at K = 10.  Frozen or not, at any number of equilibria, a run peaks
# at 8 bytes a counted value (64 MB at the cap) plus one block: 1.00-1.05 times at 10^5 samples
MAX_VALUES = 8 * 10**6
# rows taken at a time by integrate's diagnostics and the CSV writer: perfbench's flow-fine
# runs (at most 3,501 rows) fit in one block; a streamed K = 10 block is about 2 MB of text
BLOCK_ROWS = 4096


class NegativeAlpha(InvalidInput):
    """The field was evaluated at a state with some alpha_k <= 0."""


class AlphaCollapse(NumericalFailure):
    """A trajectory left the admissible regime alpha_k >= alpha_floor."""

    def __init__(self, message: str, t_exit: float):
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
        return self.alpha.shape[-1]


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
        object.__setattr__(self, "amplitude", real("amplitude", self.amplitude))
        object.__setattr__(self, "rate", real("rate", self.rate))
        if self.amplitude < 0:
            raise InvalidInput(f"amplitude must be >= 0, got {self.amplitude}")
        if self.kind != "zero" and not self.rate > 0:
            raise InvalidInput(f"decay rate must be positive, got {self.rate}")
        for name in ("dir1", "dir2"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, reals(f"schedule {name}", getattr(self, name)))

    def _decay(self, t: float) -> float:
        """The forcing's size at t; InvalidInput where it is not a finite real
        (a power schedule needs t > -1)."""
        if self.kind == "zero" or self.amplitude == 0.0:
            return 0.0
        t = float(t)  # a numpy t would overflow to inf with a warning, not raise
        try:
            if self.kind == "exponential":
                c = self.amplitude * math.exp(-self.rate * t)
            elif t > -1.0:
                c = self.amplitude * (1.0 + t) ** -self.rate
            else:
                raise InvalidInput(
                    f"the forcing at time {t} is undefined: a power schedule needs t > -1"
                )
        except OverflowError:
            c = math.inf
        if not math.isfinite(c):
            raise InvalidInput(f"the forcing at time {t} is not finite")
        return c

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
    sample_dt: float = 0.1    # spacing of recorded samples only; rtol and atol set the steps

    def __post_init__(self):
        for f in fields(self):  # an infinite sample_dt means one sample, at t_end
            value = real(f.name, getattr(self, f.name), f.name == "sample_dt")
            object.__setattr__(self, f.name, value)
        if not self.rtol > 0 or not self.atol >= 0:
            raise InvalidInput("rtol must be positive and atol non-negative")
        if not self.sample_dt > 0:
            raise InvalidInput(f"sample_dt must be positive, got {self.sample_dt}")
        if not self.alpha_floor >= 0:
            raise InvalidInput(f"alpha_floor must be >= 0, got {self.alpha_floor}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples plus per-sample diagnostics: row i of table is (alpha, beta, L,
    L_rate, dist_to_eq) at ts[i], the CSV's columns after t and s, with dist_to_eq nan when
    no equilibria were supplied.  alpha through dist_to_eq are views of its columns."""

    ts: np.ndarray     # (n,)
    table: np.ndarray  # (n, 2K + 3)

    K = property(lambda self: (self.table.shape[1] - 3) // 2)
    alpha = property(lambda self: self.table[:, : self.K])
    beta = property(lambda self: self.table[:, self.K : -3])
    lyapunov = property(lambda self: self.table[:, -3])
    lyapunov_rate = property(lambda self: self.table[:, -2])
    dist_to_eq = property(lambda self: self.table[:, -1])


@dataclass(frozen=True)
class OmegaReport:
    """Trailing-window bounding box: evidence, not a verdict, of convergence."""

    window: float
    t_start: float
    box_min: np.ndarray  # (2K,) over concatenated (alpha, beta)
    box_max: np.ndarray
    diameter: float      # max-norm diameter of the window's sample cloud


def _stacked(y: np.ndarray, out: np.ndarray, k: int):
    """Views (y, alpha, beta, out, out_alpha, out_beta) of a stacked state and its field."""
    return y, y[:k], y[k:], out, out[:k], out[k:]


def _field_raw(views, m: InteractionMatrix, growth: np.ndarray, forcing=None) -> None:
    """Write the field at y = (alpha, beta) into out, with views as _stacked gives them,
    growth = (2, ..., 2, 3, ..., 3) and forcing, if any, the stacked (eps1, eps2)."""
    y, alpha, beta, out, out_alpha, out_beta = views
    np.multiply(growth, y, out=out)
    out_alpha -= beta
    out_beta -= np.sqrt(alpha) * (m.m @ alpha**1.5)
    if forcing is not None:
        out += forcing


def _check_shape(state, k: int | None = None, one: bool = False) -> None:
    """InvalidInput unless alpha and beta share one shape with k entries on its last
    axis, and, for one state, only that axis."""
    shape, other = np.shape(state.alpha), np.shape(state.beta)
    if one and len(shape) != 1:  # on an (n, K) stack, m @ alpha mixes the samples
        raise InvalidInput(f"expected one state, got alpha of shape {shape}")
    if shape != other or not shape or (k is not None and shape[-1] != k):
        need = "" if k is None else f" with {k} components"
        raise InvalidInput(f"alpha {shape} and beta {other} must share one shape{need}")


def check_run(
    t0: float, t_end: float, k: int, schedule, options, initial=None, equilibria=()
):
    """InvalidInput unless a run of k components can start: an initial state (if
    given) of k components, entrywise finite, with every alpha positive (else
    NegativeAlpha) and at least options.alpha_floor; equilibria (if given, with an
    initial state) of k components; a finite t_end above the finite start time
    t0; at most MAX_VALUES values held; forcing directions of k components and
    forcing that is a finite real at t0 (a power schedule needs t0 > -1).
    Returns the two directions."""
    if initial is not None:
        _check_shape(initial, k, one=True)
        if np.any(initial.alpha <= 0):
            raise NegativeAlpha("initial alpha must be entrywise positive")
        if not (np.isfinite(initial.alpha).all() and np.isfinite(initial.beta).all()):
            raise InvalidInput("initial state contains non-finite values")
        low, floor = initial.alpha.min(), options.alpha_floor
        if not low >= floor:
            raise InvalidInput(f"initial alpha {low:.3e} below alpha_floor {floor:.0e}")
        if equilibria:
            distance_to_set(initial, equilibria)  # rejects equilibria of the wrong length
    if not -math.inf < t0 < t_end < math.inf:
        raise InvalidInput(f"t_end must be finite and exceed the finite initial time {t0}")
    samples = (t_end - t0) / options.sample_dt
    if not (samples + 1.0) * (2 * k + 3) <= MAX_VALUES:
        raise InvalidInput(
            f"{samples:.6g} samples of sample_dt up to t_end {t_end}, {2 * k + 3} values"
            f" each, exceed the cap of {MAX_VALUES} values"
        )
    schedule._decay(t0)  # both kinds decrease in t, so a finite forcing at t0 bounds the run
    return schedule._dir(schedule.dir1, k), schedule._dir(schedule.dir2, k)


def vector_field(state: TrajectoryState, m: InteractionMatrix):
    """Autonomous field (dalpha, dbeta) at one state; perturbations are the integrator's job."""
    _check_shape(state, m.K, one=True)
    if np.any(state.alpha <= 0):
        raise NegativeAlpha(f"alpha must be entrywise positive, got min {state.alpha.min()}")
    views = _stacked(np.concatenate([state.alpha, state.beta]), np.empty(2 * m.K), m.K)
    _field_raw(views, m, np.repeat((2.0, 3.0), m.K))
    return views[4], views[5]


def lyapunov(state: TrajectoryState | Trajectory, m: InteractionMatrix):
    """L = 1/2 sum(2a-b)^2 + 3 sum a^2 - 2/3 sum_{i<j} m_ij a_i^1.5 a_j^1.5.

    Like lyapunov_rate and distance_to_set, reduces over the last axis: a
    float for one state, an (n,) array for a stack of samples or a Trajectory.
    """
    _check_shape(state, m.K)
    a, b = state.alpha, state.beta
    if np.any(a < 0):
        raise NegativeAlpha(f"alpha must be entrywise >= 0, got min {a.min()}")
    a32 = a**1.5
    # half of the 2/3-weighted i<j double sum
    coupling = np.matmul(a32[..., None, :], np.matmul(m.m, a32[..., :, None]))[..., 0, 0]
    return 0.5 * np.sum((2.0 * a - b) ** 2, axis=-1) + 3.0 * np.sum(a**2, axis=-1) - coupling / 3.0


def lyapunov_rate(state: TrajectoryState | Trajectory):
    """Dissipation 5 sum_k (2 alpha_k - beta_k)^2 of L along the autonomous flow."""
    _check_shape(state)
    return 5.0 * np.sum((2.0 * state.alpha - state.beta) ** 2, axis=-1)


def distance_to_set(state: TrajectoryState | Trajectory, equilibria):
    """min over the list of max(||alpha - a||_inf, ||beta - c||_inf)."""
    eqs = list(equilibria)
    if not eqs:
        raise EmptySet("equilibrium list is empty")
    _check_shape(state)
    k = state.alpha.shape[-1]
    if any(np.shape(e.a) != (k,) or np.shape(e.c) != (k,) for e in eqs):
        raise InvalidInput(f"every equilibrium must have {k} components, as the state does")
    # a running minimum, one equilibrium at a time (exact in any order): no n x E x K stack
    return functools.reduce(np.minimum, (
        np.maximum(np.abs(state.alpha - e.a).max(axis=-1), np.abs(state.beta - e.c).max(axis=-1))
        for e in eqs
    ))


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
_DP_B5 = np.append(_DP_A[6], 0.0)  # the last stage row is the 5th-order weights
_DP_E = _DP_B5 - _DP_B4
# Continuous extension (dopri5 CONTD5; Hairer, Norsett & Wanner, Solving ODEs I,
# II.6): y(t + theta h) = y + h P(theta) @ _DP_W @ ks with
# P = [theta, theta (1-theta), theta^2 (1-theta), theta^2 (1-theta)^2].
_DP_W = np.array([
    _DP_B5,
    np.eye(7)[0] - _DP_B5,
    2.0 * _DP_B5 - np.eye(7)[0] - np.eye(7)[6],
    [-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423],
])
_DP_P_MAX = np.array([1.0, 1 / 4, 4 / 27, 1 / 16])  # max of |P_r(theta)| on [0, 1]


def integrate(
    initial: TrajectoryState,
    m: InteractionMatrix,
    schedule: PerturbationSchedule,
    t_end: float,
    options: IntegratorOptions = IntegratorOptions(),
    equilibria=None,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration with samples every sample_dt.

    The PI controller (with options.rtol and options.atol) and t_end alone
    set the steps, from a first step of 1e-2; the last step lands exactly on
    t_end.  Stage admissibility is checked once per step, over all six stage
    inputs (alpha > 0 and finite), after every stage is evaluated; a step
    with any inadmissible input is retried at half size.
    A sample inside a step is the step's 5th-order continuous extension (no
    extra field evaluation), one on a step end is that step's solution.
    After a step that leaves the state bitwise unchanged, the next step is
    capped at a quarter ULP of movement per component, so an exact
    equilibrium stays exactly fixed.  One check_run call rejects, before any
    step, a start that cannot run.  Raises AlphaCollapse (with the
    exit time) when any alpha component of a sample or a step end drops
    below options.alpha_floor, and StepUnderflow when the controller cannot
    make progress with steps above 1e-14.

    An unforced run stops stepping once no later step can move the state,
    and the remaining samples are that state; they are exactly the samples
    the steps would have written.  After a step that leaves y unchanged,
    every later step is at most h_max = cap + (t_end - t_stop), with cap the
    quarter-ULP cap above and t_stop the loop's end tolerance
    (the last step may pass the cap by that much; the tail is doubled and
    h_max raised by a relative 1e-9 to cover the rounding of t + h).  The
    loop replays a step of h_max with every stage at f(y) and exits when:

    (a) all six stage inputs equal y and the error estimate is at most
        1e-10, the controller's floor.  Rounding is monotone (Higham,
        Accuracy and Stability of Numerical Algorithms, 2002, ch. 2), so at
        every h <= h_max the stage inputs are y, the stages f(y), the step
        is accepted, and the controller never shrinks the next step;
    (b) the continuous extension's increment at h_max, bounded with the
        maxima of |P_r| on [0, 1], 1, 1/4, 4/27 and 1/16, and raised by a
        relative 1e-9 for the rounding of the interpolation, lies below half
        the smaller gap next to each y_i, so every interpolated sample rounds
        to y.  A power of two has only half a spacing below it, and a zero
        component has no gap (its sign could still flip): such a state
        never exits;
    (c) the next step h is at least 1e-14: by (a) later steps only grow from
        there, up to cap, so no StepUnderflow is lost.

    A field that is exactly zero moves nothing at any step and exits at once.
    """
    eqs = [] if equilibria is None else list(equilibria)
    dir1, dir2 = check_run(initial.t, t_end, m.K, schedule, options, initial, eqs)
    k = initial.K
    forced = schedule.kind != "zero" and schedule.amplitude != 0.0
    decay = schedule._decay
    dirs = np.concatenate([dir1, dir2])
    growth = np.repeat((2.0, 3.0), k)

    t = float(initial.t)
    y = np.concatenate([initial.alpha.astype(float), initial.beta.astype(float)])

    t_stop = t_end - 1e-12 * max(1.0, abs(t_end))  # the loop's end tolerance
    n_samples = int(math.floor((t_end - t) / options.sample_dt + 1e-9))
    # ts[0] = t on its own: t + 0 * sample_dt would turn -0.0 into 0.0, and NaN at inf
    ts = np.append(t, t + np.arange(1, n_samples + 1) * options.sample_dt)
    if n_samples == 0 or ts[-1] < t_stop:
        ts = np.append(ts, t_end)
    else:
        ts[-1] = t_end
    table = np.empty((ts.shape[0], 2 * k + 3))
    ys = table[:, : 2 * k]
    ys[0] = y
    ks = np.empty((7, y.shape[0]))  # row 0 carries f(t, y) between steps (FSAL)
    inputs = np.empty((6, y.shape[0]))  # the stage inputs; the last is the 5th-order solution
    y5 = inputs[5]
    _field_raw(_stacked(y, ks[0], k), m, growth, decay(t) * dirs if forced else None)
    # per stage: node, the earlier stages (transposed), tableau row, input row, field views
    stages = [
        (_DP_C[i], ks[:i].T, _DP_A[i], inputs[i - 1], _stacked(inputs[i - 1], ks[i], k))
        for i in range(1, 7)
    ]
    ks_t = ks.T
    h = 1e-2
    err_prev = None
    j = 1  # the first sample not yet written

    while t < t_stop:
        last = t + h >= t_stop
        if last:
            h = t_end - t
        if h < 1e-14:
            raise StepUnderflow(f"step size {h:.3e} below 1e-14 at t={t:.6g}")
        # all six stages, then one check of their inputs: the fields of a step with an
        # inadmissible input are discarded with it, so their warnings are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            for c, ks_prev, a, row, views in stages:
                np.matmul(ks_prev, a, out=row)
                row *= h
                row += y
                _field_raw(views, m, growth, decay(t + c * h) * dirs if forced else None)
        if not (np.minimum.reduce(inputs[:, :k], axis=None) > 0.0 and np.isfinite(inputs).all()):
            h *= 0.5  # a stage left the admissible region
            err_prev = None
            continue
        scale = options.atol + options.rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(np.add.reduce((h * (ks_t @ _DP_E) / scale) ** 2) / (2 * k))
        if err > 1.0:
            h = h * max(0.2, 0.9 * err ** (-0.2))
            err_prev = None
            continue
        t_new = t_end if last else t + h
        t_exit = t_new if np.minimum.reduce(y5[:k]) < options.alpha_floor else None
        j_new = int(ts.searchsorted(t_new, "right"))  # ts[j:j_new] in (t, t_new]
        j_in = j_new - 1 if j_new > j and ts[j_new - 1] == t_new else j_new
        if j_in > j:  # samples inside the step, from the continuous extension
            th = (ts[j:j_in] - t) / h
            u = (1.0 - th) * th
            seg = ys[j:j_in]
            np.matmul(np.column_stack((th, u, u * th, u * u)), h * (_DP_W @ ks), out=seg)
            seg += y
            # no stage evaluation has checked these states: one pass, the mask on failure
            if not (seg[:, :k].min() >= options.alpha_floor and np.isfinite(seg).all()):
                ok = (seg[:, :k] >= options.alpha_floor).all(axis=1) & np.isfinite(seg).all(axis=1)
                t_exit = float(ts[j + int(np.argmin(ok))])
        ys[j_in:j_new] = y5  # a sample on the step end takes the step's solution
        j = j_new
        if t_exit is not None:
            raise AlphaCollapse(
                f"alpha fell below the floor {options.alpha_floor:.0e} at t={t_exit:.6g}",
                t_exit=t_exit,
            )
        # PI controller (order 5 propagation)
        e = max(err, 1e-10)
        if err_prev is None:
            fac = 0.9 * e ** (-0.2)
        else:
            fac = 0.9 * e ** (-0.14) * err_prev**0.08
        err_prev = e
        h = h * min(5.0, max(0.2, fac))
        if (y5 == y).all():
            # A step that rounds to no move keeps the state only while h |f_i| stays
            # below half an ULP of y_i; cap the next at a quarter, clear of the tie.
            ulps_per_time = np.max(np.abs(ks[6]) / np.spacing(np.abs(y)))
            cap = 0.25 / ulps_per_time if ulps_per_time > 0.0 else math.inf
            h = min(h, cap)
            if not forced and h >= 1e-14:
                if not ks[6].any():
                    break  # a zero field moves nothing at any step
                # Replay the longest step still to come with every stage at f(y): if
                # it cannot move the state, no later step can (see the docstring).
                h_max = (cap + 2.0 * (t_end - t_stop)) * (1.0 + 1e-9)
                ks[:6] = ks[6]
                # a field that is NaN at an admissible state leaves cap infinite
                if h_max < math.inf and all(
                    (y + h_max * (ks_prev @ a) == y).all() for _, ks_prev, a, *_ in stages
                ):
                    err_max = math.sqrt(
                        np.add.reduce((h_max * (ks_t @ _DP_E) / scale) ** 2) / (2 * k)
                    )
                    dense = h_max * (_DP_W @ ks)
                    mag = np.abs(y)
                    half_gap = 0.5 * (mag - np.nextafter(mag, 0.0))  # 0 where y_i is 0
                    if err_max <= 1e-10 and (
                        (_DP_P_MAX @ np.abs(dense)) * (1.0 + 1e-9) < half_gap
                    ).all():
                        break
        t, y = t_new, y5.copy()
        ks[0] = ks[6]  # FSAL
    ys[j : j + 1] = y  # after a frozen exit, or when the start is within the end tolerance

    # row-wise diagnostics of rows 0..j a block at a time, as the CSV is made; later rows repeat j
    for lo in range(0, min(j + 1, ts.shape[0]), BLOCK_ROWS):
        rows = slice(lo, min(lo + BLOCK_ROWS, j + 1))
        part = TrajectoryState(t=ts[rows], alpha=ys[rows, :k], beta=ys[rows, k:])
        table[rows, -3], table[rows, -2] = lyapunov(part, m), lyapunov_rate(part)
        table[rows, -1] = distance_to_set(part, eqs) if eqs else math.nan
    table[j + 1 :] = table[j : j + 1]
    return Trajectory(ts, table)


def omega_limit_estimate(traj: Trajectory, window: float) -> OmegaReport:
    """Bounding box and diameter of all samples with t >= t_end - window."""
    span = float(traj.ts[-1] - traj.ts[0])
    if not window >= 0:
        raise InvalidInput(f"window must be >= 0, got {window}")
    if window >= span:
        raise WindowTooLarge(f"window {window} must be smaller than the span {span}")
    t0 = traj.ts[-1] - window
    i0 = traj.ts.searchsorted(t0 - 1e-12 * max(1.0, abs(t0)))  # ts is sorted
    states = traj.table[i0:, : 2 * traj.K]
    box_min, box_max = states.min(axis=0), states.max(axis=0)
    return OmegaReport(
        window=window,
        t_start=float(t0),
        box_min=box_min,
        box_max=box_max,
        diameter=float(np.max(box_max - box_min)),
    )


def _exp(t: float) -> float:
    """math.exp(t), or inf where e^t overflows a float (t above about 709.78)."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def to_physical(traj: Trajectory):
    """Per-sample (s, lambda, b) with s = e^t, lambda = alpha e^{-2t}, b = beta e^{-3t}."""
    return [
        (_exp(t), a * _exp(-2.0 * t), b * _exp(-3.0 * t))
        for t, a, b in zip(traj.ts.tolist(), traj.alpha, traj.beta)
    ]


@functools.cache
def _g17_tables():
    """(words, zeros, mask, p10): the formatter's tables, built on first use by
    broadcasting (about 0.2 ms).

    A value's text is cut from a slot of five uint64 words, 40 bytes: "-0.000" D0
    ".", then D1 "." D2 "." ... D16 "." for its 17 digits, with the separator in
    place of the last ".".  words[10000 + D0] is word 0 and words[g] is word j for
    the j-th group g of four digits; zeros[g] counts g's trailing zeros (4 for 0000).
    A row of mask per (sign, e, significant digits) keeps the bytes of %g's fixed
    notation; the other bytes are zeroed, then deleted.  p10 holds 10^p for
    p = 0..22, each exact, and its split (hi, lo) for Dekker's product.
    """
    digits = np.arange(48, 58, dtype=np.uint8)
    groups = np.full((10, 10, 10, 10, 4, 2), ord("."), np.uint8)  # "d.d.d.d." for 0000-9999
    for i in range(4):
        groups[..., i, 0] = digits.reshape((10,) + (1,) * (3 - i))  # the i-th digit
    heads = np.tile(np.frombuffer(b"-0.000\0.", np.uint8), (10, 1))
    heads[:, 6] = digits
    zeros = np.zeros((10, 10, 10, 10), np.uint8)
    for i in range(4):
        zeros[(...,) + (0,) * (i + 1)] += 1  # the last i + 1 digits are 0
    col = np.arange(40)
    e = np.arange(-4, 17)[:, None, None]
    sig = np.arange(1, 18)[None, :, None]
    i = (col - 6) // 2  # the digit at column 6 + 2i, the point after it at 7 + 2i
    keep = (
        (col >= 1) & (col <= 2) & (e < 0)  # "0." before a value below 1
        | (col >= 3) & (col <= 5) & (col - 3 < -e - 1)  # and its zeros after the point
        | (col >= 6) & (col % 2 == 0) & ((i < sig) | (i <= e))
        | (col >= 7) & (col % 2 == 1) & (i == e) & (sig - 1 > e)
        | (col == 39)
    ).reshape(-1, 40)
    mask = np.concatenate((keep, keep | (col == 0)))  # then the same with "-"
    p10 = np.array([float(10**p) for p in range(23)])
    words = np.concatenate((groups.reshape(10**4, 8), heads)).view(np.uint64)[:, 0]
    mask = (mask * np.uint8(255)).view(np.uint64)
    return words, zeros.ravel(), mask, np.stack((p10, *_split(p10)))


def _g17(x: np.ndarray, sep: np.ndarray) -> str:
    """The text of "%.17g%c" % (v, c) for each value v of x and code c of sep, joined.

    The work is done 2,048 values at a time, with about 0.3 MB of temporaries.  A
    value with 17 digits N and exponent e that %g writes in fixed notation
    (-4 <= e <= 16) is laid out from N's digits and _g17_tables' slot; every other
    value (exponent notation, NaN and the infinities) goes through `%` on its own.
    """
    tables = _g17_tables()
    return "".join(
        [_g17_chunk(x[i : i + 2048], sep[i : i + 2048], tables) for i in range(0, len(x), 2048)]
    )


def _g17_chunk(v: np.ndarray, sep: np.ndarray, tables) -> str:
    """_g17 for one chunk: the slots of _g17_layout, masked, with the separators."""
    words_of, zeros_of, mask_of, p10 = tables
    row, words = _g17_layout(v, zeros_of, p10)
    buf = bytearray(40 * len(v))  # the slots, then their text with the zeroed bytes deleted
    slot = np.frombuffer(buf, np.uint64).reshape(-1, 5)
    np.take(words_of, words, out=slot, mode="clip")
    del words  # at most one 40-byte array a value besides the slots
    slot &= np.take(mask_of, row, axis=0, mode="clip")
    text = slot.view(np.uint8)
    text[:, 39] = sep
    other = np.flatnonzero(row < 0)
    if other.size:  # one `%` pass, each text padded with spaces, which no text holds
        texts = ("%-39.17g" * other.size) % tuple(v[other].tolist())
        text[other, :39] = np.frombuffer(texts.encode(), np.uint8).reshape(-1, 39)
    return buf.translate(None, b"\0 ").decode()


def _g17_layout(v: np.ndarray, zeros_of: np.ndarray, p10: np.ndarray):
    """(row, words): each value's row of _g17_tables' mask, -1 where %g does not write
    it in fixed notation, and the indices of its slot's five words in their table."""
    digits, e, ok = _g17_digits(v, p10)
    # N = D0 10^16 + 10^8 (10^4 g1 + g2) + 10^4 g3 + g4 with four groups g of four digits
    high = digits // 10**8
    lead = high // 10**8
    halves = np.empty((len(v), 2), np.intp)
    np.subtract(high, lead * 10**8, out=halves[:, 0])
    np.subtract(digits, high * 10**8, out=halves[:, 1])
    quads = halves // 10**4
    halves -= quads * 10**4
    words = np.empty((len(v), 5), np.intp)
    words[:, 0] = lead + 10**4
    words[:, 1::2], words[:, 2::2] = quads, halves
    # trailing zeros: of each half, then of the last 16 digits (16 for 10^16)
    zeros = zeros_of[halves]
    zeros += (halves == 0) * zeros_of[quads]
    zeros = zeros[:, 1] + (zeros[:, 1] == 8) * zeros[:, 0]
    row = e * 17 + (16 + 4 * 17) - zeros  # (e, significant digits)
    row += 357 * np.signbit(v)
    row[~(ok & (e >= -4) & (e <= 16))] = -1
    return row, words


def _g17_digits(v: np.ndarray, p10: np.ndarray):
    """(N, e, ok): where ok, |v| = N 10^(e - 16) rounded half to even, 10^16 <= N < 10^17.

    With p = 16 - e, 0 <= p <= 22, 10^p is exact and Dekker's product gives |v| 10^p
    as hi + lo exactly; then N = hi + rint(lo), since hi >= 2^53 is an even integer
    and |lo| <= 8.  p is first taken from np.log10 and moved by one where hi + lo
    falls outside [10^16, 10^17); an N of 10^17 is 10^16 with e + 1.  0 gives N = 0,
    e = 0 and ok; NaN, the infinities and |v| outside about [1e-6, 1e17) give not ok.
    """
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # fmax takes 0 for NaN; 0 and the infinities take 22 and 0
        p = np.fmin(np.fmax(16.0 - np.floor(np.log10(a)), 0.0), 22.0).astype(np.intp)
        hi, lo, ok = _times_p10(a, p, p10)
        redo = np.flatnonzero(~ok)  # log10 a decade off, or no 17-digit form
        if redo.size:
            p[redo] = np.clip(p[redo] + np.where(hi[redo] < 1e16, 1, -1), 0, 22)
            hi[redo], lo[redo], ok[redo] = _times_p10(a[redo], p[redo], p10)
    hi[~ok], lo[~ok] = 0.0, 0.0
    digits = hi.astype(np.int64)
    digits += np.rint(lo).astype(np.int64)
    e = np.subtract(16, p, out=p)
    roll = digits == 10**17
    digits[roll] = 10**16
    e += roll
    zero = a == 0.0
    e[zero] = 0
    return digits, e, ok | zero


def _times_p10(a, p, p10):
    """(hi, lo, ok): hi + lo = a 10^p exactly, by Dekker's product (Numer. Math. 18,
    1971), and ok where 10^16 <= hi + lo < 10^17, judged on hi and lo both."""
    c, ch, cl = p10[:, p]
    hi = a * c
    ah, al = _split(a)
    lo = ah * ch
    lo -= hi
    lo += ah * cl
    lo += al * ch
    lo += al * cl
    ok = ((hi > 1e16) | (hi == 1e16) & (lo >= 0)) & ((hi < 1e17) | (hi == 1e17) & (lo < 0))
    return hi, lo, ok


def _split(a):
    """(hi, lo) with hi + lo = a exactly, each of at most 26 significant bits (Veltkamp)."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _csv_blocks(traj: Trajectory):
    """The CSV of trajectory_csv as consecutive strings, one block of up to BLOCK_ROWS
    rows at a time, each made from a slice of ts and of table; the first block starts
    with the header line (a trajectory without rows writes the header alone).

    A block is one _g17 call over _block_values: each run of consecutive state rows
    (alpha through dist_to_eq) equal bit for bit is formatted once.  A later row of
    a run writes its t and s and a mark, which the run's state text then replaces.
    """
    k = traj.K
    cols = (
        ["t", "s"]
        + [f"alpha_{i + 1}" for i in range(k)]
        + [f"beta_{i + 1}" for i in range(k)]
        + ["L", "L_rate", "dist_to_eq"]
    )
    head = ",".join(cols) + "\n"
    for lo in range(0, traj.ts.shape[0], BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        held, repeat, values, seps = _block_values(traj.ts[rows], traj.table[rows])
        *states, body = _g17(values, seps).split("\n", int(np.count_nonzero(held)))
        parts = body.split("\x01")
        out = [None] * (2 * len(parts) - 1)
        out[0::2] = parts
        run = np.array([f",{text}\n" for text in states], dtype=object)
        out[1::2] = run[(np.cumsum(held) - 1)[repeat]].tolist()
        if head:
            out.insert(0, head)
        yield "".join(out)
        head = ""
    if head:
        yield head


def _block_values(ts: np.ndarray, state: np.ndarray):
    """(held, repeat, values, seps) for one block of _csv_blocks.

    repeat marks a row whose state is the one above's, and held a row that starts
    a run of two rows or more.  values are each held row's state, then the rows in
    order: t, s and, for a row that starts a run, its state.  seps end each state
    row in a newline and each of a repeated row's s in a mark (\x01), and are
    commas otherwise.
    """
    # bits, not ==: 0.0 and -0.0 format differently, and NaN never equals itself
    bits = state.view(np.uint64)
    repeat = np.zeros(state.shape[0], dtype=bool)
    np.all(bits[1:] == bits[:-1], axis=1, out=repeat[1:])
    start = ~repeat
    held = start & np.append(repeat[1:], False)
    pairs = np.empty((state.shape[0], 2))
    pairs[:, 0] = ts
    try:  # math.exp, not np.exp: the two can differ in the last bit
        pairs[:, 1] = np.fromiter(map(math.exp, ts.tolist()), float, ts.shape[0])
    except OverflowError:  # some t above about 709.78
        pairs[:, 1] = np.fromiter(map(_exp, ts.tolist()), float, ts.shape[0])
    marks = np.full((state.shape[0], 2), ord(","), np.uint8)
    marks[repeat, 1] = 1
    front = np.concatenate((state[held], state[start]))
    # the flat position in front of each row's t and s: after its state if it starts a run
    before = np.repeat(front.shape[1] * (np.count_nonzero(held) + np.cumsum(start) - start), 2)
    line = np.full(front.shape, ord(","), np.uint8)
    line[:, -1] = ord("\n")
    values = np.insert(front.ravel(), before, pairs.ravel())
    return held, repeat, values, np.insert(line.ravel(), before, marks.ravel())


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export: t, s, alpha_1..alpha_K, beta_1..beta_K, L, L_rate, dist_to_eq.

    Every value is written as its own `%.17g`, which round-trips exactly; the
    writer (_g17) makes those bytes with exact integer arithmetic on whole arrays.
    The state columns (alpha through dist_to_eq) are formatted once for each run of
    consecutive rows that are equal bit for bit, as a frozen trajectory's are, and
    only t and s are formatted per row.  The text is made in blocks of BLOCK_ROWS
    rows, which the CLI writes to its file one at a time; the first block carries
    the header, so a CSV of one block is that block, not a copy of it.
    """
    return "".join(_csv_blocks(traj))
