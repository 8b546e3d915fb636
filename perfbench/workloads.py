"""One benchmark workload in a fresh interpreter: set up, run a closed loop, check.

Run by `run.py`, never by hand:

    python perfbench/workloads.py --workload NAME --seed N (--seconds S | --ops N)
                                  [--trace] [--setup-only] [--workdir DIR]

Everything before the first timed op (imports, input generation, and the
family build for flow-fine) is set-up.  One client runs a fixed number of
ops back to back, in whole cycles of the workload's op kinds: `--ops`, or
`--seconds` times the workload's `rate`, which is a little below what a
2-CPU shared VM sustains.  The count is fixed, not the time, so every run's
statistics cover the same mix of op kinds whatever the host's speed; the
tail percentile of a mixed workload would otherwise move from one kind to
another.  Each op is timed alone; its output is checked after the clock
stops.  A NumericalFailure raised by the package fails the op; a failed
output check or any other exception also marks the run incorrect.  The
worker prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np

import bubblefield as bf
from bubblefield.errors import NumericalFailure

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
K2_POINTS = [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _well_separated(rng, k):
    # the k3-check distribution: standard normal in R^5, every pairwise distance > 0.2
    iu = np.triu_indices(k, 1)
    while True:
        pts = rng.normal(size=(k, 5))
        if np.min(np.linalg.norm(pts[:, None] - pts[None], axis=-1)[iu]) > 0.2:
            return pts


class _Solve:
    """build_configuration -> interaction_matrix -> solve_equilibria -> isolation_check."""

    cycle = 1
    rate = 8.0

    def op(self, i):
        m = bf.interaction_matrix(bf.build_configuration(self.pool[i % len(self.pool)]))
        sols = bf.solve_equilibria(m)
        return m, sols, [bf.isolation_check(s, m) for s in sols]

    def check(self, i, out):
        m, sols, reports = out
        token = []
        for s, r in zip(sols, reports):
            x = s.x
            if not np.all(x > 0):
                raise CheckFailed("non-positive component")
            res = float(np.max(np.abs(6.0 * x - m.m @ x**3)))
            if not res <= s.tolerance:
                raise CheckFailed(f"residual {res:.3e} above tolerance {s.tolerance:.3e}")
            if not r.eig18_residual <= 1e-8 * 18:
                raise CheckFailed(f"eig18 residual {r.eig18_residual:.3e}")
            token += [x.tobytes(), r.eigenvalues.tobytes(), bytes([r.isolated])]
        return b"".join(token)


class TriangleSweep(_Solve):
    def __init__(self, rng):
        self.pool = [_well_separated(rng, 3) for _ in range(512)]


class ClusterSolve(_Solve):
    """K = 12, 16, 20, 24 in turn.

    A run solves only 48 of these configurations, and their solve costs
    differ widely (0.1 to 1 s), so which ones a seed drew would move the
    medians from seed to seed.  The configurations
    are therefore drawn once from a fixed stream, and the seed moves each
    by a random orthogonal map and translation of R^5: every distance, and
    so the solver's work and its NoSolutionFound failures, is the same up
    to rounding while the inputs differ.
    """

    SIZES = (12, 16, 20, 24)
    REFERENCE_SEED = 12
    cycle = len(SIZES)
    rate = 1.9

    def __init__(self, rng):
        ref = np.random.default_rng(self.REFERENCE_SEED)
        self.pool = []
        for _ in range(16):
            for k in self.SIZES:
                q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
                self.pool.append(_well_separated(ref, k) @ q + rng.normal(size=5))


class FlowFine:
    """Forced K = 2 closed-form start, then an autonomous K = 10 family member."""

    cycle = 2
    rate = 1.2

    def __init__(self, rng):
        kappa = bf.kappa_closed_form()
        self.m2 = bf.interaction_matrix(bf.build_configuration(K2_POINTS), kappa)
        self.eq2 = bf.k2_closed_form(1.0, kappa)
        self.forcing = bf.PerturbationSchedule("exponential", amplitude=0.01, rate=1.0)
        self.fam = bf.build_family(kappa)
        self.members = [
            bf.lift(bf.family_member(float(t), self.fam))
            for t in rng.uniform(0.0, 2.0 * math.pi, size=16)
        ]
        self.options = bf.IntegratorOptions(sample_dt=1e-3)

    def op(self, i):
        if i % 2 == 0:
            eq, m, schedule, t_end = self.eq2, self.m2, self.forcing, 1.0
        else:
            eq, m = self.members[(i // 2) % len(self.members)], self.fam.matrix
            schedule, t_end = bf.PerturbationSchedule("zero"), 3.5
        state = bf.TrajectoryState(t=0.0, alpha=eq.a.copy(), beta=eq.c.copy())
        traj = bf.integrate(state, m, schedule, t_end, self.options, equilibria=[eq])
        omega = bf.omega_limit_estimate(traj, 0.25 * float(traj.ts[-1] - traj.ts[0]))
        return traj, omega, bf.dynamics.trajectory_csv(traj)

    def check(self, i, out):
        traj, omega, csv = out
        cols = (traj.alpha, traj.beta, traj.lyapunov, traj.lyapunov_rate, traj.dist_to_eq)
        if not all(np.all(np.isfinite(c)) for c in cols):
            raise CheckFailed("non-finite sample")
        if i % 2 == 1:
            lyap = traj.lyapunov
            if np.any(np.diff(lyap) < -1e-9 * (1.0 + np.abs(lyap[:-1]))):
                raise CheckFailed("Lyapunov functional decreased on the autonomous flow")
            if not np.max(traj.dist_to_eq) <= 1e-6:
                raise CheckFailed(f"left the family: dist_to_eq {np.max(traj.dist_to_eq):.3e}")
        return csv.encode() + omega.box_min.tobytes() + omega.box_max.tobytes()


class Cli:
    """The README `equilibria` and `simulate` examples, `k10` and `kappa-check`."""

    cycle = 4
    rate = 2.0
    EQUILIBRIA = {"command": "equilibria", "points": K2_POINTS, "seed": 0,
                  "solver": {"tol": 1e-12, "n_random": 64}}
    SIMULATE = {"command": "simulate", "points": K2_POINTS,
                "schedule": {"kind": "exponential", "amplitude": 0.1, "rate": 1.0},
                "initial": "start-at-equilibrium:0,0.2", "t_end": 5.0,
                "integrator": {"rtol": 1e-9, "sample_dt": 0.1}}

    def __init__(self, rng, workdir, trace):
        self.workdir, self.trace = workdir, trace
        for name, doc in (("equilibria", self.EQUILIBRIA), ("simulate", self.SIMULATE)):
            with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
                json.dump(doc, fh)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=64)]
        self.spans = []

    def argv(self, i):
        seed = str(self.seeds[(i // 4) % len(self.seeds)])
        kind = i % 4
        if kind == 0:
            return ["equilibria", "--config", "equilibria.json", "--output", "out.json", "--seed", seed], 0
        if kind == 1:
            return ["simulate", "--config", "simulate.json", "--output", "out.csv", "--seed", seed], 2
        if kind == 2:
            return ["k10", "--output", "out.json"], 0
        return ["kappa-check", "--output", "out.json"], 0

    def op(self, i):
        argv, _ = self.argv(i)
        for f in ("out.json", "out.csv", "out.summary.json", "spans.json"):
            path = os.path.join(self.workdir, f)
            if os.path.exists(path):
                os.remove(path)
        if self.trace:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), "spans.json", str(i), *argv]
        else:
            cmd = [sys.executable, "-m", "bubblefield.cli", *argv]
        return subprocess.run(cmd, cwd=self.workdir, capture_output=True, timeout=120)

    def collect_spans(self):
        path = os.path.join(self.workdir, "spans.json")
        if self.trace and os.path.exists(path):
            with open(path) as fh:
                spans = json.load(fh)
            offset = len(self.spans)
            for s in spans:
                if s["parent"] is not None:
                    s["parent"] += offset
            self.spans += spans

    def check(self, i, proc):
        self.collect_spans()
        argv, expected = self.argv(i)
        if proc.returncode != expected:
            raise CheckFailed(f"{argv[0]} exited {proc.returncode}, expected {expected}: "
                              f"{proc.stderr.decode(errors='replace')[-300:]}")
        if expected == 2:
            lines = proc.stderr.decode().splitlines()
            if len(lines) != 1 or "error" not in json.loads(lines[0]):
                raise CheckFailed("numerical failure without one JSON error object on stderr")
            return proc.stderr
        with open(os.path.join(self.workdir, "out.json"), "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        if argv[0] == "equilibria" and not doc["count"] >= 1:
            raise CheckFailed("equilibria artifact lists no solution")
        if argv[0] == "k10" and not doc["max_family_residual"] <= 1e-12:
            raise CheckFailed(f"k10 max_family_residual {doc['max_family_residual']:.3e}")
        if argv[0] == "kappa-check" and not doc["rel_error"] <= 1e-6:
            raise CheckFailed(f"kappa-check rel_error {doc['rel_error']:.3e}")
        return raw


def speed_probe():
    """Seconds taken by a fixed mix of interpreter and small-array numpy work.

    It calls nothing from bubblefield, so only the speed the host gives this
    process moves it; run.py divides op times by it.
    """
    m, x, acc = np.full((4, 4), 0.1), np.ones(4), 0.0
    start = time.monotonic()
    for i in range(400):
        x = np.abs(6.0 * x - m @ x**3) / 7.0 + 0.1
        acc += float(np.max(x)) * (i % 3)
    return time.monotonic() - start


WORKLOADS = {
    "triangle-sweep": TriangleSweep,
    "cluster-solve": ClusterSolve,
    "flow-fine": FlowFine,
    "cli": Cli,
}


def environment(seed):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", default=None)
    args = p.parse_args(argv)

    tracer = None
    if args.trace and args.workload != "cli":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cls = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    wl = cls(rng, args.workdir, args.trace) if cls is Cli else cls(rng)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready, "probes_s": [speed_probe() for _ in range(3)]}))
        return 0

    latencies, probes, tokens, failures, incorrect = [], [], [], {}, []
    n_ops = args.ops or max(11, round(args.seconds * wl.rate))
    n_ops = wl.cycle * math.ceil(n_ops / wl.cycle)
    t0 = time.monotonic()
    for i in range(n_ops):
        if tracer is not None:
            tracer.op = i
        start = time.monotonic()
        try:
            out, error = wl.op(i), None
        except Exception as e:
            error = e
        latencies.append(time.monotonic() - start)
        if error is None:
            try:
                tokens.append(hashlib.sha256(wl.check(i, out)).hexdigest()[:16])
            except Exception as e:
                error = e
        if error is not None:
            # a NumericalFailure is a failure with its reason; anything else is a wrong answer
            name = type(error).__name__
            tokens.append(name)
            failures[name] = failures.get(name, 0) + 1
            if not isinstance(error, NumericalFailure):
                incorrect.append(f"op {i}: {name}: {error}")
        probes.append(speed_probe())
    wall = time.monotonic() - t0

    who = resource.RUSAGE_CHILDREN if cls is Cli else resource.RUSAGE_SELF
    result = {
        "cycle": wl.cycle,
        "t_ready": t_ready,
        "wall_s": wall,
        "latencies_s": latencies,
        "probes_s": probes,
        "tokens": tokens,
        "failures": failures,
        "incorrect": incorrect,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    }
    if args.trace:
        spans = wl.spans if cls is Cli else tracer.dump()
        result["spans"] = spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
