"""Configuration ingestion, subcommand dispatch, and deterministic reports.

One JSON run-config file describes an experiment.  A command has --output,
and --seed and --tol where it takes "seed" and "solver"; main writes them into
the document before the one parse.  Randomness (only k3-check's triangles)
flows from "seed", and every report is written with 17-significant-digit
floats, so identical config + seed yields byte-identical artifacts.

Exit codes: 0 success, 1 invalid input (a malformed command line too), 2
numerical failure; failures also emit a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import circulant, dynamics, equilibrium, groundstate
from .config import build_configuration, interaction_matrix, kappa_closed_form
from .errors import InvalidInput, NumericalFailure, real, reals

__all__ = ["RunConfig", "ParseError", "ValidationError", "UnknownKey", "parse_run_config", "run", "main"]

COMMANDS = ("equilibria", "simulate", "k10", "k3-check", "kappa-check")
MAX_TRIANGLES = 10**5  # cap on k3-check's n_triangles: a few ms each keeps a run to minutes


class ParseError(InvalidInput):
    """The run config is not syntactically valid JSON."""


class ValidationError(InvalidInput):
    """A required field is missing or has an unusable value."""


class UnknownKey(InvalidInput):
    """The run config contains a key the schema does not define."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is invalid input: exit 1, not 2
        raise ValidationError(message)


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    output: str | None = None
    points: np.ndarray | None = None
    solver: equilibrium.SolverOptions = equilibrium.SolverOptions()
    integrator: dynamics.IntegratorOptions = dynamics.IntegratorOptions()
    schedule: dynamics.PerturbationSchedule | None = None
    initial: dynamics.TrajectoryState | tuple | None = None  # or (index, offset) of the directive
    t_end: float | None = None
    n_triangles: int = 50


# no command takes kappa: each works at the closed form (kappa-check computes it), and a
# run at another kappa is that run rescaled; the two closed-form checks take no settings
_COMMON_KEYS = {"command", "output"}
_ALLOWED_KEYS = {
    "equilibria": _COMMON_KEYS | {"seed", "points", "solver"},
    "simulate": _COMMON_KEYS
    | {"seed", "points", "solver", "integrator", "schedule", "initial", "t_end"},
    "k10": _COMMON_KEYS,
    "k3-check": _COMMON_KEYS | {"seed", "n_triangles", "solver"},
    "kappa-check": _COMMON_KEYS,
}
# the keys that a command or a section must give
_REQUIRED = {
    "equilibria": {"points"},
    "simulate": {"points", "schedule", "initial", "t_end"},
    "schedule": {"kind"},
}
# each sub-object: the option type it builds and the keys that type takes
_SECTIONS = {
    "solver": (equilibrium.SolverOptions, {"tol", "n_random", "max_iter"}),
    "integrator": (dynamics.IntegratorOptions, {"rtol", "atol", "alpha_floor", "sample_dt"}),
    "schedule": (dynamics.PerturbationSchedule, {"kind", "amplitude", "rate", "dir1", "dir2"}),
}
_AT_EQUILIBRIUM = "start-at-equilibrium:"


def _check_keys(obj, where: str, allowed: set, required=()):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise UnknownKey(f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ValidationError(f"{where} requires {', '.join(map(json.dumps, missing))}")


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError("JSON nested too deeply") from e


def parse_run_config(document: str | dict) -> RunConfig:
    """Validate a run config given as JSON text or as its decoded object.

    Defaults are filled in and unknown keys raise UnknownKey.  Each option
    type checks its own fields; a value that cannot be converted raises
    ValidationError.  A simulate run that can never start (dynamics.check_run,
    with K the number of points, an explicit initial state included) is
    rejected too.  Only the directive's equilibrium and the points themselves
    are left to the run.
    """
    doc = _decode(document) if isinstance(document, str) else document
    if not isinstance(doc, dict):
        raise ValidationError("run config must be a JSON object")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ValidationError(f'"command" must be one of {COMMANDS}, got {command!r}')
    _check_keys(doc, f'"{command}" run config', _ALLOWED_KEYS[command], _REQUIRED.get(command, ()))
    try:
        cfg = _build(doc, command)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"unusable value in run config: {e}") from e
    if command == "simulate" and cfg.points.ndim == 2:  # other shapes fail the run's first step
        state = cfg.initial if isinstance(cfg.initial, dynamics.TrajectoryState) else None
        t0 = 0.0 if state is None else state.t  # the directive starts at t = 0
        dynamics.check_run(t0, cfg.t_end, len(cfg.points), cfg.schedule, cfg.integrator, state)
    return cfg


def _initial(value):
    """An "initial" object as a TrajectoryState, the directive as (index, offset)."""
    if isinstance(value, dict):
        _check_keys(value, '"initial"', {"t", "alpha", "beta"}, {"alpha", "beta"})
        return dynamics.TrajectoryState(
            t=real('"initial.t"', value.get("t", 0.0)),
            alpha=reals('"initial.alpha"', value["alpha"]),
            beta=reals('"initial.beta"', value["beta"]),
        )
    if isinstance(value, str) and value.startswith(_AT_EQUILIBRIUM) and value.count(",") == 1:
        index, offset = value[len(_AT_EQUILIBRIUM):].split(",")
        offset = real('"initial" offset', offset)
        if index.isdigit() and offset > -1.0:
            return int(index), offset
    raise ValidationError(
        f'"initial" must be an object or "{_AT_EQUILIBRIUM}<index>,<offset>" with an integer'
        f" index >= 0 and an offset > -1, got {value!r}"
    )


def _build(doc: dict, command: str) -> RunConfig:
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f'"seed" must be a non-negative integer, got {seed!r}')
    output = doc.get("output")
    if output is not None and (not isinstance(output, str) or "\x00" in output):
        raise ValidationError('"output" must be a string path without a NUL character')
    n = doc.get("n_triangles", 50)
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_TRIANGLES:
        raise ValidationError(
            f'"n_triangles" must be an integer from 1 to {MAX_TRIANGLES}, got {n!r}'
        )
    sections = {}
    for name, (kind, keys) in _SECTIONS.items():
        if name in doc:
            _check_keys(doc[name], f'"{name}"', keys, _REQUIRED.get(name, ()))
            sections[name] = kind(**doc[name])
    return RunConfig(
        command=command,
        seed=seed,
        output=output,
        points=reals('"points"', doc["points"]) if "points" in doc else None,
        initial=_initial(doc["initial"]) if "initial" in doc else None,
        t_end=real('"t_end"', doc["t_end"]) if "t_end" in doc else None,
        n_triangles=n,
        **sections,
    )


def _fmt(value) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return f"{v:.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _solution_record(sol: equilibrium.ReducedSolution, m) -> dict:
    lifted = equilibrium.lift(sol)
    report = equilibrium.isolation_check(sol, m)
    return {
        "x": list(sol.x),
        "a": list(lifted.a),
        "c": list(lifted.c),
        "residual_norm": sol.residual_norm,
        "tolerance": sol.tolerance,
        "isolation": asdict(report),
    }


def _solutions(m, options: equilibrium.SolverOptions) -> dict:
    """The count and solutions of an equilibria report, one _solution_record each."""
    sols = equilibrium.solve_equilibria(m, options)
    return {"count": len(sols), "solutions": [_solution_record(s, m) for s in sols]}


def _run_equilibria(cfg: RunConfig) -> None:
    conf = build_configuration(cfg.points)
    m = interaction_matrix(conf)
    doc = {
        "command": "equilibria",
        "seed": cfg.seed,
        "kappa": m.kappa,
        "K": conf.K,
        **_solutions(m, cfg.solver),
    }
    _write(cfg.output or "equilibria.json", _fmt(doc) + "\n")


def _run_simulate(cfg: RunConfig) -> None:
    conf = build_configuration(cfg.points)
    m = interaction_matrix(conf)
    state = cfg.initial
    try:
        eqs = [equilibrium.lift(s) for s in equilibrium.solve_equilibria(m, cfg.solver)]
    except equilibrium.NoSolutionFound:
        if isinstance(state, tuple):
            raise
        eqs = []
    if isinstance(state, tuple):  # start at an equilibrium: (index, offset)
        idx, offset = state
        if not idx < len(eqs):
            raise ValidationError(f"equilibrium index {idx} out of range (found {len(eqs)})")
        alpha = (1.0 + offset) * eqs[idx].a
        state = dynamics.TrajectoryState(t=0.0, alpha=alpha, beta=2.0 * alpha)
    traj = dynamics.integrate(
        state, m, cfg.schedule, cfg.t_end, cfg.integrator, equilibria=eqs or None
    )
    out_csv = cfg.output or "simulate.csv"
    _write(out_csv, dynamics.trajectory_csv(traj))

    span = float(traj.ts[-1] - traj.ts[0])
    omega = dynamics.omega_limit_estimate(traj, 0.25 * span)
    summary = {
        "command": "simulate",
        "seed": cfg.seed,
        "kappa": m.kappa,
        "K": traj.K,
        "t_end": float(traj.ts[-1]),
        "n_samples": int(traj.ts.shape[0]),
        "final_alpha": list(traj.alpha[-1]),
        "final_beta": list(traj.beta[-1]),
        "final_L": float(traj.lyapunov[-1]),
        "final_L_rate": float(traj.lyapunov_rate[-1]),
        "final_dist_to_eq": float(traj.dist_to_eq[-1]),
        "omega": asdict(omega),
    }
    root, _ = os.path.splitext(out_csv)
    _write(root + ".summary.json", _fmt(summary) + "\n")


def _run_k10(cfg: RunConfig) -> None:
    fam = circulant.build_family()
    doc = {"command": "k10", "kappa": fam.kappa, **circulant.k10_report(fam)}
    _write(cfg.output or "k10.json", _fmt(doc) + "\n")


def _random_triangle(rng: np.random.Generator) -> np.ndarray:
    # rejection-sample three well-separated points in R^5
    while True:
        pts = rng.normal(size=(3, 5))
        d = [np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        if min(d) > 0.2:
            return pts


def _run_k3_check(cfg: RunConfig) -> None:
    rng = np.random.default_rng(cfg.seed)
    triangles = []
    for _ in range(cfg.n_triangles):
        points = _random_triangle(rng)
        m = interaction_matrix(build_configuration(points))
        triangles.append({"points": points, **_solutions(m, cfg.solver)})
    n_isolated = sum(all(s["isolation"]["isolated"] for s in t["solutions"]) for t in triangles)
    doc = {
        "command": "k3-check",
        "seed": cfg.seed,
        "kappa": kappa_closed_form(),
        "n_triangles": cfg.n_triangles,
        "n_isolated": n_isolated,
        "all_isolated": n_isolated == cfg.n_triangles,
        "triangles": triangles,
    }
    _write(cfg.output or "k3_check.json", _fmt(doc) + "\n")


def _run_kappa_check(cfg: RunConfig) -> None:
    doc = {"command": "kappa-check", **asdict(groundstate.verify_kappa())}
    _write(cfg.output or "kappa_check.json", _fmt(doc) + "\n")


_RUNNERS = {
    "equilibria": _run_equilibria,
    "simulate": _run_simulate,
    "k10": _run_k10,
    "k3-check": _run_k3_check,
    "kappa-check": _run_kappa_check,
}


def run(config: RunConfig) -> int:
    """Execute a validated run config; returns the process exit code."""
    try:
        _RUNNERS[config.command](config)
    except (InvalidInput, NumericalFailure, OSError) as e:  # OSError: an unwritable output
        _emit_error(e)
        return 2 if isinstance(e, NumericalFailure) else 1
    return 0


def _emit_error(e: Exception):
    sys.stderr.write(
        json.dumps({"error": type(e).__name__, "message": str(e)}, sort_keys=True) + "\n"
    )


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="bubblefield",
        description="multi-bubble reduction toolkit: equilibria, modulation flow, spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in _ALLOWED_KEYS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--output", help="artifact path override")
        if "seed" in keys:
            p.add_argument("--seed", type=int, help="random seed override")
        if "solver" in keys:
            p.add_argument("--tol", type=float, help="solver.tol override")
    try:
        args = parser.parse_args(argv)
        doc = {"command": args.command}
        if args.config:
            if "\x00" in args.config:  # open() would raise ValueError
                raise ValidationError("--config path contains a NUL character")
            with open(args.config) as fh:
                doc = _decode(fh.read())
            if isinstance(doc, dict) and doc.setdefault("command", args.command) != args.command:
                raise ValidationError(
                    f'config file says command {doc["command"]!r} but CLI asked for {args.command!r}'
                )
        given = {k: v for k, v in vars(args).items() if v is not None}
        if isinstance(doc, dict):  # the overrides are validated with the rest of the config
            doc.update((k, given[k]) for k in ("seed", "output") if k in given)
            if "tol" in given and isinstance(doc.setdefault("solver", {}), dict):
                doc["solver"]["tol"] = given["tol"]
        cfg = parse_run_config(doc)
    except (InvalidInput, OSError, UnicodeDecodeError) as e:
        _emit_error(e)
        return 1

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
