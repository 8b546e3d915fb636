"""Configuration ingestion, subcommand dispatch, and deterministic reports.

One JSON run-config file describes an experiment.  Each command is one row of
_COMMANDS: its runner, its default artifact, the keys it takes and the keys it
requires.  A command has --output, and --seed and --tol where it takes "seed"
and "solver"; main writes them into the document before the one parse.  A
runner returns its report and run writes it, with the "command" echoed, at
17-significant-digit floats, so identical config + seed yields byte-identical
artifacts.

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
from .config import build_configuration, interaction_matrix
from .errors import InvalidInput, NumericalFailure, real, reals

__all__ = ["RunConfig", "ParseError", "ValidationError", "UnknownKey", "parse_run_config", "run", "main"]


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


# each sub-object: the option type it builds, the keys that type takes and those it requires
_SECTIONS = {
    "solver": (equilibrium.SolverOptions, {"tol", "n_random"}, ()),
    "integrator": (dynamics.IntegratorOptions, {"rtol", "atol", "alpha_floor", "sample_dt"}, ()),
    "schedule": (
        dynamics.PerturbationSchedule, {"kind", "amplitude", "rate", "dir1", "dir2"}, {"kind"}
    ),
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
    _, _, keys, required = _row(command)
    _check_keys(doc, f'"{command}" run config', keys | {"command", "output"}, required)
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
        offset = real('"initial" offset', float(offset))  # the text itself: real() takes no str
        if index.isdigit() and offset > -1.0:
            return int(index), offset
    raise ValidationError(
        f'"initial" must be an object or "{_AT_EQUILIBRIUM}<index>,<offset>" with an integer'
        f" index >= 0 and an offset > -1, got {value!r}"
    )


def _build(doc: dict, command: str) -> RunConfig:
    seed = doc.get("seed", RunConfig.seed)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f'"seed" must be a non-negative integer, got {seed!r}')
    output = doc.get("output")
    if output is not None and (not isinstance(output, str) or "\x00" in output):
        raise ValidationError('"output" must be a string path without a NUL character')
    sections = {}
    for name, (kind, keys, required) in _SECTIONS.items():
        if name in doc:
            _check_keys(doc[name], f'"{name}"', keys, required)
            sections[name] = kind(**doc[name])
    return RunConfig(
        command=command,
        seed=seed,
        output=output,
        points=reals('"points"', doc["points"]) if "points" in doc else None,
        initial=_initial(doc["initial"]) if "initial" in doc else None,
        t_end=real('"t_end"', doc["t_end"]) if "t_end" in doc else None,
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


def _write(path: str, text):
    """Write text, a string or an iterable of strings written as each is made, to path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
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


def _run_equilibria(cfg: RunConfig, path: str) -> tuple[str, dict]:
    conf = build_configuration(cfg.points)
    m = interaction_matrix(conf)
    sols = [_solution_record(s, m) for s in equilibrium.solve_equilibria(m, cfg.solver)]
    return path, {
        "seed": cfg.seed, "kappa": m.kappa, "K": conf.K, "count": len(sols), "solutions": sols
    }


def _run_simulate(cfg: RunConfig, path: str) -> tuple[str, dict]:
    """Stream the trajectory CSV to path; the report is the summary beside it."""
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
    _write(path, dynamics._csv_blocks(traj))  # block by block: no whole CSV is held

    span = float(traj.ts[-1] - traj.ts[0])
    omega = dynamics.omega_limit_estimate(traj, 0.25 * span)
    summary = {
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
    return os.path.splitext(path)[0] + ".summary.json", summary


def _run_k10(cfg: RunConfig, path: str) -> tuple[str, dict]:
    fam = circulant.build_family()
    return path, {"kappa": fam.matrix.kappa, **circulant.k10_report(fam)}


def _run_kappa_check(cfg: RunConfig, path: str) -> tuple[str, dict]:
    return path, asdict(groundstate.verify_kappa())


# name: (runner, default artifact, keys besides "command" and "output", required keys);
# no command takes kappa: each works at the closed form (kappa-check computes it), and a
# run at another kappa is that run rescaled; the two closed-form checks take no settings
_COMMANDS = {
    "equilibria": (_run_equilibria, "equilibria.json", {"seed", "points", "solver"}, {"points"}),
    "simulate": (
        _run_simulate,
        "simulate.csv",
        {"seed", "points", "solver", "integrator", "schedule", "initial", "t_end"},
        {"points", "schedule", "initial", "t_end"},
    ),
    "k10": (_run_k10, "k10.json", set(), ()),
    "kappa-check": (_run_kappa_check, "kappa_check.json", set(), ()),
}


def _row(command):
    """The _COMMANDS row of command; ValidationError if it names no command."""
    if not isinstance(command, str) or command not in _COMMANDS:  # a list is unhashable
        raise ValidationError(f'"command" must be one of {tuple(_COMMANDS)}, got {command!r}')
    return _COMMANDS[command]


def run(config: RunConfig) -> int:
    """Execute a validated run config and write its report; returns the process exit code."""
    try:
        runner, default = _row(config.command)[:2]
        path, report = runner(config, config.output or default)
        _write(path, _fmt({"command": config.command, **report}) + "\n")
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
    for name, (_, _, keys, _) in _COMMANDS.items():
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
