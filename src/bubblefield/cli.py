"""Configuration ingestion, subcommand dispatch, and deterministic reports.

One JSON run-config file describes an experiment; a handful of flags
(--output, --seed, --tol) override it.  All randomness (the k3-check
triangles; the equilibrium solver draws none) flows from the single "seed"
field and every report is written with 17-significant-digit floats, so
identical config + seed yields byte-identical artifacts.

Exit codes: 0 success, 1 invalid input, 2 numerical failure; failures also
emit a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import circulant, dynamics, equilibrium, groundstate
from .config import build_configuration, interaction_matrix, kappa_closed_form
from .errors import InvalidInput, NumericalFailure

__all__ = ["RunConfig", "ParseError", "ValidationError", "UnknownKey", "parse_run_config", "run", "main"]

COMMANDS = ("equilibria", "simulate", "k10", "k3-check", "kappa-check")


class ParseError(InvalidInput):
    """The run config is not syntactically valid JSON."""


class ValidationError(InvalidInput):
    """A required field is missing or has an unusable value."""


class UnknownKey(InvalidInput):
    """The run config contains a key the schema does not define."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    kappa: float | None = None
    output: str | None = None
    points: np.ndarray | None = None
    solver: equilibrium.SolverOptions = equilibrium.SolverOptions()
    integrator: dynamics.IntegratorOptions = dynamics.IntegratorOptions()
    schedule: dynamics.PerturbationSchedule | None = None
    initial: dynamics.TrajectoryState | str | None = None  # or "start-at-equilibrium:i,offset"
    t_end: float | None = None
    n_triangles: int = 50
    quadrature: groundstate.QuadratureSpec = groundstate.QuadratureSpec()


_COMMON_KEYS = {"command", "seed", "kappa", "output"}
_ALLOWED_KEYS = {
    "equilibria": _COMMON_KEYS | {"points", "solver"},
    "simulate": _COMMON_KEYS | {"points", "solver", "integrator", "schedule", "initial", "t_end"},
    "k10": _COMMON_KEYS,
    "k3-check": _COMMON_KEYS | {"n_triangles", "solver"},
    "kappa-check": _COMMON_KEYS | {"quadrature"},
}
_SOLVER_KEYS = {"tol", "dedup_radius", "n_random", "max_iter"}
_INTEGRATOR_KEYS = {"rtol", "atol", "alpha_floor", "sample_dt", "max_step"}
_SCHEDULE_KEYS = {"kind", "amplitude", "rate", "dir1", "dir2"}
_QUADRATURE_KEYS = {"r_max", "n_panels"}


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise UnknownKey(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _sub_object(doc: dict, key: str, allowed: set) -> dict:
    obj = doc.get(key, {})
    if not isinstance(obj, dict):
        raise ValidationError(f'"{key}" must be an object')
    _check_keys(obj, allowed, f'"{key}"')
    return obj


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
    ValidationError.
    """
    doc = _decode(document) if isinstance(document, str) else document
    if not isinstance(doc, dict):
        raise ValidationError("run config must be a JSON object")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ValidationError(f'"command" must be one of {COMMANDS}, got {command!r}')
    _check_keys(doc, _ALLOWED_KEYS[command], "run config")
    try:
        return _build(doc, command)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"unusable value in run config: {e}") from e


def _build(doc: dict, command: str) -> RunConfig:
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f'"seed" must be a non-negative integer, got {seed!r}')
    kappa = doc.get("kappa")
    if kappa is not None:
        kappa = float(kappa)
        if not (kappa > 0 and math.isfinite(kappa)):
            raise ValidationError(f'"kappa" must be positive and finite, got {kappa}')
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ValidationError('"output" must be a string path')

    sol = _sub_object(doc, "solver", _SOLVER_KEYS)
    cfg = RunConfig(
        command=command,
        seed=seed,
        kappa=kappa,
        output=output,
        solver=equilibrium.SolverOptions(**sol),
    )

    if command == "simulate":
        for key in ("schedule", "initial", "t_end"):
            if key not in doc:
                raise ValidationError(f'"simulate" requires "{key}"')
        sch = _sub_object(doc, "schedule", _SCHEDULE_KEYS)
        if "kind" not in sch:
            raise ValidationError('"schedule" requires "kind"')
        initial = doc["initial"]
        if isinstance(initial, dict):
            _check_keys(initial, {"t", "alpha", "beta"}, '"initial"')
            if "alpha" not in initial or "beta" not in initial:
                raise ValidationError('"initial" needs "alpha" and "beta"')
            initial = dynamics.TrajectoryState(
                t=float(initial.get("t", 0.0)),
                alpha=np.asarray(initial["alpha"], dtype=float),
                beta=np.asarray(initial["beta"], dtype=float),
            )
        elif not (isinstance(initial, str) and initial.startswith("start-at-equilibrium:")):
            raise ValidationError(
                '"initial" must be an object or "start-at-equilibrium:<index>,<offset>"'
            )
        cfg = replace(
            cfg,
            schedule=dynamics.PerturbationSchedule(**sch),
            initial=initial,
            t_end=float(doc["t_end"]),
            integrator=dynamics.IntegratorOptions(
                **_sub_object(doc, "integrator", _INTEGRATOR_KEYS)
            ),
        )

    if command in ("equilibria", "simulate"):
        if "points" not in doc:
            raise ValidationError(f'"{command}" requires "points"')
        cfg = replace(cfg, points=np.asarray(doc["points"], dtype=float))

    if command == "k3-check":
        n = doc.get("n_triangles", 50)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError(f'"n_triangles" must be a positive integer, got {n!r}')
        cfg = replace(cfg, n_triangles=n)

    if command == "kappa-check":
        quad = _sub_object(doc, "quadrature", _QUADRATURE_KEYS)
        cfg = replace(cfg, quadrature=groundstate.QuadratureSpec(**quad))

    return cfg


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
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
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
        "isolation": {k: v for k, v in asdict(report).items() if k != "a_matrix"},
    }


def _run_equilibria(cfg: RunConfig) -> None:
    conf = build_configuration(cfg.points)
    m = interaction_matrix(conf, cfg.kappa)
    sols = equilibrium.solve_equilibria(m, cfg.solver)
    doc = {
        "command": "equilibria",
        "seed": cfg.seed,
        "kappa": m.kappa,
        "K": conf.K,
        "count": len(sols),
        "solutions": [_solution_record(s, m) for s in sols],
    }
    _write(cfg.output or "equilibria.json", _fmt(doc) + "\n")


def _run_simulate(cfg: RunConfig) -> None:
    conf = build_configuration(cfg.points)
    m = interaction_matrix(conf, cfg.kappa)
    state = cfg.initial
    at_equilibrium = isinstance(state, str)
    if at_equilibrium:
        try:
            idx_s, off_s = state[len("start-at-equilibrium:"):].split(",")
            idx, offset = int(idx_s), float(off_s)
        except ValueError as e:
            raise ValidationError(f"bad start-at-equilibrium directive: {state!r}") from e
    try:
        eqs = [equilibrium.lift(s) for s in equilibrium.solve_equilibria(m, cfg.solver)]
    except equilibrium.NoSolutionFound:
        if at_equilibrium:
            raise
        eqs = []
    if at_equilibrium:
        if not 0 <= idx < len(eqs):
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
    fam = circulant.build_family(cfg.kappa)
    _write(cfg.output or "k10.json", _fmt(circulant.k10_report(fam)) + "\n")


def _random_triangle(rng: np.random.Generator) -> np.ndarray:
    # rejection-sample three well-separated points in R^5
    while True:
        pts = rng.normal(size=(3, 5))
        d = [np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        if min(d) > 0.2:
            return pts


def _run_k3_check(cfg: RunConfig) -> None:
    rng = np.random.default_rng(cfg.seed)
    kappa = cfg.kappa if cfg.kappa is not None else kappa_closed_form()
    triangles = []
    n_isolated = 0
    for _ in range(cfg.n_triangles):
        conf = build_configuration(_random_triangle(rng))
        m = interaction_matrix(conf, kappa)
        sols = equilibrium.solve_equilibria(m, cfg.solver)
        reports = [equilibrium.isolation_check(s, m) for s in sols]
        all_isolated = all(r.isolated for r in reports)
        n_isolated += all_isolated
        triangles.append(
            {
                "n_solutions": len(sols),
                "isolated": all_isolated,
                "det_shifts": [r.det_shift for r in reports],
                "sign_patterns": [r.sign_pattern for r in reports],
                "eig18_residuals": [r.eig18_residual for r in reports],
                "min_abs_det_shift": min(abs(r.det_shift) for r in reports),
                "min_eig_gap_to_6": min(float(np.min(np.abs(6.0 - r.eigenvalues))) for r in reports),
            }
        )
    doc = {
        "command": "k3-check",
        "seed": cfg.seed,
        "kappa": kappa,
        "n_triangles": cfg.n_triangles,
        "n_isolated": n_isolated,
        "all_isolated": n_isolated == cfg.n_triangles,
        "triangles": triangles,
    }
    _write(cfg.output or "k3_check.json", _fmt(doc) + "\n")


def _run_kappa_check(cfg: RunConfig) -> None:
    report = groundstate.verify_kappa(cfg.quadrature)
    doc = {"command": "kappa-check", **asdict(report), "quadrature": asdict(cfg.quadrature)}
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
    except InvalidInput as e:
        _emit_error(e)
        return 1
    except NumericalFailure as e:
        _emit_error(e)
        return 2
    return 0


def _emit_error(e: Exception):
    sys.stderr.write(
        json.dumps({"error": type(e).__name__, "message": str(e)}, sort_keys=True) + "\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bubblefield",
        description="multi-bubble reduction toolkit: equilibria, modulation flow, spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--output", help="artifact path override")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--tol", type=float, help="solver.tol override")
    args = parser.parse_args(argv)

    try:
        doc = {"command": args.command}
        if args.config:
            with open(args.config) as fh:
                doc = _decode(fh.read())
            if isinstance(doc, dict) and doc.setdefault("command", args.command) != args.command:
                raise ValidationError(
                    f'config file says command {doc["command"]!r} but CLI asked for {args.command!r}'
                )
        if args.seed is not None and isinstance(doc, dict):
            doc["seed"] = args.seed  # validated with the rest of the config
        cfg = parse_run_config(doc)
        if args.output is not None:
            cfg = replace(cfg, output=args.output)
        if args.tol is not None:
            if "solver" not in _ALLOWED_KEYS[args.command]:
                raise ValidationError(f"--tol does not apply to {args.command}")
            cfg = replace(cfg, solver=replace(cfg.solver, tol=args.tol))
    except (InvalidInput, OSError, UnicodeDecodeError) as e:
        _emit_error(e)
        return 1

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
