import copy
import json
import math
import pathlib
import re
from dataclasses import replace

import pytest

from bubblefield import cli
from bubblefield.cli import (
    ParseError,
    RunConfig,
    UnknownKey,
    ValidationError,
    main,
    parse_run_config,
    run,
)
from bubblefield.config import build_configuration, interaction_matrix
from bubblefield.errors import InvalidInput

K2_POINTS = [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def cfg_text(**kw):
    return json.dumps(kw)


def test_parse_minimal_equilibria():
    cfg = parse_run_config(cfg_text(command="equilibria", points=K2_POINTS))
    assert cfg.command == "equilibria"
    assert cfg.seed == 0
    assert cfg.solver.tol == 1e-12
    # a decoded object parses too, and numeric strings convert
    cfg = parse_run_config(
        {"command": "equilibria", "points": K2_POINTS, "solver": {"tol": "1e-10"}}
    )
    assert cfg.solver.tol == 1e-10


def test_parse_k10_needs_no_points():
    cfg = parse_run_config(cfg_text(command="k10"))
    assert cfg.command == "k10"
    assert cfg.points is None and cfg.kappa is None


def test_parse_points_and_kappa(kappa):
    cfg = parse_run_config(cfg_text(command="equilibria", points=K2_POINTS))
    # a missing kappa means the closed form
    assert cfg.kappa is None
    assert interaction_matrix(build_configuration(cfg.points), cfg.kappa).kappa == kappa
    assert cfg.points.shape == (2, 5)
    cfg = parse_run_config(cfg_text(command="equilibria", points=K2_POINTS, kappa=6.0))
    assert cfg.kappa == 6.0
    with pytest.raises(ValidationError):
        parse_run_config(cfg_text(command="equilibria", kappa=1.0))
    with pytest.raises(ValidationError):
        parse_run_config(cfg_text(command="equilibria", points=K2_POINTS, kappa=-3))


def test_parse_rejects_bad_documents():
    with pytest.raises(ParseError) as e:
        parse_run_config("{not json")
    assert "line 1" in str(e.value)
    with pytest.raises(ParseError):
        parse_run_config("[" * 100000)
    with pytest.raises(ValidationError):
        parse_run_config(cfg_text(command="fly"))
    with pytest.raises(ValidationError) as e:
        parse_run_config(cfg_text(command="simulate", points=K2_POINTS))
    assert "schedule" in str(e.value)
    with pytest.raises(UnknownKey):
        parse_run_config(cfg_text(command="equilibria", points=K2_POINTS, foo=1))
    with pytest.raises(UnknownKey):
        parse_run_config(
            cfg_text(command="equilibria", points=K2_POINTS, solver={"bogus": 1})
        )
    with pytest.raises(ValidationError):
        parse_run_config(cfg_text(command="equilibria", points=K2_POINTS, seed=-1))
    with pytest.raises(ValidationError):
        parse_run_config(cfg_text(command="equilibria", points=K2_POINTS, kappa=0.0))


def test_parse_simulate_full():
    cfg = parse_run_config(
        cfg_text(
            command="simulate",
            points=K2_POINTS,
            schedule={"kind": "exponential", "amplitude": 0.1, "rate": 1.0},
            initial="start-at-equilibrium:0,0.2",
            t_end=5.0,
            integrator={"rtol": 1e-8},
        )
    )
    assert cfg.schedule.kind == "exponential"
    assert cfg.integrator.rtol == 1e-8
    assert cfg.t_end == 5.0
    with pytest.raises(ValidationError):
        parse_run_config(
            cfg_text(
                command="simulate",
                points=K2_POINTS,
                schedule={"kind": "zero"},
                initial={"alpha": [1, 1]},
                t_end=1.0,
            )
        )


def test_equilibria_artifact(tmp_path, kappa):
    out = tmp_path / "eq.json"
    code = run(
        parse_run_config(
            cfg_text(command="equilibria", points=K2_POINTS, output=str(out))
        )
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 1
    a = doc["solutions"][0]["a"]
    assert abs(a[0] - 6.0 / kappa) <= 1e-10 * (6.0 / kappa)
    assert doc["solutions"][0]["isolation"]["isolated"] is True


def test_equilibria_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run(
            parse_run_config(
                cfg_text(command="equilibria", points=K2_POINTS, seed=5, output=str(out))
            )
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_artifacts_and_determinism(tmp_path):
    doc = cfg_text(
        command="simulate",
        points=K2_POINTS,
        schedule={"kind": "zero"},
        initial="start-at-equilibrium:0,0.0",
        t_end=2.0,
        seed=3,
    )
    blobs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        cfg = replace(parse_run_config(doc), output=str(out))
        assert run(cfg) == 0
        blobs.append(out.read_bytes())
        summary = json.loads((tmp_path / (name[:-4] + ".summary.json")).read_text())
        assert summary["final_dist_to_eq"] <= 1e-9
        assert summary["n_samples"] == 21
    assert blobs[0] == blobs[1]
    header = blobs[0].decode().split("\n")[0]
    assert header == "t,s,alpha_1,alpha_2,beta_1,beta_2,L,L_rate,dist_to_eq"


def test_k10_artifact(tmp_path):
    out = tmp_path / "k10.json"
    assert run(parse_run_config(cfg_text(command="k10", output=str(out)))) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"B0", "lambda", "a", "b", "max_family_residual", "kernel_residual"}
    assert 4.70 < doc["B0"] < 4.71


def test_k3_check_artifact(tmp_path):
    out = tmp_path / "k3.json"
    cfg = parse_run_config(cfg_text(command="k3-check", n_triangles=5, seed=1, output=str(out)))
    assert run(cfg) == 0
    doc = json.loads(out.read_text())
    assert doc["n_triangles"] == 5
    assert doc["all_isolated"] is True
    for tri in doc["triangles"]:
        assert set(tri["sign_patterns"]) == {"--+"}
        assert tri["min_abs_det_shift"] > 1e-6


def test_kappa_check_artifact(tmp_path):
    out = tmp_path / "kc.json"
    assert run(parse_run_config(cfg_text(command="kappa-check", output=str(out)))) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "command",
        "integral_w73",
        "norm_lw_sq",
        "kappa_quadrature",
        "kappa_closed",
        "rel_error",
        "quadrature",
    }
    assert set(doc["quadrature"]) == {"r_max", "n_panels"}
    assert doc["rel_error"] <= 1e-6
    assert doc["kappa_closed"] == pytest.approx(22.5427910971, abs=1e-9)


def test_validation_exit_code(tmp_path, capsys):
    # duplicate points -> exit 1 with a structured error on stderr
    cfg = parse_run_config(
        cfg_text(command="equilibria", points=[K2_POINTS[0], K2_POINTS[0]])
    )
    assert run(cfg) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "DuplicatePoints"


def test_numerical_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = parse_run_config(
        cfg_text(
            command="simulate",
            points=K2_POINTS,
            schedule={"kind": "exponential", "amplitude": 0.1, "rate": 1.0},
            initial="start-at-equilibrium:0,0.2",
            t_end=40.0,
        )
    )
    assert run(cfg) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] in ("StepUnderflow", "AlphaCollapse")


def test_main_end_to_end(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(cfg_text(command="equilibria", points=K2_POINTS))
    out = tmp_path / "out.json"
    assert main(["equilibria", "--config", str(conf), "--output", str(out)]) == 0
    assert out.exists()
    # command mismatch between flag and file
    assert main(["k10", "--config", str(conf)]) == 1
    err = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
    assert err["error"] == "ValidationError"
    # the tol override sets solver.tol, so it does not apply to k10 or kappa-check
    assert main(["kappa-check", "--tol", "1e-9"]) == 1
    assert main(["k10", "--tol", "1e-9"]) == 1
    assert json.loads(capsys.readouterr().err.strip().split("\n")[-1])["error"] == "ValidationError"
    # a config file that is not UTF-8 text
    conf.write_bytes(b"\xff\xfe\x00")
    assert main(["equilibria", "--config", str(conf)]) == 1


def test_equilibria_on_a_widely_spaced_triangle(tmp_path):
    # the residual there is large in absolute terms but within the solver's relative bound
    side = 1e30
    pts = [[0, 0, 0, 0, 0], [side, 0, 0, 0, 0], [side / 2, side * math.sqrt(3.0) / 2, 0, 0, 0]]
    conf = tmp_path / "run.json"
    conf.write_text(cfg_text(command="equilibria", points=pts))
    out = tmp_path / "out.json"
    assert main(["equilibria", "--config", str(conf), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 1
    assert doc["solutions"][0]["isolation"]["isolated"]


def test_main_seed_override(tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(cfg_text(command="k3-check", n_triangles=2))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["k3-check", "--config", str(conf), "--output", str(a), "--seed", "7"]) == 0
    assert main(["k3-check", "--config", str(conf), "--output", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["k3-check", "--config", str(conf), "--output", str(c), "--seed", "8"]) == 0
    assert json.loads(a.read_text())["seed"] == 7
    assert json.loads(c.read_text())["seed"] == 8


AT_EQ = {"initial": "start-at-equilibrium:0,0.0", "t_end": 1}
MALFORMED = {
    "tol-not-a-number": {"command": "equilibria", "points": K2_POINTS, "solver": {"tol": "abc"}},
    "tol-negative": {"command": "equilibria", "points": K2_POINTS, "solver": {"tol": -1}},
    "n_random-negative": {"command": "equilibria", "points": K2_POINTS, "solver": {"n_random": -5}},
    "max_iter-zero": {"command": "equilibria", "points": K2_POINTS, "solver": {"max_iter": 0}},
    "dedup_radius-list": {
        "command": "equilibria", "points": K2_POINTS, "solver": {"dedup_radius": [1]}
    },
    "kappa-string": {"command": "equilibria", "points": K2_POINTS, "kappa": "x"},
    "points-string": {"command": "equilibria", "points": "abc"},
    "points-ragged": {"command": "equilibria", "points": [[0, 0, 0, 0, 0], [1, 0, 0]]},
    "amplitude-string": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "exponential", "amplitude": "big"},
    },
    "t_end-string": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "zero"}, "t_end": "soon",
    },
    "rtol-list": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "zero"}, "integrator": {"rtol": [1]},
    },
    "initial-beta-string": {
        "command": "simulate", "points": K2_POINTS, "schedule": {"kind": "zero"}, "t_end": 1,
        "initial": {"alpha": [1, 1], "beta": "x"},
    },
    "dir1-string": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "power", "amplitude": 0.1, "rate": 1.0, "dir1": "ab"},
    },
    "bracket-string": {"command": "k10", "bracket": ["a", 1]},
    "root-tol-string": {"command": "k10", "tol": "x"},
    "n_panels-fraction": {"command": "kappa-check", "quadrature": {"n_panels": 100.5}},
    "r_max-string": {"command": "kappa-check", "quadrature": {"r_max": "x"}},
    "tol-null": {"command": "k3-check", "solver": {"tol": None}},
    "initial-alpha-scalar": {
        "command": "simulate", "points": K2_POINTS, "schedule": {"kind": "zero"}, "t_end": 1,
        "initial": {"alpha": 1, "beta": 2},
    },
    "max_step-zero": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "zero"}, "integrator": {"max_step": 0},
    },
    "t_end-infinite": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "zero"}, "t_end": math.inf,
    },
    "bracket-reversed": {"command": "k10", "bracket": [4.71, 4.70]},
    "root-tol-negative": {"command": "k10", "tol": -1},
    "r_max-infinite": {"command": "kappa-check", "quadrature": {"r_max": math.inf}},
    "couplings-underflow": {"command": "equilibria", "points": [[0] * 5, [1e110, 0, 0, 0, 0]]},
    "seed-cube-overflow": {"command": "equilibria", "points": [[0] * 5, [1e100, 0, 0, 0, 0]]},
    "couplings-overflow": {
        "command": "equilibria", "kappa": 1e300, "points": [[0] * 5, [1e-3, 0, 0, 0, 0]]
    },
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_1(doc, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps(doc))
    assert main([doc["command"], "--config", str(conf)]) == 1
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


# one valid config per command with every settable field present
FULL_CONFIGS = [
    {
        "command": "equilibria", "seed": 1, "kappa": 20.0, "output": "eq.json",
        "points": K2_POINTS,
        "solver": {"tol": 1e-12, "dedup_radius": 1e-6, "n_random": 4, "max_iter": 50},
    },
    {
        "command": "simulate", "points": K2_POINTS, "t_end": 1.0,
        "schedule": {
            "kind": "power", "amplitude": 0.1, "rate": 1.0, "dir1": [1, 0], "dir2": [0, 1]
        },
        "initial": {"t": 0, "alpha": [1, 1], "beta": [2, 2]},
        "integrator": {
            "rtol": 1e-9, "atol": 1e-12, "alpha_floor": 1e-8, "sample_dt": 0.1, "max_step": 1.0
        },
    },
    {"command": "k10", "seed": 1, "kappa": 20.0, "output": "k10.json"},
    {"command": "k3-check", "n_triangles": 2, "solver": {"tol": 1e-12}},
    {
        "command": "kappa-check",
        "quadrature": {"r_max": 100.0, "n_panels": 64},
    },
]


def _with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def test_parse_never_raises_outside_invalid_input():
    # the property targets the parser, not main, so no generated config starts a run
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    words = st.text(max_size=6) | st.sampled_from(["1e-9", "zero", "start-at-equilibrium:0,1"])
    # JSON allows integers too large for a float
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.just(10**400) | words
    json_values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(words, inner, max_size=3),
        max_leaves=10,
    )
    # a valid config with one field replaced or added, at the top level or in a section
    paths = [
        (i, (k,) + sub)
        for i, doc in enumerate(FULL_CONFIGS)
        for k, v in list(doc.items()) + [("extra", None)]
        for sub in [()] + ([(s,) for s in [*v, "extra"]] if isinstance(v, dict) else [])
    ]
    documents = st.tuples(st.sampled_from(paths), scalars | json_values).map(
        lambda pv: _with_value(FULL_CONFIGS[pv[0][0]], pv[0][1], pv[1])
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(documents)
    def check(doc):
        try:
            assert isinstance(parse_run_config(doc), RunConfig)
        except InvalidInput:
            pass

    for doc in FULL_CONFIGS:
        parse_run_config(doc)
    check()


def _readme_table_keys() -> dict:
    """Config keys per command as the README CLI table lists them."""
    keys = {c: set() for c in cli.COMMANDS}
    for line in README.read_text().splitlines():
        if line.startswith("| `"):
            names, commands = line.split("|")[1:3]
            commands = commands.strip()
            for c in cli.COMMANDS if commands == "all" else commands.split(", "):
                keys[c] |= set(re.findall(r"`([^`]+)`", names))
    return keys


def test_readme_config_table_matches_parser():
    sections = {
        "solver": cli._SOLVER_KEYS,
        "integrator": cli._INTEGRATOR_KEYS,
        "schedule": cli._SCHEDULE_KEYS,
        "quadrature": cli._QUADRATURE_KEYS,
    }
    documented = _readme_table_keys()
    for command, allowed in cli._ALLOWED_KEYS.items():
        accepted = {f"{k}.{sub}" for k in allowed & sections.keys() for sub in sections[k]}
        assert documented[command] == accepted | (allowed - sections.keys()), command


def test_readme_json_examples_parse():
    examples = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert examples
    for text in examples:
        assert isinstance(parse_run_config(text), RunConfig)
