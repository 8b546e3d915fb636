import copy
import json
import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

import bubblefield
from bubblefield import cli, dynamics, equilibrium
from bubblefield.cli import (
    ParseError,
    RunConfig,
    UnknownKey,
    ValidationError,
    main,
    parse_run_config,
    run,
)
from bubblefield.config import build_configuration, interaction_matrix, kappa_closed_form
from bubblefield.equilibrium import lift, solve_equilibria
from bubblefield.errors import InvalidInput

from conftest import assert_same_text

K2_POINTS = [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]
TRIANGLE_POINTS = [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0.5, math.sqrt(3.0) / 2.0, 0, 0, 0]]
ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# an isolation record is the spectrum and the certificate, each stated once
ISOLATION_KEYS = {
    "eigenvalues", "eig18_residual", "isolated", "existence_radius", "uniqueness_radius",
}
OMEGA_KEYS = {"window", "t_start", "box_min", "box_max", "diameter"}


def cfg_text(**kw):
    return json.dumps(kw)


def test_parse_minimal_equilibria():
    cfg = parse_run_config(cfg_text(command="equilibria", points=K2_POINTS))
    assert cfg.command == "equilibria"
    assert cfg.seed == 0
    assert cfg.solver.tol == 1e-12
    # a decoded object parses too, but a number given as text is rejected
    cfg = parse_run_config({"command": "equilibria", "points": K2_POINTS, "solver": {"tol": 1e-10}})
    assert cfg.solver.tol == 1e-10
    with pytest.raises(InvalidInput, match="not text"):
        parse_run_config({"command": "equilibria", "points": K2_POINTS, "solver": {"tol": "1e-10"}})


def test_parse_k10_needs_no_points():
    cfg = parse_run_config(cfg_text(command="k10"))
    assert cfg.command == "k10"
    assert cfg.points is None


def test_parse_points_and_kappa(tmp_path, kappa):
    cfg = parse_run_config(cfg_text(command="equilibria", points=K2_POINTS))
    assert cfg.points.shape == (2, 5)
    # no command takes kappa: a run at another kappa is the closed-form run rescaled
    for doc in FULL_CONFIGS:
        with pytest.raises(UnknownKey):
            parse_run_config({**doc, "kappa": 6.0})
    out = tmp_path / "eq.json"
    assert run(replace(cfg, output=str(out))) == 0
    assert json.loads(out.read_text())["kappa"] == kappa


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
    with pytest.raises(UnknownKey):  # a decoded object need not have string keys
        parse_run_config({"command": "k10", 1: 2, "seed": 0})
    with pytest.raises(ValidationError):
        parse_run_config(cfg_text(command="equilibria", points=K2_POINTS, seed=-1))
    # a document or a section that is not an object
    for text in ("[]", "5", "null", '"equilibria"'):
        with pytest.raises(ValidationError, match="run config must be a JSON object"):
            parse_run_config(text)
    with pytest.raises(ValidationError, match='"solver" must be an object'):
        parse_run_config(cfg_text(command="equilibria", points=K2_POINTS, solver=[1]))


@pytest.mark.parametrize(
    "command",
    [["k10"], {"name": "k10"}, 3, None, True],
    ids=["list", "object", "number", "null", "true"],
)
def test_non_string_command_exits_1(command, tmp_path, capsys):
    # an unhashable "command" must not reach a lookup in the command table
    names = "('equilibria', 'simulate', 'k10', 'kappa-check')"
    for document in ({"command": command}, json.dumps({"command": command})):
        with pytest.raises(ValidationError) as e:
            parse_run_config(document)
        assert str(e.value) == f'"command" must be one of {names}, got {command!r}'
    # main compares the file's command with the subcommand's before the parse
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"command": command}))
    assert main(["k10", "--config", str(conf)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "ValidationError",
        "message": f"config file says command {command!r} but CLI asked for 'k10'",
    }
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("command", ["fly", ["k10"]], ids=["unknown", "list"])
def test_run_rejects_a_command_without_a_row(command, tmp_path, capsys, monkeypatch):
    # a RunConfig built by hand, not parsed: the same error line as the parse, and exit 1
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError) as e:
        parse_run_config({"command": command})
    assert run(RunConfig(command=command)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "ValidationError", "message": str(e.value)}
    assert list(tmp_path.iterdir()) == []


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
    assert cfg.initial == (0, 0.2)  # the directive's offset is text, read by the parser
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
    assert all(set(s["isolation"]) == ISOLATION_KEYS for s in doc["solutions"])


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
        assert set(summary["omega"]) == OMEGA_KEYS
    assert blobs[0] == blobs[1]
    header = blobs[0].decode().split("\n")[0]
    assert header == "t,s,alpha_1,alpha_2,beta_1,beta_2,L,L_rate,dist_to_eq"


def test_simulate_late_start(tmp_path, capsys):
    # e^t overflows a float from t ~ 709.78 on; s is then written as inf
    eq = lift(solve_equilibria(interaction_matrix(build_configuration(K2_POINTS)))[0])
    conf = tmp_path / "run.json"
    conf.write_text(
        cfg_text(
            command="simulate", points=K2_POINTS, schedule={"kind": "zero"}, t_end=712.0,
            initial={"t": 705.0, "alpha": eq.a.tolist(), "beta": eq.c.tolist()},
        )
    )
    out = tmp_path / "late.csv"
    assert main(["simulate", "--config", str(conf), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    s = [row.split(",")[1] for row in out.read_text().strip().split("\n")[1:]]
    assert s[0] == f"{math.exp(705.0):.17g}" and s[-1] == "inf"
    summary = json.loads((tmp_path / "late.summary.json").read_text())
    assert summary["final_dist_to_eq"] <= 1e-9


def test_simulate_from_an_exact_equilibrium_stays_there(tmp_path):
    # the autonomous flow from a solver equilibrium never moves it, so every
    # sample is the start and the run ends without stepping through the grid
    conf = tmp_path / "run.json"
    conf.write_text(
        cfg_text(
            command="simulate", points=TRIANGLE_POINTS, schedule={"kind": "zero"},
            initial="start-at-equilibrium:0,0", t_end=20.0, integrator={"sample_dt": 0.01},
        )
    )
    blobs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(conf), "--output", str(out)]) == 0
        summary = tmp_path / (name[:-4] + ".summary.json")
        assert json.loads(summary.read_text())["final_dist_to_eq"] == 0.0
        blobs.append(out.read_bytes() + summary.read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_writes_its_csv_block_by_block(tmp_path, capsys, monkeypatch):
    # the file is written one block of rows at a time; blocks of 7 rows give the bytes
    # of one block, and those of a per-value %.17g table
    conf = tmp_path / "run.json"
    conf.write_text(cfg_text(
        command="simulate", points=TRIANGLE_POINTS, initial="start-at-equilibrium:0,0.01",
        schedule={"kind": "exponential", "amplitude": 0.01, "rate": 1.0}, t_end=1.0,
        integrator={"sample_dt": 0.01},
    ))
    texts = []
    for rows in (dynamics.BLOCK_ROWS, 7):
        monkeypatch.setattr(dynamics, "BLOCK_ROWS", rows)
        out = tmp_path / f"blocks{rows}.csv"
        assert main(["simulate", "--config", str(conf), "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\nwrote {out.with_suffix('.summary.json')}\n"
        texts.append(out.read_text())
    header, *rows = texts[0].splitlines()
    assert len(rows) == 101
    assert_same_text(texts[1], texts[0])
    table = [",".join("%.17g" % float(v) for v in row.split(",")) for row in rows]
    assert_same_text(texts[0], "\n".join([header] + table) + "\n")


def test_k10_artifact(tmp_path):
    out = tmp_path / "k10.json"
    assert run(parse_run_config(cfg_text(command="k10", output=str(out)))) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "command", "kappa", "B0", "lambda", "a", "b", "max_family_residual", "kernel_residual"
    }
    assert doc["command"] == "k10" and doc["kappa"] == kappa_closed_form()
    assert 4.70 < doc["B0"] < 4.71


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
    }
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


def test_equilibrium_index_beyond_those_found_exits_1(tmp_path, capsys, monkeypatch):
    # the index is checked against the solve's equilibria, so only the run can reject it
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "run.json"
    conf.write_text(cfg_text(
        command="simulate", points=K2_POINTS, schedule={"kind": "zero"},
        initial="start-at-equilibrium:1,0", t_end=1.0,
    ))
    assert main(["simulate", "--config", str(conf)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ValidationError", "message": "equilibrium index 1 out of range (found 1)"}
    ]
    assert not (tmp_path / "simulate.csv").exists()


def test_simulate_from_an_explicit_state_runs_without_equilibria(tmp_path, capsys, monkeypatch):
    # with the iteration cap at 4 the solve raises NoSolutionFound: a run from an
    # explicit state goes on without equilibria, so its distances are NaN, and one
    # from the directive, which needs an equilibrium, exits 2
    eq = lift(solve_equilibria(interaction_matrix(build_configuration(K2_POINTS)))[0])
    monkeypatch.setattr(equilibrium, "_MAX_ITER", 4)
    doc = dict(
        command="simulate", points=K2_POINTS, schedule={"kind": "zero"}, t_end=0.5,
        initial={"alpha": eq.a.tolist(), "beta": eq.c.tolist()},
    )
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps(doc))
    out = tmp_path / "free.csv"
    assert main(["simulate", "--config", str(conf), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert {row.split(",")[-1] for row in out.read_text().splitlines()[1:]} == {"nan"}
    assert json.loads((tmp_path / "free.summary.json").read_text())["final_dist_to_eq"] == "nan"
    conf.write_text(json.dumps({**doc, "initial": "start-at-equilibrium:0,0"}))
    assert main(["simulate", "--config", str(conf), "--output", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NoSolutionFound"


def test_fmt_writes_non_finite_floats_as_strings():
    values = [math.nan, math.inf, -math.inf, np.float64(-math.inf), 0.1, None]
    assert cli._fmt(values) == '["nan","inf","-inf","-inf",0.10000000000000001,null]'
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._fmt({"set": {1.0}})


def test_eigensolver_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a failed decomposition inside the solve (NaN eigenvalues, the gufunc's signal)
    # is a numerical failure: one JSON error line, no artifact
    import bubblefield.equilibrium as eq

    monkeypatch.chdir(tmp_path)

    def eigh(a, signature):
        nan = np.zeros(a.shape) * np.inf  # raises the invalid flag, as the gufunc does
        return nan[0], nan

    monkeypatch.setattr(eq, "_eigh", eigh)
    conf = tmp_path / "run.json"
    conf.write_text(cfg_text(command="equilibria", points=K2_POINTS))
    assert main(["equilibria", "--config", str(conf), "--output", "eq.json"]) == 2
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "SpectrumFailure"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize(
    "directive",
    ["zero,0.1", "0", "0,0.1,2", "0,nan", "0,inf", "-1,0.1", "0,-1", "0,", ",0.1", "1.0,0.1"],
)
def test_malformed_directive_rejected_while_parsing(directive):
    # the whole directive is checked before any solve; only its index waits for the run
    doc = {**_schedule(kind="zero"), "initial": "start-at-equilibrium:" + directive}
    with pytest.raises(InvalidInput):
        parse_run_config(doc)


def test_directive_parsed_once():
    doc = {**_schedule(kind="zero"), "initial": "start-at-equilibrium:1,-0.25"}
    assert parse_run_config(doc).initial == (1, -0.25)


@pytest.mark.parametrize("command", ["k10", "kappa-check"])
def test_unwritable_output_exits_1(command, tmp_path, capsys):
    # a directory as the output path, and a path below a regular file
    afile = tmp_path / "afile"
    afile.write_text("")
    for out, error in ((tmp_path, "IsADirectoryError"), (afile / "x.json", "FileExistsError")):
        assert main([command, "--output", str(out)]) == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1 and json.loads(lines[0])["error"] == error
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


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
    assert main(["equilibria", "--config", str(conf), "--tol", "inf"]) == 1
    # a config file that is not UTF-8 text
    conf.write_bytes(b"\xff\xfe\x00")
    assert main(["equilibria", "--config", str(conf)]) == 1


# what each command writes without --output, in the order it prints "wrote <name>"
DEFAULT_ARTIFACTS = {
    "equilibria": ["equilibria.json"],
    "simulate": ["simulate.csv", "simulate.summary.json"],
    "k10": ["k10.json"],
    "kappa-check": ["kappa_check.json"],
}
DEFAULT_RUN_CONFIGS = {
    "equilibria": {"points": K2_POINTS},
    "simulate": {
        "points": TRIANGLE_POINTS,
        "schedule": {"kind": "zero"},
        "initial": "start-at-equilibrium:0,0",
        "t_end": 1.0,
    },
}


@pytest.mark.parametrize("command", DEFAULT_ARTIFACTS)
def test_default_artifacts(command, tmp_path, capsys, monkeypatch):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"command": command, **DEFAULT_RUN_CONFIGS.get(command, {})}))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    assert main([command, "--config", str(conf)]) == 0
    out, err = capsys.readouterr()
    names = DEFAULT_ARTIFACTS[command]
    assert out == "".join(f"wrote {name}\n" for name in names) and err == ""
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(names)
    assert json.loads((run_dir / names[-1]).read_text())["command"] == command


# malformed command lines: argparse's own exit code was 2, the numerical-failure code
USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["fly"],
    "unknown-flag": ["equilibria", "--bogus"],
    "flag-without-value": ["k10", "--output"],
    "seed-not-an-integer": ["equilibria", "--seed", "abc"],
    "tol-not-a-number": ["equilibria", "--tol", "x"],
    "seed-on-k10": ["k10", "--seed", "1"],
    "seed-on-kappa-check": ["kappa-check", "--seed", "1"],
    "tol-on-k10": ["k10", "--tol", "1e-9"],
    "tol-on-kappa-check": ["kappa-check", "--tol", "1e-9"],
}


# the flag an error message must name: an error elsewhere on the line must not pass for it
USAGE_ERROR_FLAG = {"seed-not-an-integer": "--seed"}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_malformed_command_line_exits_1(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(USAGE_ERRORS[case]) == 1
    out, err = capsys.readouterr()
    lines = err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ValidationError"
    assert USAGE_ERROR_FLAG.get(case, "") in json.loads(lines[0])["message"]
    assert out == "" and list(tmp_path.iterdir()) == []


def _flags(command, capsys) -> set:
    """The long flags of a subcommand, as its help lists them."""
    with pytest.raises(SystemExit) as e:
        main([command, "-h"])
    assert e.value.code == 0
    return set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}


def test_flags_follow_the_keys(capsys):
    # a flag exists exactly where the key it overrides does
    overrides = {"--output": "output", "--seed": "seed", "--tol": "solver"}
    for command, (_, _, keys, _) in cli._COMMANDS.items():
        keys = keys | {"command", "output"}
        expected = {"--config"} | {flag for flag, key in overrides.items() if key in keys}
        assert _flags(command, capsys) == expected, command


def test_readme_synopsis_matches_parser(capsys):
    synopsis = dict(re.findall(r"^bubblefield (\S+) +(.*)$", README.read_text(), re.M))
    assert synopsis.keys() == cli._COMMANDS.keys()
    for command, line in synopsis.items():
        assert set(re.findall(r"--[a-z]+", line)) == _flags(command, capsys), command
        # the --output value shown is the command's default artifact
        assert re.search(r"\[--output (\S+)\]", line)[1] == cli._COMMANDS[command][1], command


def test_main_fails_only_with_one_json_line(tmp_path, capsys, monkeypatch):
    # any command line: exit 0 only through run, else exit 1 with one JSON error line
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.chdir(tmp_path)
    paths = []
    for i, doc in enumerate(FULL_CONFIGS):
        (tmp_path / f"{i}.json").write_text(json.dumps(doc))
        paths.append(f"{i}.json")
    runs = []
    monkeypatch.setattr(cli, "run", lambda cfg: runs.append(cfg) or 0)
    # -h and every prefix of --help print help and exit 0
    junk = st.text(max_size=8).filter(
        lambda t: not (t.startswith("-h") or "--help".startswith(t.split("=")[0]))
    )
    values = st.sampled_from(paths) | st.integers().map(str) | st.floats().map(str) | junk
    flags = st.sampled_from(["--config", "--output", "--seed", "--tol"])
    # a flag and its value (often a config file), or a lone flag or value
    configs = st.sampled_from(paths).map(lambda path: ("--config", path))
    tokens = st.tuples(flags, values) | configs | st.tuples(flags | values)
    argvs = st.tuples(st.sampled_from(list(cli._COMMANDS)) | junk, st.lists(tokens, max_size=4))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(argvs)
    def check(argv):
        runs.clear()
        capsys.readouterr()
        try:
            code = main([argv[0], *(token for group in argv[1] for token in group)])
        except SystemExit as e:
            raise AssertionError(f"main exited {e.code}") from e
        err = capsys.readouterr().err
        if runs:
            assert code == 0 and err == ""
        else:
            assert code == 1 and err.count("\n") == 1 and "error" in json.loads(err)

    check()


def test_nul_in_a_path_exits_1(tmp_path, capsys, monkeypatch):
    # open() raises ValueError on an embedded NUL; no OS command line carries one,
    # but a caller of main() and a JSON config ("\u0000") can
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"command": "k10", "output": "a\x00b"}))
    for argv in (["k10", "--config", "a\x00b"], ["k10", "--output", "a\x00b"],
                 ["k10", "--config", str(conf)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        lines = err.strip().split("\n")
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ValidationError"
        assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


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
    # no command draws a random number, so the seed changes only its own field
    conf = tmp_path / "run.json"
    conf.write_text(cfg_text(command="equilibria", points=TRIANGLE_POINTS))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["equilibria", "--config", str(conf), "--output", str(a), "--seed", "7"]) == 0
    assert main(["equilibria", "--config", str(conf), "--output", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["equilibria", "--config", str(conf), "--output", str(c), "--seed", "8"]) == 0
    doc_a, doc_c = json.loads(a.read_text()), json.loads(c.read_text())
    assert doc_a["seed"] == 7 and doc_c["seed"] == 8
    assert {**doc_a, "seed": 8} == doc_c


AT_EQ = {"initial": "start-at-equilibrium:0,0.0", "t_end": 1}
K3_POINTS = [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0.3, 1.2, 0, 0, 0]]


def _schedule(**kw):
    return {"command": "simulate", "points": K2_POINTS, **AT_EQ, "schedule": kw}


def _integrator(**kw):
    return {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "zero"}, "integrator": kw,
    }


MALFORMED = {
    "tol-not-a-number": {"command": "equilibria", "points": K2_POINTS, "solver": {"tol": "abc"}},
    "tol-negative": {"command": "equilibria", "points": K2_POINTS, "solver": {"tol": -1}},
    # isolation_check certifies residuals only up to 1e-8 (1 + 6 max x)
    "tol-above-1e-8": {"command": "equilibria", "points": K2_POINTS, "solver": {"tol": 2e-8}},
    "n_random-negative": {"command": "equilibria", "points": K2_POINTS, "solver": {"n_random": -5}},
    # the iteration cap is a module constant, not a setting
    "max_iter-zero": {"command": "equilibria", "points": K2_POINTS, "solver": {"max_iter": 0}},
    "dedup_radius-unknown-key": {
        "command": "equilibria", "points": K2_POINTS, "solver": {"dedup_radius": 1e-6}
    },
    "points-string": {"command": "equilibria", "points": "abc"},
    "points-ragged": {"command": "equilibria", "points": [[0, 0, 0, 0, 0], [1, 0, 0]]},
    # the squared distance overflows: no RuntimeWarning on stderr before the error line
    "points-too-far-apart": {
        "command": "equilibria", "points": [[0, 0, 0, 0, 0], [1e200, 0, 0, 0, 0]]
    },
    "amplitude-string": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "exponential", "amplitude": "big"},
    },
    "t_end-huge-grid": {  # 1e13 samples at the default sample_dt: rejected before allocation
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "zero"}, "t_end": 1e12,
    },
    "t_end-string": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "zero"}, "t_end": "soon",
    },
    # a number given as text is the wrong type, even when float() would read it
    "t_end-numeric-string": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "zero"}, "t_end": "5",
    },
    "amplitude-numeric-string": {
        "command": "simulate", "points": K2_POINTS, **AT_EQ,
        "schedule": {"kind": "exponential", "amplitude": "0.1"},
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
    # before, these ended in tracebacks: an OverflowError, numpy's ArrayMemoryError,
    # a ZeroDivisionError and an AssertionError; the closed-form checks take no settings
    "kappa-check-quadrature": {"command": "kappa-check", "quadrature": {"r_max": 1e300}},
    "n_panels-huge": {"command": "kappa-check", "quadrature": {"n_panels": 10**11}},
    "k10-kappa": {"command": "k10", "kappa": 1e-200},
    "k10-kappa-huge": {"command": "k10", "kappa": 1e200},
    "r_max-string": {"command": "kappa-check", "quadrature": {"r_max": "x"}},
    "tol-null": {"command": "equilibria", "points": K2_POINTS, "solver": {"tol": None}},
    "initial-alpha-scalar": {
        "command": "simulate", "points": K2_POINTS, "schedule": {"kind": "zero"}, "t_end": 1,
        "initial": {"alpha": 1, "beta": 2},
    },
    # before, this exited 2 with AlphaCollapse at the first sample
    "start-below-alpha_floor": {
        "command": "simulate", "points": [[0, 0, 0, 0, 0], [1e-3, 0, 0, 0, 0]], **AT_EQ,
        "schedule": {"kind": "zero"},
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
    # non-finite and boolean numbers: before, these exited 2 or ran (exit 0)
    "amplitude-nan": _schedule(kind="exponential", amplitude=math.nan),
    "amplitude-inf": _schedule(kind="exponential", amplitude=math.inf),
    "amplitude-true": _schedule(kind="exponential", amplitude=True),
    "rate-inf": _schedule(kind="exponential", amplitude=0.1, rate=math.inf),
    "dir1-nan": _schedule(kind="exponential", amplitude=0.1, dir1=[math.nan, 1]),
    "dir2-nan": _schedule(kind="power", amplitude=0.1, dir2=[1, math.nan]),
    "alpha_floor-inf": _integrator(alpha_floor=math.inf),
    "rtol-inf": _integrator(rtol=math.inf),
    "atol-inf": _integrator(atol=math.inf),
    "tol-inf": {
        "command": "simulate", "points": K3_POINTS, "schedule": {"kind": "zero"},
        "initial": "start-at-equilibrium:0,0.0", "t_end": 0.3, "solver": {"tol": math.inf},
    },
    "tol-true": {
        "command": "simulate", "points": K3_POINTS, "schedule": {"kind": "zero"},
        "initial": "start-at-equilibrium:0,0.0", "t_end": 0.3, "solver": {"tol": True},
    },
    "initial-t-infinite": {
        "command": "simulate", "points": K2_POINTS, "schedule": {"kind": "zero"}, "t_end": 1,
        "initial": {"t": -math.inf, "alpha": [1, 1], "beta": [2, 2]},
    },
    # booleans inside arrays: before, these were read as 1.0 and 0.0
    "points-boolean": {"command": "equilibria", "points": [[0, 0, 0, 0, 0], [True, 0, 0, 0, 0]]},
    "initial-alpha-boolean": {
        "command": "simulate", "points": K2_POINTS, "schedule": {"kind": "zero"}, "t_end": 1,
        "initial": {"alpha": [True, True], "beta": [2, 2]},
    },
    "initial-beta-boolean": {
        "command": "simulate", "points": K2_POINTS, "schedule": {"kind": "zero"}, "t_end": 1,
        "initial": {"alpha": [1, 1], "beta": [2, False]},
    },
    "dir1-boolean": _schedule(kind="power", amplitude=0.1, dir1=[True, False]),
    "dir2-boolean": _schedule(kind="exponential", amplitude=0.1, dir2=[1.0, True]),
    # the quadrature does not depend on kappa, so kappa-check takes none
    "kappa-check-kappa": {"command": "kappa-check", "kappa": 6.0},
    # k10 and kappa-check draw nothing, so they take no seed
    "k10-seed": {"command": "k10", "seed": 1},
    "kappa-check-seed": {"command": "kappa-check", "seed": 1},
    # every command works at the closed-form kappa, and the integrator's steps are
    # set by rtol and atol alone
    "equilibria-kappa": {"command": "equilibria", "points": K2_POINTS, "kappa": 6.0},
    "simulate-kappa": {**_integrator(), "kappa": 6.0},
    "max_step": _integrator(max_step=1.0),
}


def _never_runs(**kw):
    """A K = 2 simulate config; with _MAX_ITER patched to 4 its solve raises NoSolutionFound."""
    return {
        "command": "simulate", "points": K2_POINTS, **AT_EQ, "schedule": {"kind": "zero"}, **kw,
    }


# runs that can never start, rejected while parsing: before, each was found after the
# solve, so those that start at an equilibrium exited 2 with NoSolutionFound
NEVER_RUNS = {
    "dir1-length-3": _never_runs(schedule={"kind": "power", "dir1": [1, 1, 1]}),
    "dir2-length-3": _never_runs(schedule={"kind": "exponential", "dir2": [1, 1, 1]}),
    "initial-alpha-length-3": _never_runs(initial={"alpha": [1, 1, 1], "beta": [2, 2, 2]}),
    "initial-beta-length-3": _never_runs(initial={"alpha": [1, 1], "beta": [2, 2, 2]}),
    "t_end-at-the-start": _never_runs(t_end=0),
    "t_end-before-initial-t": _never_runs(initial={"t": 5, "alpha": [1, 1], "beta": [2, 2]}),
    "t_end-over-the-sample-cap": _never_runs(t_end=2e6),
    # 10^6 samples (sample_dt 0.1) of 203 values each at K = 100, past the values cap
    "k100-over-the-values-cap": _never_runs(
        points=[[i, 0, 0, 0, 0] for i in range(100)], t_end=1e5
    ),
    # an explicit start checked while parsing: before, each exited 1 only after the solve
    "initial-alpha-zero": _never_runs(initial={"alpha": [0, 1], "beta": [2, 2]}),
    "initial-alpha-negative": _never_runs(initial={"alpha": [-1, 1], "beta": [2, 2]}),
    "initial-alpha-below-floor": _never_runs(initial={"alpha": [1e-12, 1], "beta": [2, 2]}),
    # forcing undefined or infinite at the start: before, a ZeroDivisionError traceback,
    # complex forcing cast to real and a bogus StepUnderflow, and an OverflowError traceback
    "power-at-t-minus-1": _never_runs(
        schedule={"kind": "power", "amplitude": 0.1, "rate": 1.5},
        initial={"t": -1, "alpha": [1, 1], "beta": [2, 2]},
    ),
    "power-below-t-minus-1": _never_runs(
        schedule={"kind": "power", "amplitude": 0.1, "rate": 1.5},
        initial={"t": -3, "alpha": [1, 1], "beta": [2, 2]},
    ),
    "exponential-overflow-at-t0": _never_runs(
        schedule={"kind": "exponential", "amplitude": 0.1, "rate": 1.5},
        initial={"t": -800, "alpha": [1, 1], "beta": [2, 2]}, t_end=-799,
    ),
}
MALFORMED.update(NEVER_RUNS)


# the cases whose error class is asserted too
MALFORMED_ERROR = {
    "dedup_radius-unknown-key": "UnknownKey",
    "t_end-huge-grid": "InvalidInput",
    "start-below-alpha_floor": "InvalidInput",
    "power-at-t-minus-1": "InvalidInput",
    "power-below-t-minus-1": "InvalidInput",
    "exponential-overflow-at-t0": "InvalidInput",
    "kappa-check-kappa": "UnknownKey",
    "kappa-check-quadrature": "UnknownKey",
    "n_panels-fraction": "UnknownKey",
    "n_panels-huge": "UnknownKey",
    "r_max-string": "UnknownKey",
    "r_max-infinite": "UnknownKey",
    "k10-kappa": "UnknownKey",
    "k10-kappa-huge": "UnknownKey",
    "k100-over-the-values-cap": "InvalidInput",
    "initial-alpha-zero": "NegativeAlpha",
    "initial-alpha-negative": "NegativeAlpha",
    "initial-alpha-below-floor": "InvalidInput",
    "k10-seed": "UnknownKey",
    "kappa-check-seed": "UnknownKey",
    "equilibria-kappa": "UnknownKey",
    "simulate-kappa": "UnknownKey",
    "max_step": "UnknownKey",
    "max_iter-zero": "UnknownKey",
    "t_end-numeric-string": "InvalidInput",
    "amplitude-numeric-string": "InvalidInput",
    "points-too-far-apart": "InvalidInput",
}
# the cases whose message is asserted too: an error elsewhere in the config must not pass
MALFORMED_MESSAGE = {"tol-null": "tol must be a number"}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_config_exits_1(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    solves = []
    solve = equilibrium.solve_equilibria
    monkeypatch.setattr(equilibrium, "solve_equilibria", lambda *a: solves.append(a) or solve(*a))
    if case in NEVER_RUNS:  # a run that got past the parser exits 2 with NoSolutionFound
        monkeypatch.setattr(equilibrium, "_MAX_ITER", 4)
    doc = MALFORMED[case]
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps(doc))
    assert main([doc["command"], "--config", str(conf)]) == 1
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == MALFORMED_ERROR.get(case, err["error"])
    assert MALFORMED_MESSAGE.get(case, "") in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    assert not (case in NEVER_RUNS and (solves or err["error"] == "UnknownKey"))


# one valid config per command with every settable field present
FULL_CONFIGS = [
    {
        "command": "equilibria", "seed": 1, "output": "eq.json",
        "points": K2_POINTS,
        "solver": {"tol": 1e-12, "n_random": 4},
    },
    {
        "command": "simulate", "points": K2_POINTS, "t_end": 1.0,
        "schedule": {
            "kind": "power", "amplitude": 0.1, "rate": 1.0, "dir1": [1, 0], "dir2": [0, 1]
        },
        "initial": {"t": 0, "alpha": [1, 1], "beta": [2, 2]},
        "integrator": {"rtol": 1e-9, "atol": 1e-12, "alpha_floor": 1e-8, "sample_dt": 0.1},
    },
    {"command": "k10", "output": "k10.json"},
    {"command": "kappa-check", "output": "kc.json"},
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
    keys = {c: set() for c in cli._COMMANDS}
    for line in README.read_text().splitlines():
        if line.startswith("| `"):
            names, commands = line.split("|")[1:3]
            commands = commands.strip()
            for c in cli._COMMANDS if commands == "all" else commands.split(", "):
                keys[c] |= set(re.findall(r"`([^`]+)`", names))
    return keys


def test_readme_config_table_matches_parser():
    sections = {name: keys for name, (_, keys, _) in cli._SECTIONS.items()}
    documented = _readme_table_keys()
    for command, (_, _, keys, _) in cli._COMMANDS.items():
        allowed = keys | {"command", "output"}
        accepted = {f"{k}.{sub}" for k in allowed & sections.keys() for sub in sections[k]}
        assert documented[command] == accepted | (allowed - sections.keys()), command


def test_readme_json_examples_parse(tmp_path, capsys, monkeypatch):
    examples = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert [json.loads(text)["command"] for text in examples] == ["equilibria", "simulate"]
    monkeypatch.chdir(tmp_path)
    results = {}
    for i, text in enumerate(examples):
        assert isinstance(parse_run_config(text), RunConfig)
        (tmp_path / f"{i}.json").write_text(text)
        command = json.loads(text)["command"]
        results[command] = main([command, "--config", f"{i}.json"]), *capsys.readouterr()
    assert results["equilibria"] == (0, "wrote equilibria.json\n", "")
    # the simulate example starts off the stable set and blows up: the README says so
    code, out, err = results["simulate"]
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "StepUnderflow"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.json", "1.json", "equilibria.json"]


def test_version_matches_pyproject():
    (version,) = re.findall(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert bubblefield.__version__ == version


def test_readme_library_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert len(scope["sols"]) == 1 and scope["report"].isolated
    assert np.allclose(scope["report"].eigenvalues, [-18.0, 18.0], rtol=0, atol=1e-10)
