import contextlib
import csv
import dataclasses
import io
import json
import math
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safedmp import bench, cli, dmp, safe_exec, trajectory
from safedmp.errors import ParseError

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = run_cli("learn", "--demo", "builtin:sshape", "--out", str(out))
    assert code == 0
    return out


class TestLearn:
    def test_builtin_minjerk_self_check(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run_cli("learn", "--demo", "builtin:minjerk", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        # printed self-check stays under 1% of the bounding-box diagonal
        line = [l for l in captured.out.splitlines() if "MAE" in l][0]
        percent = float(line.split("(")[1].split("%")[0])
        assert percent < 1.0

    def test_two_sample_demo_rejected(self, tmp_path):
        demo = tmp_path / "tiny.csv"
        demo.write_text("t,x,y\n0,0,0\n1,1,1\n")
        code = run_cli("learn", "--demo", str(demo), "--out", str(tmp_path / "m.json"))
        assert code == cli.EXIT_INPUT

    def test_malformed_csv_rejected(self, tmp_path):
        demo = tmp_path / "bad.csv"
        demo.write_text("t,x,y\n0,zero,0\n1,1,1\n")
        code = run_cli("learn", "--demo", str(demo), "--out", str(tmp_path / "m.json"))
        assert code == cli.EXIT_INPUT

    def test_default_basis_count(self, tmp_path):
        out = tmp_path / "model.json"
        run_cli("learn", "--demo", "builtin:minjerk", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["n_basis"] == 25

    def test_random_rotation_seeded(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("learn", "--demo", "builtin:sshape", "--out", str(a),
                "--rotate-random", "--seed", "5")
        run_cli("learn", "--demo", "builtin:sshape", "--out", str(b),
                "--rotate-random", "--seed", "5")
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run_cli("learn", "--demo", "builtin:minjerk", "--out", str(out),
                       "--rotate-random", "--seed", "-1")
        assert code == cli.EXIT_INPUT
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_obstacle_free(self, model_path, tmp_path):
        code = run_cli(
            "run", "--model", str(model_path),
            "--scenario", str(SCENARIO_DIR / "free_sshape.json"),
            "--out", str(tmp_path / "free"),
        )
        assert code == 0
        metrics = json.loads((tmp_path / "free_metrics.json").read_text())
        row = metrics["rows"][0]
        assert row["metrics"]["collision_count"] == 0
        assert row["metrics"]["converged"] is True
        assert row["metrics"]["exec_time_mean_s"] is None

    def test_static_scenario_clearance_column(self, model_path, tmp_path):
        code = run_cli(
            "run", "--model", str(model_path),
            "--scenario", str(SCENARIO_DIR / "static_one_sshape.json"),
            "--out", str(tmp_path / "static"),
        )
        assert code == 0
        min_clearance = cli.read_log_csv(tmp_path / "static_log.csv")[:, -1]
        scenario = bench.load_scenario(SCENARIO_DIR / "static_one_sshape.json")
        r_o = scenario.obstacles[0].radius
        assert np.all(min_clearance >= r_o * 0.0)
        assert min_clearance.min() >= 0.0

    def test_log_round_trip_exact(self, model_path, tmp_path):
        run_cli(
            "run", "--model", str(model_path),
            "--scenario", str(SCENARIO_DIR / "perturb_two_sshape.json"),
            "--out", str(tmp_path / "pert"),
        )
        model = dmp.load_model(model_path)
        scenario = bench.load_scenario(SCENARIO_DIR / "perturb_two_sshape.json")
        nominal = dmp.rollout(model, scenario.dt)
        prepared = bench.PreparedScenario(
            scenario=scenario, model=model, demo=nominal.trajectory,
            nominal=nominal.trajectory, nominal_converged=True,
        )
        log = bench.run_scenario(prepared)
        assert np.array_equal(cli.read_log_csv(tmp_path / "pert_log.csv"), log.rows)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_log_writer_matches_csv_module_on_edge_values(self, order, tmp_path):
        edge = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                sys.float_info.max, 0.1, -0.1]
        rows = np.array([
            [float(k)] + [edge[(k + j) % len(edge)] for j in range(7)]
            for k in range(12)
        ] + [[0.1] * 8], order=order)
        assert rows.flags.f_contiguous == (order == "F")
        log = safe_exec.ExecutionLog(
            rows=rows, converged=True, safety_infeasible=False, dt=0.005,
            goal=np.zeros(1), wall_time_mean=0.0, wall_time_p99=0.0,
        )
        path = tmp_path / "edge_log.csv"
        cli.write_log_csv(log, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(safe_exec.log_columns(1))
        writer.writerows(rows.tolist())
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        back = cli.read_log_csv(path)
        assert back.shape == rows.shape
        assert np.array_equal(back.view(np.int64), np.ascontiguousarray(rows).view(np.int64))

    @pytest.mark.parametrize("text", [
        "",
        "t,a_0,b_0,c_0,d_0,tau,z,min_clearance\n",
        "t,xn_0,xs_0,xd_0,xm_0,tau,z,min_clearance\n0.0,1.0\n",
        "t,xn_0,xs_0,xd_0,xm_0,tau,z,min_clearance\n0,1,2,3,4,5,6,x\n",
    ])
    def test_malformed_log_rejected(self, text, tmp_path):
        path = tmp_path / "bad_log.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            cli.read_log_csv(path)

    def test_apf_safe_columns_are_its_command(self, model_path, tmp_path):
        # dmp-apf has no projection: its logged safe position is its command
        code = run_cli(
            "run", "--model", str(model_path),
            "--scenario", str(SCENARIO_DIR / "static_one_sshape.json"),
            "--method", "dmp-apf", "--out", str(tmp_path / "apf"),
        )
        assert code == 0
        log_path = tmp_path / "apf_log.csv"
        header = log_path.read_text().splitlines()[0].split(",")
        xs = [i for i, name in enumerate(header) if name.startswith("xs_")]
        xd = [i for i, name in enumerate(header) if name.startswith("xd_")]
        assert len(xs) == len(xd) == 3
        rows = cli.read_log_csv(log_path)
        np.testing.assert_array_equal(rows[:, xs], rows[:, xd])

    def test_apf_headon_flags(self, tmp_path):
        model_out = tmp_path / "mj.json"
        run_cli("learn", "--demo", "builtin:minjerk", "--out", str(model_out))
        code = run_cli(
            "run", "--model", str(model_out),
            "--scenario", str(SCENARIO_DIR / "headon_symmetric_minjerk.json"),
            "--method", "dmp-apf",
            "--out", str(tmp_path / "headon"),
        )
        metrics = json.loads((tmp_path / "headon_metrics.json").read_text())
        row = metrics["rows"][0]["metrics"]
        if code == 0:
            assert row["oscillation_flag"] or row["collision_count"] > 0
        else:
            assert code == cli.EXIT_NONCONVERGED

    def test_exit_code_parse_error(self, model_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(
            "run", "--model", str(model_path), "--scenario", str(bad),
            "--out", str(tmp_path / "x"),
        )
        assert code == cli.EXIT_INPUT

    def test_exit_code_safety_infeasible(self, tmp_path):
        model_out = tmp_path / "mj.json"
        run_cli("learn", "--demo", "builtin:minjerk", "--out", str(model_out))
        model = dmp.load_model(model_out)
        nominal = dmp.rollout(model, 0.005).trajectory
        mid = nominal.points[nominal.n // 2]
        tangent = nominal.points[nominal.n // 2 + 5] - nominal.points[nominal.n // 2 - 5]
        tangent /= np.linalg.norm(tangent)
        # a long chain of overlapping clearance spheres along the path:
        # the projection pass budget cannot walk a mid-chain target out
        scenario = bench.Scenario(
            name="jammed", demo_source="builtin:minjerk",
            obstacles=tuple(
                safe_exec.Obstacle(center0=mid + tangent * 0.02 * i, radius=0.06)
                for i in range(-5, 6)
            ),
        )
        spath = tmp_path / "jammed.json"
        bench.save_scenario(scenario, spath)
        code = run_cli(
            "run", "--model", str(model_out), "--scenario", str(spath),
            "--out", str(tmp_path / "jam"),
        )
        assert code == cli.EXIT_INFEASIBLE
        assert (tmp_path / "jam_log.csv").exists()  # partial log still written

    @staticmethod
    def _boxed_start(tmp_path, near):
        """A minjerk model and the path of a scenario with radius-0.1 spheres
        centered ``near`` and 0.15 m from the start on the start-to-goal line."""
        model_out = tmp_path / "mj.json"
        run_cli("learn", "--demo", "builtin:minjerk", "--out", str(model_out))
        model = dmp.load_model(model_out)
        u = (model.g - model.x0) / np.linalg.norm(model.g - model.x0)
        scenario = bench.Scenario(
            name="boxed_start", demo_source="builtin:minjerk",
            obstacles=tuple(
                safe_exec.Obstacle(center0=model.x0 + s * u, radius=0.1)
                for s in (near, 0.15)
            ),
        )
        spath = tmp_path / "boxed.json"
        bench.save_scenario(scenario, spath)
        return model_out, spath, scenario

    def test_infeasible_at_first_step_writes_log_and_metrics(self, tmp_path):
        # clearance spheres 0.26 apart on the start-to-goal line around a
        # start 0.01 m outside the near surface: the first target cannot be
        # projected clear, so the run logs no step, and its log and metrics
        # are still written
        model_out, spath, scenario = self._boxed_start(tmp_path, -0.11)
        code = run_cli(
            "run", "--model", str(model_out), "--scenario", str(spath),
            "--out", str(tmp_path / "boxed"),
        )
        assert code == cli.EXIT_INFEASIBLE
        assert cli.read_log_csv(tmp_path / "boxed_log.csv").shape == (0, 16)
        doc = json.loads((tmp_path / "boxed_metrics.json").read_text())
        metrics = doc["rows"][0]["metrics"]
        assert metrics["mae_nominal_m"] is None and not metrics["converged"]
        # the comparison grid reports the same cell instead of an error
        [row] = bench.compare([scenario], methods=("safedmp",))
        assert row.error is None and row.metrics.mae_nominal_m is None

    def test_start_inside_an_obstacle_exits_2_and_writes_nothing(self, tmp_path):
        # the start 0.01 m from the center of a radius-0.1 sphere
        model_out, spath, scenario = self._boxed_start(tmp_path, -0.01)
        for method in bench.METHODS:
            code = run_cli(
                "run", "--model", str(model_out), "--scenario", str(spath),
                "--out", str(tmp_path / "boxed"), "--method", method,
            )
            assert code == cli.EXIT_INPUT
            assert not list(tmp_path.glob("boxed_*"))
        # the comparison grid records the input error in the cell's row
        [row] = bench.compare([scenario], methods=("safedmp",))
        assert row.metrics is None and "inside an obstacle" in row.error

    def test_exit_code_nonconvergence(self, tmp_path):
        model_out = tmp_path / "mj.json"
        run_cli("learn", "--demo", "builtin:minjerk", "--out", str(model_out))
        model = dmp.load_model(model_out)
        nominal = dmp.rollout(model, 0.005).trajectory
        scenario = bench.Scenario(
            name="blocked_goal", demo_source="builtin:minjerk",
            obstacles=(safe_exec.Obstacle(center0=nominal.points[-1], radius=0.05),),
        )
        spath = tmp_path / "blocked.json"
        bench.save_scenario(scenario, spath)
        code = run_cli(
            "run", "--model", str(model_out), "--scenario", str(spath),
            "--out", str(tmp_path / "blocked"),
        )
        assert code == cli.EXIT_NONCONVERGED

    def test_perturbation_beyond_horizon_rejected(self, model_path, tmp_path, capsys):
        # run and bench plan through the same check: 1000 s is past 20 tau
        doc = json.loads((SCENARIO_DIR / "perturb_two_sshape.json").read_text())
        doc["perturbations"].append({"t_apply": 1000.0, "offset": [0.0, 0.05, 0.0]})
        spath = tmp_path / "late.json"
        spath.write_text(json.dumps(doc))
        code = run_cli("run", "--model", str(model_path), "--scenario", str(spath),
                       "--out", str(tmp_path / "late"))
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "execution horizon" in err
        assert not any(tmp_path.glob("late_*"))
        [row] = bench.compare([bench.load_scenario(spath)], methods=("safedmp",))
        assert row.error in err

    def test_start_within_goal_tol_rejected(self, model_path, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "free_sshape.json").read_text())
        doc["execution"]["goal_tol"] = 10.0
        spath = tmp_path / "near.json"
        spath.write_text(json.dumps(doc))
        code = run_cli("run", "--model", str(model_path), "--scenario", str(spath),
                       "--out", str(tmp_path / "near"))
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "m from the goal, within goal_tol=10.0" in err
        assert "samples" not in err
        assert not any(tmp_path.glob("near_*"))

    def test_timing_fills_metrics_and_keeps_the_log(self, model_path, tmp_path):
        scenario = SCENARIO_DIR / "static_one_sshape.json"
        for tag, extra in (("plain", ()), ("timed", ("--timing",))):
            code = run_cli("run", "--model", str(model_path), "--scenario",
                           str(scenario), "--out", str(tmp_path / tag), *extra)
            assert code == 0
        plain, timed = (
            json.loads((tmp_path / f"{tag}_metrics.json").read_text())["rows"][0]
            for tag in ("plain", "timed")
        )
        for key in ("exec_time_mean_s", "exec_time_p99_s"):
            assert plain["metrics"].pop(key) is None
            assert timed["metrics"].pop(key) > 0.0
        assert plain == timed
        assert (
            (tmp_path / "plain_log.csv").read_bytes()
            == (tmp_path / "timed_log.csv").read_bytes()
        )

    def test_run_byte_determinism(self, model_path, tmp_path):
        for tag in ("a", "b"):
            code = run_cli(
                "run", "--model", str(model_path),
                "--scenario", str(SCENARIO_DIR / "moving_cross_sshape.json"),
                "--out", str(tmp_path / tag),
            )
            assert code == 0
        assert (tmp_path / "a_log.csv").read_bytes() == (tmp_path / "b_log.csv").read_bytes()
        assert (
            (tmp_path / "a_metrics.json").read_bytes()
            == (tmp_path / "b_metrics.json").read_bytes()
        )


def _nan_center(doc):
    doc["obstacles"][0]["center"][0] = math.nan


def _nan_radius(doc):
    doc["obstacles"][0]["radius"] = math.nan


def _nan_dt(doc):
    doc["dt"] = math.nan


def _nan_t_apply(doc):
    doc["perturbations"] = [{"t_apply": math.nan, "offset": [0.0, 0.05, 0.0]}]


def _negative_goal_tol(doc):
    doc["execution"]["goal_tol"] = -1.0


def _infinite_delta_gamma(doc):
    doc["safety"]["delta_gamma"] = math.inf


def _nan_apf_eta(doc):
    doc.setdefault("apf", {})["eta"] = math.nan


def _infinite_apf_d0(doc):
    doc.setdefault("apf", {})["d0"] = math.inf


def _nan_apf_max_force(doc):
    doc.setdefault("apf", {})["max_force"] = math.nan


@pytest.mark.parametrize("mutate, field", [
    (_nan_center, "center"),
    (_nan_radius, "radius"),
    (_nan_dt, "dt"),
    (_nan_t_apply, "t_apply"),
    (_negative_goal_tol, "goal_tol"),
    (_infinite_delta_gamma, "delta_gamma"),
    (_nan_apf_eta, "eta"),
    (_infinite_apf_d0, "d0"),
    (_nan_apf_max_force, "max_force"),
])
def test_run_rejects_non_finite_or_out_of_range_input(
    mutate, field, model_path, tmp_path, capsys
):
    doc = json.loads((SCENARIO_DIR / "static_one_sshape.json").read_text())
    mutate(doc)
    spath = tmp_path / "bad.json"
    spath.write_text(json.dumps(doc))
    code = run_cli("run", "--model", str(model_path), "--scenario", str(spath),
                   "--out", str(tmp_path / "bad"))
    assert code == cli.EXIT_INPUT
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("learn", "--demo", "builtin:minjerk", "--dt", "nan"),
    ("run", "--scenario", str(SCENARIO_DIR / "free_sshape.json"), "--dt", "0"),
])
def test_dt_flag_rejected(argv, model_path, tmp_path, capsys):
    argv = argv + ("--out", str(tmp_path / "x"))
    if argv[0] == "run":
        argv = argv + ("--model", str(model_path))
    assert run_cli(*argv) == cli.EXIT_INPUT
    assert "dt" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # nothing written, not even the model


@pytest.mark.parametrize("argv, horizon_factor, field", [
    (("learn", "--demo", "builtin:minjerk", "--dt", "1e-6"), None, "dt"),
    (("run", "--dt", "1e-6"), None, "dt"),
    (("run",), 1e4, "max_horizon_factor"),
], ids=["learn-dt", "run-dt", "run-horizon-factor"])
def test_over_budget_run_rejected(
    argv, horizon_factor, field, model_path, monkeypatch, tmp_path_factory,
    tmp_path, capsys,
):
    if argv[0] == "run":
        doc = json.loads((SCENARIO_DIR / "free_sshape.json").read_text())
        if horizon_factor is not None:
            doc["execution"]["max_horizon_factor"] = horizon_factor
        spath = tmp_path_factory.mktemp("scenario") / "scenario.json"
        spath.write_text(json.dumps(doc))
        argv += ("--scenario", str(spath), "--model", str(model_path))

    def no_stepping(*args, **kwargs):
        pytest.fail("stepping started on an over-budget run")

    monkeypatch.setattr(dmp, "attractor_step", no_stepping)
    monkeypatch.setattr(safe_exec, "run", no_stepping)
    assert run_cli(*argv, "--out", str(tmp_path / "x")) == cli.EXIT_INPUT
    assert field in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # no model, log or metrics written


@pytest.mark.parametrize("flag, value", [
    ("--resample-n", "1000000000"),
    ("--cutoff-hz", "1e-6"),
])
def test_over_budget_demonstration_rejected(flag, value, monkeypatch, tmp_path, capsys):
    def no_work(*args, **kwargs):
        pytest.fail("preprocessing started on an over-budget demonstration")

    monkeypatch.setattr(trajectory, "resample", no_work)
    monkeypatch.setattr(trajectory, "_filtfilt", no_work)
    code = run_cli("learn", "--demo", "builtin:sshape", flag, value,
                   "--out", str(tmp_path / "m.json"))
    assert code == cli.EXIT_INPUT
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# Malformed documents: each must exit 2 with the offending value's path.
_CENTER = [0.5, 0.5, 0.25]
MALFORMED_SCENARIOS = [
    ({"obstacles": [{"radius": 0.1}]}, "scenario.obstacles[0].center"),
    ({"dt": "abc"}, "scenario.dt"),
    ({"obstacles": 5}, "scenario.obstacles"),
    ({"obstacles": [{"center": _CENTER, "radius": 0.1, "active_window": [1.0]}]},
     "scenario.obstacles[0]: active_window"),
    ([], "scenario: expected an object"),
    ({"apf": {"eta": None}}, "scenario.apf.eta"),
    ({"perturbations": [{"t_apply": 0.5}]}, "scenario.perturbations[0].offset"),
    ({"obstacles": [{"center": _CENTER, "radius": 0.1, "active_window": ["a", "b"]}]},
     "scenario.obstacles[0].active_window[0]"),
    ({"dmp": {"n_basis": 1.5}}, "scenario.dmp.n_basis"),
    ({"safety": []}, "scenario.safety"),
    ({"name": 5}, "scenario.name"),
    ({"dt": True}, "scenario.dt"),
    ({"dt": "0.005"}, "scenario.dt"),
    ({"preprocess": {"cutoff_hz": -1.0}}, "scenario.preprocess: cutoff_hz"),
    ({"preprocess": {"rotation": [1.0, 0.0, 0.0]}}, "scenario.preprocess: rotation"),
]


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("doc, path", MALFORMED_SCENARIOS)
def test_malformed_scenario_rejected(command, doc, path, model_path, tmp_path, capsys):
    spath = tmp_path / "scenarios" / "bad.json"
    spath.parent.mkdir()
    spath.write_text(json.dumps(doc))
    if command == "run":
        argv = ("run", "--model", str(model_path), "--scenario", str(spath))
    else:
        argv = ("bench", "--scenario-dir", str(spath.parent))
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == cli.EXIT_INPUT
    assert path in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("unreadable", ["directory", "non-utf8"])
@pytest.mark.parametrize("argv", [
    ("learn", "--demo", "BAD"),
    ("run", "--model", "BAD", "--scenario", str(SCENARIO_DIR / "free_sshape.json")),
    ("run", "--model", "MODEL", "--scenario", "BAD"),
])
def test_unreadable_input_file_rejected(argv, unreadable, model_path, tmp_path, capsys):
    bad = tmp_path / "input"
    if unreadable == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"t,x,y\n0,\xff\xfe,0\n")
    paths = {"BAD": str(bad), "MODEL": str(model_path)}
    argv = [paths.get(arg, arg) for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("out*"))


def _model_patch(key, value):
    def patch(doc):
        doc[key] = value
        return doc
    return patch


@pytest.mark.parametrize("patch, path", [
    (_model_patch("d", "x"), "model.d"),
    (_model_patch("alpha", "x"), "model.alpha"),
    (_model_patch("g", "abc"), "model.g"),
    (_model_patch("centers", ["a"] * 25), "model.centers[0]"),
    (_model_patch("alpha", None), "model.alpha"),
    (_model_patch("alpha", math.nan), "model: alpha"),
    (_model_patch("x0", [math.nan, 0.0, 0.0]), "model: x0"),
    (lambda doc: [], "model: expected an object"),
])
def test_malformed_model_rejected(patch, path, model_path, tmp_path, capsys):
    mpath = tmp_path / "bad_model.json"
    mpath.write_text(json.dumps(patch(json.loads(model_path.read_text()))))
    code = run_cli("run", "--model", str(mpath),
                   "--scenario", str(SCENARIO_DIR / "free_sshape.json"),
                   "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_INPUT
    assert path in capsys.readouterr().err


def _two_d_offset(doc):
    doc["perturbations"] = [{"t_apply": 0.5, "offset": [0.0, 0.05]}]


def _two_d_obstacle(doc):
    doc["obstacles"] = [{"center": [0.5, 0.5], "radius": 0.05}]


@pytest.mark.parametrize("method", bench.METHODS)
@pytest.mark.parametrize("mutate, message", [
    (_two_d_offset, "perturbation offset"),
    (_two_d_obstacle, "obstacle dimension"),
])
def test_dimension_mismatch_rejected(
    method, mutate, message, model_path, tmp_path, capsys
):
    doc = json.loads((SCENARIO_DIR / "free_sshape.json").read_text())
    mutate(doc)
    spath = tmp_path / "scenarios" / "mismatch.json"
    spath.parent.mkdir()
    spath.write_text(json.dumps(doc))
    code = run_cli("run", "--model", str(model_path), "--scenario", str(spath),
                   "--method", method, "--out", str(tmp_path / "run"))
    assert code == cli.EXIT_INPUT
    assert message in capsys.readouterr().err
    # bench records a failing cell as a report row with the same message
    assert run_cli("bench", "--scenario-dir", str(spath.parent),
                   "--out", str(tmp_path / "bench")) == cli.EXIT_OK
    report = json.loads((tmp_path / "bench_report.json").read_text())
    assert all(message in row["error"] for row in report["rows"])


class TestRunSimulationCount:
    """``safedmp run`` simulates its main run once, plus only the twins;
    under the ideal plant an obstacle-free twin replays the rollout."""

    @staticmethod
    def count_runs(monkeypatch, *argv):
        """(rows, control calls) of each ``safe_exec.run`` of the command."""
        runs = []
        original = safe_exec.run

        def counting_run(engine, *args, **kwargs):
            calls = []
            control = engine.control
            engine.control = lambda x, t: calls.append(t) or control(x, t)
            log = original(engine, *args, **kwargs)
            runs.append((log.steps, len(calls)))
            return log

        monkeypatch.setattr(safe_exec, "run", counting_run)
        assert run_cli(*argv) == 0
        return runs

    def test_free_scenario_runs_once(self, monkeypatch, tmp_path):
        model_out = tmp_path / "mj.json"
        assert run_cli("learn", "--demo", "builtin:minjerk", "--out", str(model_out)) == 0
        runs = self.count_runs(
            monkeypatch, "run", "--model", str(model_out),
            "--scenario", str(SCENARIO_DIR / "free_minjerk.json"),
            "--out", str(tmp_path / "free"),
        )
        assert len(runs) == 1
        assert runs[0][0] > 0 and runs[0][1] == 0  # replayed in full

    @staticmethod
    def kicked_scenario(tmp_path, plant="ideal"):
        scenario = bench.load_scenario(SCENARIO_DIR / "static_one_sshape.json")
        scenario = dataclasses.replace(
            scenario,
            perturbations=(bench.Perturbation(t_apply=0.5, offset=[0.0, 0.02, 0.0]),),
            execution=dataclasses.replace(scenario.execution, plant=plant),
        )
        spath = tmp_path / "kicked.json"
        bench.save_scenario(scenario, spath)
        return spath

    @pytest.mark.parametrize("name", ["static_one_sshape", "perturb_two_sshape"])
    def test_ideal_plant_twin_comes_from_the_rollout(
        self, name, model_path, monkeypatch, tmp_path
    ):
        runs = self.count_runs(
            monkeypatch, "run", "--model", str(model_path),
            "--scenario", str(SCENARIO_DIR / f"{name}.json"),
            "--out", str(tmp_path / name),
        )
        # main run and one obstacle-free twin, which calls no control
        assert len(runs) == 2
        assert 0 < runs[0][1] < runs[0][0]
        assert runs[1][0] > 0 and runs[1][1] == 0

    def test_obstacles_and_perturbations_run_main_and_unperturbed_twin(
        self, model_path, monkeypatch, tmp_path
    ):
        runs = self.count_runs(
            monkeypatch, "run", "--model", str(model_path),
            "--scenario", str(self.kicked_scenario(tmp_path)),
            "--out", str(tmp_path / "kicked"),
        )
        # main run, the unperturbed twin with obstacles and the obstacle-free
        # twin; only the last replays the whole rollout
        assert len(runs) == 3
        assert [calls == 0 for _, calls in runs] == [False, False, True]

    def test_lag_plant_runs_main_and_two_twins(self, model_path, monkeypatch, tmp_path):
        runs = self.count_runs(
            monkeypatch, "run", "--model", str(model_path),
            "--scenario", str(self.kicked_scenario(tmp_path, "first-order-lag")),
            "--out", str(tmp_path / "kicked"),
        )
        # main run, unperturbed twin, obstacle-free twin: all stepped
        assert len(runs) == 3
        assert all(steps == calls > 0 for steps, calls in runs)


class TestBench:
    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code = run_cli("bench", "--scenario-dir", str(empty),
                       "--out", str(tmp_path / "empty"))
        assert code == 0
        doc = json.loads((tmp_path / "empty_report.json").read_text())
        assert doc["rows"] == []

    def test_canned_suite_determinism(self, tmp_path):
        for tag in ("a", "b"):
            code = run_cli("bench", "--scenario-dir", str(SCENARIO_DIR),
                           "--out", str(tmp_path / tag))
            assert code == 0
        assert (
            (tmp_path / "a_report.json").read_bytes()
            == (tmp_path / "b_report.json").read_bytes()
        )
        doc = json.loads((tmp_path / "a_report.json").read_text())
        assert doc["schema_version"] == 1
        safedmp_rows = [r for r in doc["rows"] if r["method"] == "safedmp"]
        assert safedmp_rows and all(
            r["metrics"]["collision_count"] == 0 for r in safedmp_rows
        )

    def test_matches_committed_golden(self, tmp_path):
        golden = pathlib.Path(__file__).parent / "data" / "golden_report.json"
        code = run_cli("bench", "--scenario-dir", str(SCENARIO_DIR),
                       "--out", str(tmp_path / "g"))
        assert code == 0
        assert (tmp_path / "g_report.json").read_bytes() == golden.read_bytes()


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "safedmp.cli", "learn",
         "--demo", "builtin:minjerk", "--out", str(tmp_path / "m.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "m.json").exists()


def test_import_and_run_load_no_scipy(tmp_path):
    # scipy is needed only by ``learn --rotate-random``; importing the
    # package and learning and running a canned scenario must not load it
    script = f"""
import sys
import safedmp, safedmp.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
from safedmp import cli
out = {str(tmp_path)!r}
assert cli.main(["learn", "--demo", "builtin:sshape", "--out", out + "/m.json"]) == 0
assert cli.main(["run", "--model", out + "/m.json", "--scenario",
                 {str(SCENARIO_DIR / "static_one_sshape.json")!r},
                 "--out", out + "/run"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_cached_parser_dispatches_to_current_command(monkeypatch, tmp_path):
    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_run", lambda args: 7)
    assert run_cli("run", "--model", "m.json", "--scenario", "s.json",
                   "--out", str(tmp_path / "run")) == 7
    assert cli.build_parser() is cli.build_parser()


coordinate = st.floats(-1.0, 1.0)
vector = st.lists(coordinate, min_size=3, max_size=3)


@st.composite
def scenario_document(draw, path, tau):
    """A scenario document with a short horizon, either plant, obstacles
    near the nominal ``path`` (some overlapping) and perturbations (at t=0
    among others) for a model of time scale ``tau``."""
    factor = draw(st.floats(0.05, 2.0))
    obstacles = []
    for _ in range(draw(st.integers(0, 3))):
        center = path[draw(st.integers(0, len(path) - 1))]
        if obstacles and draw(st.booleans()):  # next to the last one
            center = np.array(obstacles[-1]["center"])
        obstacle = {
            "center": (center + 0.1 * np.array(draw(vector))).tolist(),
            "radius": draw(st.floats(0.005, 0.12)),
        }
        if draw(st.booleans()):
            obstacle["velocity"] = (0.3 * np.array(draw(vector))).tolist()
        if draw(st.booleans()):
            t0 = draw(st.floats(0.0, 2.0))
            obstacle["active_window"] = [t0, t0 + draw(st.floats(0.01, 2.0))]
        obstacles.append(obstacle)
    # past the horizon is an input error
    t_apply = st.just(0.0) | st.floats(0.0, 1.1 * factor * tau)
    perturbations = [
        {"t_apply": draw(t_apply), "offset": (0.1 * np.array(draw(vector))).tolist()}
        for _ in range(draw(st.integers(0, 3)))
    ]
    return {
        "method": draw(st.sampled_from(bench.METHODS)),
        "dt": draw(st.sampled_from([0.004, 0.005, 0.01])),
        "obstacles": obstacles,
        "perturbations": perturbations,
        "safety": {"delta_gamma": draw(st.floats(0.01, 0.3))},
        "apf": {"d0": draw(st.none() | st.floats(0.01, 0.3))},
        "execution": {
            "goal_tol": draw(st.floats(1e-4, 0.1)),
            "max_horizon_factor": factor,
            "plant": draw(st.sampled_from(["ideal", "first-order-lag"])),
        },
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_fuzz_exits_with_a_code_and_logs_the_stepped_run(data, model_path):
    """Every document ends in exit 0, 2, 3 or 4, never a traceback; an
    ideal-plant log holds the rows of the run stepped from its first step."""
    model = dmp.load_model(model_path)
    path = dmp.rollout(model, 0.005).trajectory.points
    doc = data.draw(scenario_document(path, model.tau_nominal))
    with tempfile.TemporaryDirectory() as tmp:
        spath = pathlib.Path(tmp) / "fuzz.json"
        spath.write_text(json.dumps(doc), encoding="utf-8")
        prefix = pathlib.Path(tmp) / "fuzz"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_cli("run", "--model", str(model_path), "--scenario",
                           str(spath), "--out", str(prefix))
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_INFEASIBLE,
                        cli.EXIT_NONCONVERGED)
        if code == cli.EXIT_INPUT or doc["execution"]["plant"] != "ideal":
            return
        rows = cli.read_log_csv(prefix.with_name("fuzz_log.csv"))
    prepared = bench.plan(bench.scenario_from_dict(doc, name="fuzz"), model)
    stepped = bench.run_scenario(dataclasses.replace(prepared, rollout=None))
    assert np.array_equal(rows.view(np.int64), stepped.rows.view(np.int64))
    if stepped.safety_infeasible:
        assert code == cli.EXIT_INFEASIBLE
    else:
        assert code == (cli.EXIT_OK if stepped.converged else cli.EXIT_NONCONVERGED)
