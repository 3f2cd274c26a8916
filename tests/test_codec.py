"""Scenario and model documents: the dataclass-driven JSON codec.

Property tests (Hypothesis) check that every generated scenario and model
survives a trip through JSON text unchanged, and that any JSON value, or a
valid document with one value replaced by any JSON value, either parses or
raises :class:`InvalidInputError`.
"""

import copy
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safedmp import baselines, bench, codec, dmp, safe_exec
from safedmp.errors import InvalidInputError

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

PROPERTY = settings(max_examples=100, deadline=None)

finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6, allow_nan=False)
vectors = st.lists(finite, min_size=3, max_size=3)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def obstacles(draw):
    window = draw(st.none() | st.tuples(finite, positive))
    return safe_exec.Obstacle(
        center0=draw(vectors),
        radius=draw(positive),
        velocity=draw(st.none() | vectors),
        active_window=None if window is None else (window[0], window[0] + window[1]),
    )


@st.composite
def scenarios(draw):
    return bench.Scenario(
        name=draw(st.text(max_size=12)),
        demo_source=draw(st.sampled_from(["builtin:sshape", "builtin:minjerk", "d.csv"])),
        method=draw(st.sampled_from(bench.METHODS)),
        dt=draw(positive),
        obstacles=draw(st.lists(obstacles(), max_size=3)),
        perturbations=draw(st.lists(
            st.builds(bench.Perturbation, t_apply=st.floats(0, 1e3), offset=vectors),
            max_size=3,
        )),
        preprocess=bench.PreprocessOptions(
            resample_n=draw(st.integers(2, 5000)),
            cutoff_hz=draw(positive),
            z_height=draw(finite),
            rotation=draw(st.none() | st.tuples(*[finite] * 9)),
        ),
        dmp=bench.DmpOptions(alpha=draw(positive), n_basis=draw(st.integers(2, 100))),
        safety=safe_exec.SafetyParams(
            delta_gamma=draw(positive), gain=draw(positive),
            clip_limit=draw(st.floats(1e-6, 0.999)),
        ),
        apf=baselines.ApfParams(
            eta=draw(st.floats(0, 1e3)),
            d0=draw(st.none() | positive),
            max_force=draw(st.none() | positive),
        ),
        execution=bench.ExecutionOptions(
            goal_tol=draw(positive),
            max_horizon_factor=draw(positive),
            plant=draw(st.sampled_from(["ideal", "first-order-lag"])),
            plant_tau=draw(positive),
        ),
    )


def arrays(shape):
    size = math.prod(shape)
    return st.lists(finite, min_size=size, max_size=size).map(
        lambda v: np.reshape(v, shape))


@st.composite
def models(draw):
    d = draw(st.integers(1, 3))
    n_basis = draw(st.integers(1, 6))
    centers = draw(st.lists(st.floats(1e-3, 1.0), min_size=n_basis,
                            max_size=n_basis, unique=True))
    return dmp.DmpModel(
        d=d, n_basis=n_basis, alpha=draw(positive), tau_nominal=draw(positive),
        x0=draw(arrays((d,))), g=draw(arrays((d,))),
        centers=sorted(centers, reverse=True),
        widths=draw(st.lists(positive, min_size=n_basis, max_size=n_basis)),
        weights=draw(arrays((d, n_basis))),
    )


def through_json(doc):
    return json.loads(json.dumps(doc))


def paths(doc, prefix=()):
    """Every key and index path into a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def parses_or_rejects(read, doc):
    try:
        read(doc)
    except InvalidInputError:
        pass


CANNED = json.loads((SCENARIO_DIR / "windowed_moving_sshape.json").read_text())
CANNED["perturbations"] = [{"t_apply": 0.5, "offset": [0.0, 0.05, 0.0]}]
CANNED["preprocess"]["rotation"] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
CANNED_PATHS = list(paths(CANNED))


class TestRoundTrip:
    @PROPERTY
    @given(scenarios())
    def test_scenario(self, scenario):
        doc = bench.scenario_to_dict(scenario)
        back = bench.scenario_from_dict(through_json(doc))
        assert bench.scenario_to_dict(back) == doc

    @PROPERTY
    @given(models())
    def test_model(self, model):
        doc = dmp.model_to_dict(model)
        back = dmp.model_from_dict(through_json(doc))
        assert dmp.model_to_dict(back) == doc
        np.testing.assert_array_equal(back.weights, model.weights)

    def test_canned_files_round_trip(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            doc = json.loads(path.read_text())
            assert bench.scenario_to_dict(bench.scenario_from_dict(doc)) == doc


class TestFuzz:
    @PROPERTY
    @given(json_values)
    def test_any_json_scenario(self, value):
        parses_or_rejects(bench.scenario_from_dict, value)

    @PROPERTY
    @given(st.sampled_from(CANNED_PATHS), json_values)
    def test_scenario_with_one_value_replaced(self, path, value):
        parses_or_rejects(bench.scenario_from_dict, replaced(CANNED, path, value))

    @PROPERTY
    @given(json_values)
    def test_any_json_model(self, value):
        parses_or_rejects(dmp.model_from_dict, value)

    @PROPERTY
    @given(st.data(), json_values)
    def test_model_with_one_value_replaced(self, sshape_model, data, value):
        doc = dmp.model_to_dict(sshape_model)
        path = data.draw(st.sampled_from(list(paths(doc))))
        parses_or_rejects(dmp.model_from_dict, replaced(doc, path, value))


class TestTypeRules:
    @pytest.mark.parametrize("doc, message", [
        ({"dt": 1}, None),
        ({"dt": True}, "scenario.dt: expected a number, got bool"),
        ({"dt": "0.005"}, "scenario.dt: expected a number, got str"),
        ({"dt": 10**400}, "scenario.dt: number out of range"),
        ({"dmp": {"n_basis": 25.0}}, "scenario.dmp.n_basis: expected an integer"),
        ({"apf": {"d0": None}}, None),
        ({"apf": {"eta": None}}, "scenario.apf.eta: expected a number, got null"),
        ({"obstacles": [{"center": [0, 0, 0], "radius": 1, "extra": 0}]},
         "scenario.obstacles[0]: unknown fields ['extra']"),
        ({"obstacles": [{"center0": [0, 0, 0], "radius": 1}]},
         "scenario.obstacles[0]: unknown fields ['center0']"),
        ({"perturbations": [{"t_apply": 0, "offset": [0, True, 0]}]},
         "scenario.perturbations[0].offset[1]: expected a number, got bool"),
        ({"schema_version": 2}, "scenario.schema_version"),
    ])
    def test_scenario_values(self, doc, message):
        if message is None:
            bench.scenario_from_dict(doc)
        else:
            with pytest.raises(InvalidInputError) as info:
                bench.scenario_from_dict(doc)
            assert str(info.value).startswith(message)

    def test_defaults_come_from_the_dataclasses(self):
        assert bench.scenario_from_dict({}) == bench.Scenario()
        assert bench.scenario_from_dict({}, name="stem").name == "stem"
        assert bench.scenario_from_dict({"name": "doc"}, name="stem").name == "doc"

    def test_model_fields_are_all_required(self, sshape_model):
        doc = dmp.model_to_dict(sshape_model)
        del doc["widths"]
        with pytest.raises(InvalidInputError, match=r"model\.widths: required"):
            dmp.model_from_dict(doc)

    def test_model_weights_count_checked(self, sshape_model):
        doc = dmp.model_to_dict(sshape_model)
        doc["weights"] = doc["weights"][:-1]
        with pytest.raises(InvalidInputError, match="weights must have shape"):
            dmp.model_from_dict(doc)

    def test_report_metrics_block_is_every_field(self):
        metrics = bench.MetricsReport(None, None, 0.1, None, None, None, 0, None,
                                      False, True)
        row = bench.report_to_dict([bench.ReportRow("s", "safedmp", metrics)])["rows"][0]
        assert row == {"scenario": "s", "method": "safedmp", "error": None,
                       "metrics": codec.to_doc(metrics)}
        assert list(row["metrics"]) == [
            "exec_time_mean_s", "exec_time_p99_s", "mae_nominal_m",
            "mae_perturbed_m", "conv_time_perturb_s", "conv_time_oa_s",
            "collision_count", "min_clearance_m", "oscillation_flag", "converged",
        ]


class TestRangeChecks:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": math.inf}, {"alpha": math.nan}, {"n_basis": 1},
    ])
    def test_dmp_options(self, kwargs):
        with pytest.raises(InvalidInputError):
            bench.DmpOptions(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"resample_n": 1}, {"cutoff_hz": 0.0}, {"cutoff_hz": math.nan},
        {"z_height": math.inf}, {"rotation": (1.0, 0.0, 0.0)},
        {"rotation": (math.nan,) * 9},
    ])
    def test_preprocess_options(self, kwargs):
        with pytest.raises(InvalidInputError):
            bench.PreprocessOptions(**kwargs)

    @pytest.mark.parametrize("window", [(1.0,), (0.0, 1.0, 2.0)])
    def test_obstacle_window_length(self, window):
        with pytest.raises(InvalidInputError, match="active_window"):
            safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.1, active_window=window)

    @pytest.mark.parametrize("name, value", [
        ("alpha", math.nan), ("tau_nominal", math.nan), ("tau_nominal", math.inf),
        ("x0", [math.nan, 0.0, 0.0]), ("weights", None), ("d", 0),
    ])
    def test_model_rejects_non_finite(self, sshape_model, name, value):
        kwargs = {f: getattr(sshape_model, f) for f in
                  ("d", "n_basis", "alpha", "tau_nominal", "x0", "g",
                   "centers", "widths", "weights")}
        if value is None:  # a NaN weight
            value = sshape_model.weights.copy()
            value[1, 2] = math.nan
        kwargs[name] = value
        with pytest.raises(InvalidInputError):
            dmp.DmpModel(**kwargs)
