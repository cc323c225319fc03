"""Experiment registry, configuration validation, reports, and CLI."""

import json
import math
import tracemalloc

import pytest

from pcsft import gaussian
from pcsft.cli import main
from pcsft.experiments import (
    REGISTRY,
    ConfigError,
    MetricRow,
    _relative_defect,
    _run_purestate_sampling,
    list_experiments,
    load_config,
    run_experiment,
    validate_config,
)

ALL_NAMES = [
    "schrodinger-equivalence",
    "dispersion-preservation",
    "heisenberg-check",
    "von-neumann-square",
    "purestate-sampling",
    "alpha-scan",
    "norm-audit",
    "oddness-audit",
    "field-spectrum",
    "field-correspondence",
]


def test_registry_names():
    assert list(REGISTRY) == ALL_NAMES
    assert [name for name, _ in list_experiments()] == ALL_NAMES


class TestMetricRow:
    def test_upper_bound(self):
        assert MetricRow("m", 0.5, 1.0).passed
        assert not MetricRow("m", 2.0, 1.0).passed

    def test_lower_bound(self):
        assert MetricRow("m", 2.0, 1.0, ">=").passed
        assert not MetricRow("m", 0.5, 1.0, ">=").passed

    def test_bad_comparison_rejected(self):
        with pytest.raises(ValueError):
            MetricRow("m", 0.0, 1.0, "==")


class TestConfigValidation:
    def test_defaults_merged(self):
        cfg = validate_config({"experiment": "alpha-scan", "seed": 1})
        assert cfg["params"]["count"] == 200000
        assert cfg["params"]["alphas"] == [0.1, 0.03, 0.01, 0.003, 0.001]

    def test_override(self):
        cfg = validate_config({"experiment": "alpha-scan", "seed": 1, "count": 50})
        assert cfg["params"]["count"] == 50

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config({"experiment": "nope", "seed": 1})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            validate_config({"experiment": "alpha-scan", "seed": 1, "bogus": 2})

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"experiment": "alpha-scan"})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"experiment": "alpha-scan", "seed": 1.5})
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"experiment": "alpha-scan", "seed": True})

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="count"):
            validate_config({"experiment": "alpha-scan", "seed": 1, "count": "many"})
        with pytest.raises(ConfigError, match="out_dir"):
            validate_config({"experiment": "alpha-scan", "seed": 1, "out_dir": 3})
        # list elements must match the default's element type, bools never
        bad = [
            ("field-spectrum", "grid_sizes", [64.5, 128, 256], "list of int"),
            ("schrodinger-equivalence", "times", [True, 0.9, 1.6], "list of float"),
            ("alpha-scan", "alphas", ["x"], "list of float"),
        ]
        for name, key, value, kind in bad:
            with pytest.raises(ConfigError, match=f"'{key}'.*{kind}"):
                validate_config({"experiment": name, "seed": 1, key: value})

    def test_int_accepted_for_float(self):
        cfg = validate_config({"experiment": "norm-audit", "seed": 1, "t_final": 1})
        assert cfg["params"]["t_final"] == 1.0
        # list elements are not coerced, so the config hash sees the given JSON
        cfg = validate_config({"experiment": "schrodinger-equivalence", "seed": 1, "times": [1, 0.5]})
        assert cfg["params"]["times"] == [1, 0.5] and type(cfg["params"]["times"][0]) is int

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "norm-audit", "seed": 4}))
        assert load_config(path)["seed"] == 4

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(path)

    def test_load_config_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)


FAST_CONFIGS = [
    {"experiment": "schrodinger-equivalence", "seed": 7},
    {"experiment": "dispersion-preservation", "seed": 7, "params": {"count": 20000}},
    {"experiment": "heisenberg-check", "seed": 7},
    {"experiment": "von-neumann-square", "seed": 7},
    {"experiment": "purestate-sampling", "seed": 7, "params": {"count": 20000}},
    {"experiment": "alpha-scan", "seed": 7, "params": {"count": 20000}},
    {"experiment": "norm-audit", "seed": 7},
    {"experiment": "oddness-audit", "seed": 7, "params": {"count": 4000}},
    {"experiment": "field-spectrum", "seed": 7},
    {
        "experiment": "field-correspondence",
        "seed": 7,
        "params": {"n_points": 32, "count": 20000},
    },
]


@pytest.mark.parametrize("config", FAST_CONFIGS, ids=lambda c: c["experiment"])
def test_every_experiment_passes(config):
    record = run_experiment(dict(config), write_reports=False)
    failed = [m.name for m in record.metrics if not m.passed]
    assert record.passed, f"failed metrics: {failed}"


@pytest.mark.parametrize("seed", [17, 23, 26, 39])
def test_norm_audit_integrates_its_polynomial_flow(seed):
    # at these seeds the fixed-point sweeps of step 0 did not contract
    # and raised IntegrationError
    record = run_experiment({"experiment": "norm-audit", "seed": seed}, write_reports=False)
    assert record.passed, [m.name for m in record.metrics if not m.passed]


@pytest.mark.parametrize(
    "config, row",
    [
        ({"experiment": "dispersion-preservation", "params": {"count": 2000}}, "trace_identity_relative_defect"),
        ({"experiment": "field-correspondence", "params": {"n_points": 16, "count": 2000}}, "trace_formula_relative_defect"),
    ],
    ids=["dispersion-preservation", "field-correspondence"],
)
def test_trace_rows_are_relative_at_every_dispersion(monkeypatch, config, row):
    # an exact average off by a relative 1e-9 breaks the 1e-12 trace row
    # at every dispersion alpha, not only at alpha >= 1
    original = gaussian.quadratic_average
    monkeypatch.setattr(gaussian, "quadratic_average", lambda *args: original(*args) * (1.0 + 1e-9))
    for alpha in (2.0, 0.05, 1e-8):
        params = dict(config["params"], alpha=alpha)
        record = run_experiment(dict(config, seed=5, params=params), write_reports=False)
        (metric,) = [m for m in record.metrics if m.name == row]
        assert not metric.passed
        assert metric.value == pytest.approx(1e-9, rel=1e-4)


def test_purestate_sampling_holds_little_beyond_its_samples():
    # each check may hold one array of the sample's size beside it
    params = dict(REGISTRY["purestate-sampling"].defaults, count=50_000)
    sample_bytes = params["count"] * 2 * params["dimension"] * 8
    gaussian.ndtri(0.5)  # loads scipy.special outside the trace
    tracemalloc.start()
    try:
        rows = _run_purestate_sampling(params, 3, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row.passed for row in rows)
    assert peak <= 2.5 * sample_bytes


def test_relative_defect_is_scale_free():
    # scaling by a power of two is exact, so the defect keeps its bits
    for value, reference in [(1.0 + 3e-13, 1.0), (-2.5, -2.5 + 1e-12), (0.3, 0.0), (0.0, 0.0)]:
        expected = _relative_defect(value, reference)
        for scale in (2.0**-60, 2.0**-20, 2.0**30):
            assert _relative_defect(scale * value, scale * reference) == expected
    assert _relative_defect(0.3, 0.0) == math.inf and _relative_defect(0.0, 0.0) == 0.0


class TestReports:
    def test_json_shape_and_no_duration(self, tmp_path):
        record = run_experiment(
            {"experiment": "norm-audit", "seed": 3, "out_dir": str(tmp_path)}
        )
        payload = json.loads((tmp_path / "norm-audit-report.json").read_text())
        assert payload["schema_version"] == "1"
        assert payload["experiment"] == "norm-audit"
        assert payload["seed"] == 3
        assert payload["passed"] is True
        assert "duration" not in json.dumps(payload)
        assert record.duration_seconds > 0
        names = [m["name"] for m in payload["metrics"]]
        assert "counterexample_np_defect" in names

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        config = {
            "experiment": "alpha-scan",
            "seed": 11,
            "params": {"count": 20000},
        }
        run_experiment({**config, "out_dir": str(a)})
        run_experiment({**config, "out_dir": str(b)})
        for name in (
            "alpha-scan-report.json",
            "alpha-scan-report.csv",
            "alpha-scan-points.csv",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_hash_tracks_inputs(self):
        base = run_experiment(
            {"experiment": "heisenberg-check", "seed": 1}, write_reports=False
        )
        other_seed = run_experiment(
            {"experiment": "heisenberg-check", "seed": 2}, write_reports=False
        )
        other_param = run_experiment(
            {"experiment": "heisenberg-check", "seed": 1, "params": {"time": 0.7}},
            write_reports=False,
        )
        assert base.config_hash != other_seed.config_hash
        assert base.config_hash != other_param.config_hash
        repeat = run_experiment(
            {"experiment": "heisenberg-check", "seed": 1}, write_reports=False
        )
        assert base.config_hash == repeat.config_hash

    def test_csv_header(self, tmp_path):
        run_experiment(
            {"experiment": "heisenberg-check", "seed": 1, "out_dir": str(tmp_path)}
        )
        lines = (tmp_path / "heisenberg-check-report.csv").read_text().splitlines()
        assert lines[0] == "name,value,stderr,tolerance,comparison,passed"
        assert len(lines) == 4

    def test_artifact_trajectory_written(self, tmp_path):
        run_experiment(
            {"experiment": "norm-audit", "seed": 3, "out_dir": str(tmp_path)}
        )
        lines = (tmp_path / "norm-audit-trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,q_0,p_0,energy,norm"

    def test_artifact_ground_state_written(self, tmp_path):
        run_experiment(
            {
                "experiment": "field-correspondence",
                "seed": 3,
                "params": {"n_points": 16, "count": 2000},
                "out_dir": str(tmp_path),
            }
        )
        lines = (tmp_path / "field-ground-state.csv").read_text().splitlines()
        assert lines[0] == "x,re,im,abs2" and len(lines) == 17


class TestCli:
    def _write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_NAMES:
            assert name in out

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            {"experiment": "norm-audit", "seed": 3, "out_dir": str(tmp_path / "out")},
        )
        assert main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7
        assert "norm-audit: PASS (7/7 metrics" in out
        assert (tmp_path / "out" / "norm-audit-report.json").exists()

    def test_run_metric_failure_exit_one(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            {
                "experiment": "norm-audit",
                "seed": 3,
                "dt": 0.1,
                "out_dir": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] counterexample_endpoint_error" in out
        payload = json.loads(
            (tmp_path / "out" / "norm-audit-report.json").read_text()
        )
        assert payload["passed"] is False

    def test_run_config_error_exit_two(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"experiment": "norm-audit", "seed": 3, "oops": 1})
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        cfg = self._write(tmp_path, {"experiment": "alpha-scan", "seed": 3, "alphas": ["x"]})
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        # well-typed but out-of-range lists: empty, non-positive alphas,
        # too few times for the group law
        for name, key, value in [
            ("alpha-scan", "alphas", []),
            ("alpha-scan", "alphas", [-0.1, 0.01]),
            ("alpha-scan", "alphas", [0.1, 0]),
            ("schrodinger-equivalence", "times", []),
            ("schrodinger-equivalence", "times", [0.3]),
            ("oddness-audit", "times", []),
            # oddness-audit integrates to each time, so none may be zero
            ("oddness-audit", "times", [0.0, -0.3]),
            ("oddness-audit", "times", [0.3, 0.0]),
            ("dispersion-preservation", "times", []),
            ("field-spectrum", "grid_sizes", []),
            ("field-spectrum", "grid_sizes", [64, 1, 256]),
            # the Richardson ratio needs exactly three sizes, each twice
            # the one before
            ("field-spectrum", "grid_sizes", [64, 64, 64]),
            ("field-spectrum", "grid_sizes", [64, 128, 128]),
            ("field-spectrum", "grid_sizes", [64, 96, 128]),
            ("field-spectrum", "grid_sizes", [64, 128]),
            # out-of-range scalars: too few rows for a standard error, no
            # dimension or grid, a zero step, a negative dispersion, and
            # no trials (which would pass without testing anything)
            ("dispersion-preservation", "count", 1),
            ("oddness-audit", "count", 0),
            ("field-correspondence", "count", 0),
            ("norm-audit", "dimension", 0),
            ("field-correspondence", "n_points", 1),
            ("oddness-audit", "dt", 0.0),
            ("norm-audit", "poly_dt", -0.01),
            ("norm-audit", "t_final", 0.0),
            ("heisenberg-check", "eps", 0.0),
            ("dispersion-preservation", "alpha", -1.0),
            ("oddness-audit", "alpha", 0.0),
            ("field-spectrum", "mass", 0.0),
            ("schrodinger-equivalence", "trials", 0),
        ]:
            cfg = self._write(tmp_path, {"experiment": name, "seed": 3, key: value})
            assert main(["run", cfg]) == 2, (name, key, value)
            assert "config error" in capsys.readouterr().err

    def test_run_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_usage_error_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"experiment": "heisenberg-check", "seed": 1})
        out_dir = tmp_path / "elsewhere"
        assert main(["run", cfg, "--seed", "9", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        payload = json.loads(
            (out_dir / "heisenberg-check-report.json").read_text()
        )
        assert payload["seed"] == 9
