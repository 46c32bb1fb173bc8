import json
import math

import numpy as np
import pytest

from margin_spectra.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    run,
    validate_config,
)
from margin_spectra.shatter import write_points_csv
from margin_spectra.spectral import CovarianceSpectrum, write_spectrum_csv


# a valid full distribution spec; the bad-dist cases below each break one field
FULL_SPEC = {"laws": [{"kind": "gaussian"}, {"kind": "gaussian"}], "variances": [1.0, 2.0],
             "rotation": None, "label_model": {"kind": "coin", "p": 0.5}}


def assert_outputs_listed(report, out_dir):
    """The report lists exactly the files the run wrote besides report.json."""
    assert sorted(report["outputs"]) == sorted(
        str(path) for path in out_dir.iterdir() if path.name != "report.json")


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestValidation:
    def test_accepts_minimal(self):
        cfg = validate_config("kgamma", {"schema_version": 1,
                                         "spectrum_csv": "s.csv", "gamma": 1.0})
        assert cfg.command == "kgamma"
        assert cfg.params["gamma"] == 1.0

    def test_missing_schema_version(self):
        with pytest.raises(ConfigError):
            validate_config("kgamma", {"spectrum_csv": "s.csv", "gamma": 1.0})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            validate_config("kgamma", {"schema_version": 1, "gamma": 1.0})

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            validate_config("kgamma", {"schema_version": 1, "spectrum_csv": "s",
                                       "gamma": 1.0, "extra": True})

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            validate_config("frobnicate", {"schema_version": 1})

    def test_config_json_roundtrip(self):
        cfg = validate_config("eigen-prob", {
            "schema_version": 1, "dist": {"example": "spiky", "d": 11},
            "gamma": 1.0, "m": 2, "trials": 5, "seed": 7})
        back = validate_config("eigen-prob", cfg.to_json())
        assert back == cfg

    def test_accepts_full_spec(self):
        cfg = validate_config("eigen-prob", {
            "schema_version": 1, "dist": FULL_SPEC,
            "gamma": 1.0, "m": 2, "trials": 5, "seed": 7})
        assert cfg.params["dist"] == FULL_SPEC


class TestRun:
    def test_kgamma_spiky(self, tmp_path):
        s = CovarianceSpectrum(np.array([1000.0] + [0.001] * 1000))
        csv_path = tmp_path / "spec.csv"
        write_spectrum_csv(csv_path, s)
        report = run(ExperimentConfig("kgamma", {
            "spectrum_csv": str(csv_path), "gamma": 1.0}), tmp_path / "out")
        assert report["summary"]["k"] == 1
        assert (tmp_path / "out" / "report.json").exists()
        assert_outputs_listed(report, tmp_path / "out")

    def test_shatter_check_writes_certificate(self, tmp_path):
        pts_path = tmp_path / "pts.csv"
        write_points_csv(pts_path, math.sqrt(2) * np.eye(2))
        report = run(ExperimentConfig("shatter-check", {
            "points_csv": str(pts_path), "gamma": 1.0}), tmp_path / "out")
        assert report["summary"]["shattered"] is True
        cert = json.loads((tmp_path / "out" / "shatter_certificate.json").read_text())
        assert cert["shattered"] is True
        assert_outputs_listed(report, tmp_path / "out")

    def test_limit_cert_writes_top_basis(self, tmp_path):
        pts_path = tmp_path / "pts.csv"
        write_points_csv(pts_path, np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        report = run(ExperimentConfig("limit-cert", {
            "points_csv": str(pts_path), "k": 1}), tmp_path / "out")
        cert = json.loads((tmp_path / "out" / "limit_cert.json").read_text())
        assert sorted(cert) == ["b", "k", "top_basis"]
        assert report["summary"] == {"b": cert["b"], "k": 1}
        assert cert["b"] == pytest.approx(1.0)
        assert np.allclose(np.abs(cert["top_basis"]), [[1.0, 0.0, 0.0]])
        assert_outputs_listed(report, tmp_path / "out")

    def test_eigen_prob_deterministic_outputs(self, tmp_path):
        cfg = {"dist": {"example": "bernoulli", "d": 10}, "gamma": 1.0,
               "m": 4, "trials": 20, "seed": 5}
        r1 = run(ExperimentConfig("eigen-prob", {**cfg, "workers": 1}),
                 tmp_path / "o1")
        r2 = run(ExperimentConfig("eigen-prob", {**cfg, "workers": 4}),
                 tmp_path / "o2")
        assert r1["summary"] == r2["summary"]
        assert ((tmp_path / "o1" / "eigen_prob.csv").read_bytes()
                == (tmp_path / "o2" / "eigen_prob.csv").read_bytes())
        assert_outputs_listed(r1, tmp_path / "o1")
        assert_outputs_listed(r2, tmp_path / "o2")

    def test_sample_complexity_from_csv(self, tmp_path):
        curve_path = tmp_path / "curve.csv"
        curve_path.write_text(
            "m,mean_test_error,std_error,trials,learner_kind,gamma,seed\n"
            "10,0.30,0.0,10,erm_exact,1.0,0\n"
            "20,0.10,0.0,10,erm_exact,1.0,0\n")
        report = run(ExperimentConfig("sample-complexity", {
            "curve_csv": str(curve_path), "lstar": 0.02, "epsilon": 0.1}),
            tmp_path / "out")
        assert report["summary"]["m"] == 20
        assert report["summary"]["reached"] is True

    def test_sample_complexity_unsorted_csv_gives_smallest_m(self, tmp_path):
        curve_path = tmp_path / "curve.csv"
        curve_path.write_text(
            "m,mean_test_error,std_error,trials,learner_kind,gamma,seed\n"
            "8,0.1,0.0,10,erm_heuristic,1.0,0\n"
            "4,0.1,0.0,10,erm_heuristic,1.0,0\n"
            "6,0.3,0.0,10,erm_heuristic,1.0,0\n")
        report = run(ExperimentConfig("sample-complexity", {
            "curve_csv": str(curve_path), "lstar": 0, "epsilon": 0.15}),
            tmp_path / "out")
        assert report["summary"] == {"epsilon": 0.15, "lstar": 0.0, "m": 4, "reached": True}

    def test_sample_complexity_header_only_not_reached(self, tmp_path):
        curve_path = tmp_path / "curve.csv"
        curve_path.write_text("m,mean_test_error,std_error,trials,learner_kind,gamma,seed\n")
        report = run(ExperimentConfig("sample-complexity", {
            "curve_csv": str(curve_path), "lstar": 0.02, "epsilon": 0.1}),
            tmp_path / "out")
        assert report["summary"]["m"] is None
        assert report["summary"]["reached"] is False

    def test_report_carries_digest_and_version(self, tmp_path):
        s = CovarianceSpectrum(np.array([1.0]))
        csv_path = tmp_path / "spec.csv"
        write_spectrum_csv(csv_path, s)
        report = run(ExperimentConfig("kgamma", {
            "spectrum_csv": str(csv_path), "gamma": 1.0}), tmp_path / "out")
        assert len(report["inputs_digest"]) == 64
        assert report["library_version"]

    def test_digest_covers_input_file_bytes(self, tmp_path):
        csv_path = tmp_path / "spec.csv"
        cfg = ExperimentConfig("kgamma", {"spectrum_csv": str(csv_path), "gamma": 1.0})

        def digest(eigenvalues):
            write_spectrum_csv(csv_path, CovarianceSpectrum(np.array(eigenvalues)))
            return run(cfg, tmp_path / "out")["inputs_digest"]

        first = digest([4.0, 1.0])
        assert digest([4.0, 1.0]) == first
        assert digest([9.0, 0.5]) != first


class TestMain:
    def test_happy_path_exit_zero(self, tmp_path, capsys):
        s = CovarianceSpectrum(np.array([4.0, 1.0, 1.0, 1.0, 1.0]))
        csv_path = tmp_path / "spec.csv"
        write_spectrum_csv(csv_path, s)
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "spectrum_csv": str(csv_path), "gamma": 1.0,
            "out": str(tmp_path / "out")})
        assert main(["kgamma", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 3

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["kgamma", "--config", str(bad)]) == 2

    def test_unknown_field_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "spectrum_csv": "x.csv", "gamma": 1.0,
            "bogus": 1})
        assert main(["kgamma", "--config", cfg]) == 2

    def test_runtime_error_exit_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "spectrum_csv": str(tmp_path / "missing.csv"),
            "gamma": 1.0, "out": str(tmp_path / "out")})
        assert main(["kgamma", "--config", cfg]) == 3

    @pytest.mark.parametrize("seed", [-3, 2**63, 1.5, "7", True])
    def test_bad_seed_exit_two(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "dist": {"example": "bernoulli", "d": 8},
            "gamma": 1.0, "m": 3, "trials": 10, "seed": seed,
            "out": str(tmp_path / "out")})
        assert main(["eigen-prob", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err

    BASE_CONFIGS = {
        "eigen-prob": {"dist": {"example": "bernoulli", "d": 8}, "gamma": 1.0,
                       "m": 3, "trials": 10, "seed": 1, "workers": 2},
        "m-underline": {"dist": {"example": "bernoulli", "d": 8}, "gamma": 1.0,
                        "m_max": 6, "trials": 10, "seed": 1},
        "edge-check": {"dist": {"example": "bernoulli", "d": 8}, "beta": 0.5,
                       "d": 8, "trials": 2, "seed": 1},
        "limit-cert": {"points_csv": "p.csv", "k": 1},
        "fat-dim": {"points_csv": "p.csv", "gamma": 1.0, "max_subset": 2},
        "sample-complexity": {"curve_csv": "c.csv", "lstar": 0.0, "epsilon": 0.1},
        "learn-curve": {"dist": {"example": "gaussian_mixture", "d": 8, "v": 1.5},
                        "gamma": 1.0, "m_grid": [4, 8], "trials": 2,
                        "learner": "erm_heuristic", "seed": 1},
        "reproduce-examples": {"budget_seconds": 60},
    }

    @pytest.mark.parametrize("command, field, value", [
        ("eigen-prob", "gamma", -1),
        ("eigen-prob", "gamma", 0.0),
        ("eigen-prob", "gamma", "1"),
        ("eigen-prob", "gamma", float("nan")),
        ("eigen-prob", "gamma", float("inf")),
        ("eigen-prob", "trials", 0),
        ("eigen-prob", "trials", 2.0),
        ("eigen-prob", "trials", True),
        ("eigen-prob", "m", 0),
        ("eigen-prob", "workers", "two"),
        ("eigen-prob", "workers", 0),
        ("eigen-prob", "dist", {"example": "bernoulli"}),
        ("m-underline", "m_max", 0),
        ("edge-check", "beta", 1.0),
        ("edge-check", "d", "eight"),
        ("limit-cert", "k", -1),
        ("fat-dim", "max_subset", 0),
        ("sample-complexity", "epsilon", 0),
        ("learn-curve", "m_grid", [0, 4]),
        ("learn-curve", "m_grid", []),
        ("learn-curve", "m_grid", [4, 8.0]),
        ("learn-curve", "m_grid", 8),
        ("learn-curve", "learner", "svm"),
        ("reproduce-examples", "budget_seconds", 0),
        ("reproduce-examples", "budget_seconds", "60"),
        ("sample-complexity", "lstar", 1.5),
        ("sample-complexity", "lstar", -0.1),
        ("sample-complexity", "lstar", True),
        ("eigen-prob", "dist", {"example": "cube", "d": 8}),
        ("eigen-prob", "dist", {"example": "bernoulli", "d": 1}),
        ("eigen-prob", "dist", {"example": "bernoulli", "d": 8.0}),
        ("learn-curve", "dist", {"example": "gaussian_mixture", "d": 8}),
        ("learn-curve", "dist", {"example": "gaussian_mixture", "d": 8, "v": 0}),
        ("learn-curve", "dist", {"example": "gaussian_mixture", "d": 8, "v": "1"}),
        ("eigen-prob", "dist", {**FULL_SPEC, "variances": [1.0, -1.0]}),
        ("eigen-prob", "dist", {**FULL_SPEC, "variances": [1.0, float("nan")]}),
        ("eigen-prob", "dist", {**FULL_SPEC, "laws": [{"kind": "cauchy"}, {"kind": "gaussian"}]}),
        ("eigen-prob", "dist", {k: v for k, v in FULL_SPEC.items() if k != "label_model"}),
        ("eigen-prob", "dist", {**FULL_SPEC, "label_model": {"kind": "coin", "p": 2}}),
        ("eigen-prob", "dist", {**FULL_SPEC, "variances": [1.0]}),
        ("eigen-prob", "dist", {**FULL_SPEC, "rotation": [[1.0, 1.0], [0.0, 1.0]]}),
        ("eigen-prob", "dist", 5),
        ("eigen-prob", "dist", {**FULL_SPEC, "label_model": {"kind": "halfspace", "w": [1.0]}}),
        ("eigen-prob", "dist", {**FULL_SPEC, "label_model": {
            "kind": "halfspace_with_flip", "w": [1.0, 0.0, 0.0], "flip": 0.1}}),
        ("eigen-prob", "dist", {**FULL_SPEC, "label_model": {"kind": "mixture_component"}}),
        ("eigen-prob", "dist", {**FULL_SPEC, "label_model": {"kind": "mixture_component"},
                                "laws": [{"kind": "gaussian_mixture_symmetric",
                                          "params": {"v": "1"}}, {"kind": "gaussian"}]}),
        ("eigen-prob", "dist", {**FULL_SPEC, "label_model": {"kind": "mixture_component"},
                                "laws": [{"kind": "gaussian_mixture_symmetric",
                                          "params": {"v": float("nan")}}, {"kind": "gaussian"}]}),
        ("eigen-prob", "dist", {**FULL_SPEC, "label_model": {
            "kind": "halfspace", "w": [float("nan"), 1.0]}}),
        ("eigen-prob", "dist", {**FULL_SPEC, "label_model": {
            "kind": "halfspace", "w": [0.0, 0.0]}}),
        ("eigen-prob", "dist", {**FULL_SPEC, "label_model": {
            "kind": "coin", "p": 0.5, "w": [1, 0]}}),
        ("edge-check", "d", 6),
        ("edge-check", "dist", {"example": "spiky", "d": 8}),
        ("edge-check", "beta", 0.01),
        ("fat-dim", "max_subset", 21),
        ("edge-check", "dist", {**FULL_SPEC, "laws": [{"kind": "gaussian"}] * 8,
                                "variances": [0.0] * 8}),
    ])
    def test_bad_config_value_exit_two(self, tmp_path, capsys, command, field, value):
        good = {"schema_version": 1, **self.BASE_CONFIGS[command],
                "out": str(tmp_path / "out")}
        validate_config(command, good)
        cfg = write_config(tmp_path, "cfg.json", {**good, field: value})
        assert main([command, "--config", cfg]) == 2
        assert field in capsys.readouterr().err

    def test_limit_cert_k_above_dimension_exit_two(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.csv"
        write_points_csv(pts_path, np.array([[3.0, 0.0], [0.0, 1.0]]))
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "points_csv": str(pts_path), "k": 3,
            "out": str(tmp_path / "out")})
        assert main(["limit-cert", "--config", cfg]) == 2
        assert "config error: k must be an integer in [0, 3), got 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exact_learner_grid_above_cap_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **self.BASE_CONFIGS["learn-curve"],
            "learner": "erm_exact", "m_grid": [4, 17], "out": str(tmp_path / "out")})
        assert main(["learn-curve", "--config", cfg]) == 2
        assert ("config error: largest m_grid entry with learner erm_exact must be an "
                "integer in [1, 17), got 17") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fat_dim_subsets_above_budget_exit_two(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.csv"
        write_points_csv(pts_path, np.random.default_rng(0).standard_normal((40, 20)))
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "points_csv": str(pts_path), "gamma": 1.0,
            "max_subset": 20, "out": str(tmp_path / "out")})
        assert main(["fat-dim", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "reduce max_subset" in err
        assert not (tmp_path / "out").exists()

    def test_bad_seed_override_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "dist": {"example": "bernoulli", "d": 8},
            "gamma": 1.0, "m": 3, "trials": 10, "seed": 1,
            "out": str(tmp_path / "out")})
        assert main(["eigen-prob", "--config", cfg, "--seed", "-4"]) == 2

    def test_seed_and_workers_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "dist": {"example": "bernoulli", "d": 8},
            "gamma": 1.0, "m": 3, "trials": 10, "seed": 1,
            "out": str(tmp_path / "out")})
        assert main(["eigen-prob", "--config", cfg, "--seed", "9",
                     "--workers", "2"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 9

    def test_reproduce_examples_stops_at_budget(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "budget_seconds": 0.001, "out": str(out)})
        assert main(["reproduce-examples", "--config", cfg]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["incomplete"] is True
        assert [row["example"] for row in summary["table"]] == ["spiky"]
        for name in ("spiky_curve.csv", "examples_table.json", "report.json"):
            assert (out / name).exists()
        assert_outputs_listed(json.loads((out / "report.json").read_text()), out)
