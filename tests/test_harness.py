import json
import os

import numpy as np
import pytest

from fournls.cli import main as cli_main
from fournls.errors import ConfigError
from fournls.fitting import fit_loglog
from fournls.harness import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    SpecValidationError,
    parse_spec,
    run,
    validate_spec,
)


class TestFitLoglog:
    def test_exact_square_law(self):
        xs = np.linspace(1.0, 9.0, 12)
        fit = fit_loglog(list(zip(xs, xs**2)))
        assert abs(fit.slope - 2.0) < 1e-9
        assert fit.residual_rms < 1e-12

    def test_constant(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        fit = fit_loglog([(x, 7.0) for x in xs])
        assert abs(fit.slope) < 1e-12

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        xs = np.geomspace(1.0, 100.0, 40)
        ys = xs**-1.5 * (1.0 + 0.01 * rng.normal(size=40))
        fit = fit_loglog(list(zip(xs, ys)))
        assert abs(fit.slope + 1.5) < 0.02
        assert fit.slope_stderr < 0.02

    def test_guards(self):
        with pytest.raises(ConfigError):
            fit_loglog([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ConfigError):
            fit_loglog([(1.0, 1.0), (2.0, -2.0), (3.0, 1.0), (4.0, 1.0)])
        with pytest.raises(ConfigError):
            fit_loglog([(1.0, 1.0)] * 5)
        good = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        for bad in [(4.0, np.nan), (4.0, np.inf), (np.inf, 4.0), (np.nan, 4.0)]:
            with pytest.raises(ConfigError):
                fit_loglog(good + [bad])


class TestSpecValidation:
    def test_minimal_spec_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "gwp-parameters"}))
        spec = parse_spec(path)
        assert spec.kind == "gwp-parameters"
        assert spec.params == {}
        assert spec.seed == 0

    def test_all_errors_reported_in_one_pass(self):
        doc = {"kind": "no-such-kind", "params": {"M": 17, "L": -3, "dt": 0}, "seed": -1}
        with pytest.raises(SpecValidationError) as exc:
            validate_spec(doc)
        msgs = "\n".join(exc.value.errors)
        assert len(exc.value.errors) == 5  # kind, seed, M, L, dt
        assert "no-such-kind" in msgs
        assert "M" in msgs and "L" in msgs and "dt" in msgs and "seed" in msgs

    @pytest.mark.parametrize("doc", [
        {"kind": "evolve", "seed": True},
        {"kind": "evolve", "params": {"L": True}},
        {"kind": "evolve", "params": {"dt": True}},
    ])
    def test_bool_values_rejected(self, doc):
        with pytest.raises(SpecValidationError) as exc:
            validate_spec(doc)
        assert len(exc.value.errors) == 1

    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(SpecValidationError) as exc:
            validate_spec({"kind": "bogus"})
        assert "evolve" in str(exc.value)

    def test_unknown_top_level_key_rejected(self):
        doc = {"kind": "evolve", "tolerance": {"mass_drift": 1e-30}}
        with pytest.raises(SpecValidationError) as exc:
            validate_spec(doc)
        assert len(exc.value.errors) == 1
        assert "'tolerance'" in exc.value.errors[0]

    def test_misspelled_tolerance_key_rejected(self):
        doc = {"kind": "evolve", "tolerances": {"mass_drfit": 1e-30}}
        with pytest.raises(SpecValidationError) as exc:
            validate_spec(doc)
        assert len(exc.value.errors) == 1
        assert "'mass_drfit'" in exc.value.errors[0]
        assert "mass_drift" in exc.value.errors[0]  # the accepted keys are listed

    def test_non_object_tolerances_rejected(self):
        with pytest.raises(SpecValidationError) as exc:
            validate_spec({"kind": "evolve", "tolerances": [1e-8]})
        assert "'tolerances' must be an object" in exc.value.errors

    def test_misspelled_param_key_rejected(self):
        doc = {"kind": "evolve", "params": {"dT": 1e-3, "M": 256}}
        with pytest.raises(SpecValidationError) as exc:
            validate_spec(doc)
        assert len(exc.value.errors) == 1
        assert "'dT'" in exc.value.errors[0]
        assert "dt" in exc.value.errors[0]  # the accepted keys are listed
        validate_spec({"kind": "evolve", "params": {"dt": 1e-3, "M": 256}})

    @pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
    @pytest.mark.parametrize("section", ["params", "tolerances"])
    def test_misspelled_key_rejected_for_every_kind(self, kind, section, tmp_path):
        table = getattr(EXPERIMENT_KINDS[kind], section)
        key = sorted(table)[0] if table else "slope"
        typo = key + key[-1]  # "dt" -> "dtt"
        assert typo not in table
        with pytest.raises(SpecValidationError) as exc:
            validate_spec({"kind": kind, section: {typo: 1.0}})
        assert len(exc.value.errors) == 1
        assert f"unknown {section} key '{typo}'" in exc.value.errors[0]
        with pytest.raises(SpecValidationError):  # also when the spec skips validation
            run(ExperimentSpec(kind=kind, **{section: {typo: 1.0}}), out_dir=tmp_path)

    @pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
    def test_defaults_spelled_out_as_json_validate(self, kind):
        entry = EXPERIMENT_KINDS[kind]
        doc = {"kind": kind, "params": entry.params, "tolerances": entry.tolerances}
        validate_spec(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
    def test_value_not_of_its_defaults_type_is_one_spec_error(self, kind, tmp_path):
        nan, inf = float("nan"), float("inf")
        entry = EXPERIMENT_KINDS[kind]
        for section in ("params", "tolerances"):
            for key, default in getattr(entry, section).items():
                bad = [True, nan, inf]
                # [] is a list of finite numbers, and "x" a string
                bad += [["x"], [nan]] if isinstance(default, tuple) else [[]]
                if not isinstance(default, (int, str, tuple)):
                    bad.append(10**400)  # no float holds it
                if isinstance(default, tuple):
                    bad.append([10**400])
                if not isinstance(default, str):
                    bad.append("x")
                for v in bad:
                    with pytest.raises(SpecValidationError) as exc:
                        validate_spec({"kind": kind, section: {key: v}})
                    assert len(exc.value.errors) == 1, (key, v)
                    assert exc.value.errors[0].startswith(f"{section}.{key} must be"), (key, v)
                    with pytest.raises(SpecValidationError):  # also without validate_spec
                        run(ExperimentSpec(kind=kind, **{section: {key: v}}), out_dir=tmp_path)
        assert not (tmp_path / kind).exists()

    @pytest.mark.parametrize("kind, section, key", [
        (kind, section, key) for kind, entry in sorted(EXPERIMENT_KINDS.items())
        for section in ("params", "tolerances")
        for key, default in getattr(entry, section).items()
        if isinstance(default, tuple) and key != "sobolev_orders"])
    def test_empty_list_raises_config_error_before_any_report(self, kind, section, key,
                                                              tmp_path):
        # an empty sobolev_orders is valid: the run records no Sobolev norm
        with pytest.raises(ConfigError):
            run(validate_spec({"kind": kind, section: {key: []}}), out_dir=tmp_path)
        assert not (tmp_path / kind / "report.json").exists()

    @pytest.mark.parametrize("out", [5, ["a"], "", True, {"dir": "a"}])
    def test_bad_out_is_one_spec_error(self, out, tmp_path):
        doc = {"kind": "gwp-parameters", "out": out}
        with pytest.raises(SpecValidationError) as exc:
            validate_spec(doc)
        assert len(exc.value.errors) == 1 and "'out'" in exc.value.errors[0]
        with pytest.raises(SpecValidationError):
            run(ExperimentSpec(kind="gwp-parameters", out=out))
        assert validate_spec({"kind": "gwp-parameters", "out": str(tmp_path)}).out == str(tmp_path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecValidationError):
            parse_spec(path)


def small_evolve_spec(seed=7):
    return ExperimentSpec(
        kind="evolve",
        params={"L": 60.0, "M": 256, "dt": 1e-3, "t_end": 0.05, "width": 2.0,
                "record_stride": 10},
        seed=seed,
    )


class TestRun:
    def test_evolve_writes_artifacts(self, tmp_path):
        report = run(small_evolve_spec(), out_dir=tmp_path)
        assert report.passed
        assert (tmp_path / "evolve" / "trajectory.csv").exists()
        assert (tmp_path / "evolve" / "report.json").exists()
        assert report.results["mass_drift"] < 1e-10

    def test_deterministic_csv_bytes(self, tmp_path):
        spec = ExperimentSpec(
            kind="resonance-check", params={"samples": 20000}, seed=3
        )
        run(spec, out_dir=tmp_path / "a")
        run(spec, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "resonance-check" / "worst_tuples.csv").read_bytes()
        b = (tmp_path / "b" / "resonance-check" / "worst_tuples.csv").read_bytes()
        assert a == b

    def test_seed_changes_payload(self, tmp_path):
        spec = ExperimentSpec(kind="resonance-check", params={"samples": 20000}, seed=3)
        r1 = run(spec, out_dir=tmp_path / "a")
        r2 = run(spec, out_dir=tmp_path / "b", seed=4)
        assert r1.results["max_relative_residual"] != r2.results["max_relative_residual"]

    def test_manifest_roundtrip(self, tmp_path):
        report = run(small_evolve_spec(), out_dir=tmp_path)
        echo = report.manifest["spec"]
        spec2 = validate_spec(dict(echo))
        report2 = run(spec2, out_dir=tmp_path / "again")
        assert report2.results["mass_drift"] == report.results["mass_drift"]

    def test_defaults_spelled_out_give_the_same_results(self, tmp_path):
        entry = EXPERIMENT_KINDS["gwp-parameters"]
        spelled = ExperimentSpec(kind="gwp-parameters", params=dict(entry.params),
                                 tolerances=dict(entry.tolerances))
        implicit = run(ExperimentSpec(kind="gwp-parameters"), out_dir=tmp_path / "a")
        explicit = run(spelled, out_dir=tmp_path / "b")
        assert implicit.results == explicit.results
        assert implicit.manifest["spec"]["params"] == {}  # the echo keeps the spec's keys

    @pytest.mark.parametrize("params", [{}, {"alpha": 1.0}])
    def test_dispersive_decay_passes_at_its_defaults(self, params, tmp_path):
        # criterion 07's flat-spectrum datum and window; a plain Gaussian
        # fitted -0.395 against -0.5 at alpha = 1
        report = run(ExperimentSpec(kind="dispersive-decay", params=params), out_dir=tmp_path)
        assert report.passed

    def test_illposed_error_runs_at_its_defaults(self, tmp_path):
        # the default sweep must give fit_loglog its four points
        report = run(ExperimentSpec(kind="illposed-error"), out_dir=tmp_path)
        assert len(report.results["fit"]["points"]) == 4
        assert report.passed

    @pytest.mark.parametrize("doc", [
        {"kind": "illposed-error", "params": {"profile_length": -1.0}},
        {"kind": "illposed-error", "params": {"profile_modes": 0}},
        {"kind": "illposed-separation", "params": {"N": float("nan")}},
    ], ids=["negative-profile-length", "zero-profile-modes", "nan-carrier"])
    def test_bad_uap_plan_raises_config_error(self, doc, tmp_path):
        # a negative profile length used to loop forever in the grid planner
        with pytest.raises(ConfigError):
            run(validate_spec(doc), out_dir=tmp_path)

    @pytest.mark.parametrize("doc", [
        {"kind": "resonance-check", "params": {"samples": 0}},
        {"kind": "resonance-check", "params": {"samples": -5}},
        {"kind": "derivative-identity", "params": {"n_states": 0}},
        {"kind": "local-smoothing", "params": {"scales": []}},
        {"kind": "local-smoothing", "params": {"scales": [0, 1]}},
        {"kind": "evolve", "params": {"sobolev_orders": "abc"}},
    ], ids=["zero-samples", "negative-samples", "no-states", "no-scales", "zero-scale",
            "string-orders"])
    def test_bad_counts_raise_config_error(self, doc, tmp_path):
        with pytest.raises(ConfigError):
            run(validate_spec(doc), out_dir=tmp_path)

    @pytest.mark.parametrize("doc", [
        {"kind": "evolve", "params": {"sobolev_orders": 0.5}},
        {"kind": "trilinear-counterexample", "params": {"n_values": [0, 16, 32, 64]}},
        {"kind": "trilinear-counterexample", "params": {"n_values": [-16, 16, 32, 64]}},
        {"kind": "gwp-parameters", "params": {"T": -1.0}},
        {"kind": "gwp-parameters", "params": {"u0_norm": -1.0}},
        {"kind": "gwp-parameters", "params": {"eps0": 0.0}},
        {"kind": "local-smoothing", "params": {"order": -1.0}},
        {"kind": "resonance-check", "params": {"samples": 2.5}},
        {"kind": "gwp-parameters", "params": {"s": float("nan")}},
        {"kind": "evolve", "params": {"sobolev_orders": [float("nan")]}},
        {"kind": "illposed-error", "params": {"window": float("inf")}},
        {"kind": "bilinear-fit", "params": {"n1": 0.0, "n2_values": [0, 0]}},
    ], ids=["number-orders", "zero-band", "negative-band", "negative-time",
            "negative-norm", "zero-eps0", "negative-order", "fractional-samples",
            "nan-regularity", "nan-order", "infinite-window", "zero-frequencies"])
    def test_bad_values_raise_config_error_before_any_report(self, doc, tmp_path):
        # each used to raise a bare exception, warn, write a truncated report
        # or run silently with a value nobody asked for
        with pytest.raises(ConfigError):
            run(validate_spec(doc), out_dir=tmp_path)
        assert not (tmp_path / doc["kind"] / "report.json").exists()

    def test_gwp_kind(self, tmp_path):
        spec = ExperimentSpec(kind="gwp-parameters", params={"s": -0.5, "T": 100.0})
        report = run(spec, out_dir=tmp_path)
        assert report.passed
        assert report.results["lambda_exponent"] == "1/2"


class TestCli:
    def test_pass_exit_code(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "kind": "gwp-parameters", "params": {"s": -0.5, "T": 100.0}
        }))
        code = cli_main(["gwp-parameters", "--spec", str(path),
                        "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "passed: True" in out

    def test_bad_spec_exit_two(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "gwp-parameters", "params": {"M": 17}}))
        code = cli_main(["gwp-parameters", "--spec", str(path)])
        assert code == 2
        assert "spec error" in capsys.readouterr().err

    def test_nan_value_exit_two(self, tmp_path, capsys):
        # JSON's NaN literal is a spec error; exit 1 would read as a tolerance failure
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "gwp-parameters", "params": {"s": NaN}}')
        code = cli_main(["gwp-parameters", "--spec", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "spec error: params.s must be a finite number" in capsys.readouterr().err

    def test_bad_out_exit_two(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "gwp-parameters", "out": 5}))
        code = cli_main(["gwp-parameters", "--spec", str(path)])
        assert code == 2
        assert "spec error: 'out' must be a non-empty path string" in capsys.readouterr().err

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "evolve"}))
        code = cli_main(["gwp-parameters", "--spec", str(path)])
        assert code == 2

    def test_missing_spec_file(self, tmp_path, capsys):
        code = cli_main(["evolve", "--spec", str(tmp_path / "nope.json")])
        assert code == 2

    def test_tolerance_failure_exit_one(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "kind": "evolve",
            "params": {"L": 60.0, "M": 256, "dt": 1e-3, "t_end": 0.05, "width": 2.0,
                       "record_stride": 10},
            "tolerances": {"mass_drift": 1e-30},
        }))
        code = cli_main(["evolve", "--spec", str(path), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_env_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FOURNLS_OUT", str(tmp_path / "envroot"))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "kind": "gwp-parameters", "params": {"s": -0.5, "T": 10.0}
        }))
        code = cli_main(["gwp-parameters", "--spec", str(path)])
        assert code == 0
        assert (tmp_path / "envroot" / "gwp-parameters" / "report.json").exists()

    def test_all_kinds_registered(self):
        assert set(EXPERIMENT_KINDS) == {
            "evolve", "imethod-almost", "derivative-identity", "resonance-check",
            "trilinear-counterexample", "dispersive-decay", "bilinear-fit",
            "local-smoothing", "modulation-check", "illposed-error",
            "illposed-separation", "gwp-parameters",
        }
