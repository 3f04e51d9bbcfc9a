import json
import math

import numpy as np
import pytest

from adiatherm.cli import (
    DYNAMICS_COLUMNS,
    OPTIONS,
    THRESHOLD_COLUMNS,
    RunConfig,
    _config_from_args,
    _meta_lines,
    build_parser,
    load_config,
    main,
    parse_grid,
)

import oracle


def read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestConfigParsing:
    def test_grid_syntaxes(self):
        assert parse_grid("0.1,0.3,1") == [0.1, 0.3, 1.0]
        assert parse_grid("1:3:3") == [1.0, 2.0, 3.0]
        log = parse_grid("0.1:10:3:log")
        assert log == pytest.approx([0.1, 1.0, 10.0])
        with pytest.raises(ValueError, match="grid"):
            parse_grid("1:2")

    def test_config_file_roundtrip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "model.kind = mfic\n"
            "model.n_sites = 4\n"
            "model.J = 1.0\n"
            "model.B = 0.7\n"
            "sweep.beta_grid = 0.5,1.0\n"
            "alpha = 2.0\n"
        )
        cfg = load_config(cfg_file)
        assert cfg.kind == "mfic" and cfg.n_sites == 4 and cfg.B == 0.7
        assert cfg.beta_grid == [0.5, 1.0] and cfg.alpha == 2.0

    # a value for each option, different from its default
    OPTION_SAMPLES = {
        "model.kind": "mfic",
        "model.n_sites": "5",
        "model.J": "1.5",
        "model.B": "0.7",
        "sweep.beta_grid": "0.5:2:3",
        "sweep.gamma_grid": "0.5,3",
        "sweep.lambda_grid": "0.1,0.2",
        "sweep.lambda_max": "0.3",
        "sweep.n_records": "7",
        "alpha": "2.5",
        "output.path": "x.csv",
        "output.format": "json",
        "jobs": "2",
    }

    @pytest.mark.parametrize("opt", OPTIONS, ids=lambda opt: opt.key)
    def test_config_key_and_flag_agree(self, tmp_path, opt):
        text = self.OPTION_SAMPLES[opt.key]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{opt.key.upper()} = {text}\n")  # keys are case-insensitive
        parser = build_parser()
        from_file = _config_from_args(parser.parse_args(["threshold", "--config", str(cfg_file)]))
        from_flag = _config_from_args(parser.parse_args(["threshold", opt.flag, text]))
        value = getattr(from_file, opt.attr)
        assert value == getattr(from_flag, opt.attr) == opt.parse(text)
        assert value != getattr(RunConfig(), opt.attr)

        def echo(cfg):
            return [line for line in _meta_lines(cfg) if line.startswith(f"# config: {opt.key} =")]

        assert echo(from_file) == echo(from_flag)
        assert len(echo(from_file)) == (0 if opt.key == "output.path" else 1)

    @pytest.mark.parametrize(
        "opt", [opt for opt in OPTIONS if opt.default is not None], ids=lambda opt: opt.key
    )
    def test_none_rejected_for_a_key_with_a_default(self, tmp_path, capsys, opt):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"# only model.B and output.path can be unset\n{opt.key} = none\n")
        out = tmp_path / "out.csv"
        code = main(["threshold", "--config", str(cfg_file), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {cfg_file}:2: {opt.key} cannot be none\n"
        assert not out.exists()

    def test_none_unsets_a_key_without_a_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model.B = 0.7\nmodel.B = none\noutput.path = None\n")
        cfg = load_config(cfg_file)
        assert cfg.B is None and cfg.out is None

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("model.flavor = up\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(cfg_file)

    def test_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model.kind = tfic\nmodel.n_sites = 6\n")
        out = tmp_path / "s.csv"
        code = main(
            ["spectrum", "--config", str(cfg_file), "--n-sites", "3", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 8  # overridden to N=3


class TestSpectrumCommand:
    def test_h0_spectrum_matches_enumeration(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--model", "tfic", "--n-sites", "3", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["lambda", "index", "energy"]
        assert any(line.startswith("# adiatherm") for line in meta)
        assert any("units:" in line for line in meta)
        energies = sorted(float(r[2]) for r in rows)
        assert np.allclose(energies, oracle.ring_config_energies(3), atol=1e-12)

    def test_mfic_two_site_values(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--model", "mfic", "--n-sites", "2", "--B", "1.0", "--out", str(out)])
        _, _, rows = read_csv(out)
        energies = sorted(float(r[2]) for r in rows)
        assert np.allclose(energies, [-4.0, 0.0, 2.0, 2.0], atol=1e-12)

    def test_lambda_grid_blocks(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(
            ["spectrum", "--model", "tfic", "--n-sites", "2", "--lambda-grid", "0.5,1.0", "--out", str(out)]
        )
        _, _, rows = read_csv(out)
        lams = sorted({float(r[0]) for r in rows})
        assert lams == [0.0, 0.5, 1.0]
        assert len(rows) == 12

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--model", "qxyc", "--n-sites", "3", "--out", str(a)])
        main(["spectrum", "--model", "qxyc", "--n-sites", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestThresholdCommand:
    def test_row_contents(self, tmp_path):
        out = tmp_path / "thr.csv"
        code = main(
            ["threshold", "--model", "tfic", "--n-sites", "6", "--beta", "0,1", "--out", str(out)]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == THRESHOLD_COLUMNS
        row0 = dict(zip(header, rows[0]))
        assert row0["beta"] == "0"
        assert row0["gamma_th"] == ""
        assert "infinite temperature" in row0["reason"]
        row1 = dict(zip(header, rows[1]))
        assert float(row1["rel_err_delta_v"]) <= 1e-9
        assert float(row1["rel_err_chi_f"]) <= 1e-9
        assert float(row1["f_inf"]) == pytest.approx(1.0 / math.tanh(2.0), rel=1e-12)

    def test_mfic_excluded_field_reason(self, tmp_path):
        out = tmp_path / "thr.csv"
        main(
            ["threshold", "--model", "mfic", "--n-sites", "4", "--B", "2.0", "--beta", "1", "--out", str(out)]
        )
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["delta_v_closed"] == ""
        assert "B != 0" in row["reason"]
        assert float(row["delta_v_ed"]) > 0  # exact route unaffected

    def test_parallel_jobs_identical_output(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["threshold", "--model", "tfic", "--n-sites", "4", "--beta", "0.2,0.5,1,2"]
        main(args + ["--out", str(serial)])
        main(args + ["--jobs", "2", "--out", str(parallel)])
        assert serial.read_text().replace("jobs = 2", "jobs = 1") == parallel.read_text().replace(
            "jobs = 2", "jobs = 1"
        )

    def test_qxyc_uses_shared_closed_forms(self, tmp_path):
        out = tmp_path / "thr.csv"
        main(["threshold", "--model", "qxyc", "--n-sites", "5", "--beta", "0.8", "--out", str(out)])
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["rel_err_delta_v"]) <= 1e-9
        assert float(row["rel_err_chi_f"]) <= 1e-9

    def test_json_format(self, tmp_path):
        out = tmp_path / "thr.json"
        main(
            ["threshold", "--model", "tfic", "--n-sites", "4", "--beta", "1", "--format", "json", "--out", str(out)]
        )
        payload = json.loads(out.read_text())
        assert payload["tool"] == "adiatherm"
        assert set(payload["columns"]) == set(THRESHOLD_COLUMNS)
        assert payload["columns"]["beta"] == [1.0]
        assert payload["config"]["model.B"] == ""  # unset, as in the CSV echo
        assert "output.path" not in payload["config"]


class TestDynamicsCommand:
    def test_header_contract_and_bounds(self, tmp_path):
        out = tmp_path / "dyn.csv"
        code = main(
            [
                "dynamics",
                "--model", "tfic",
                "--n-sites", "4",
                "--beta", "1",
                "--gamma", "2",
                "--lambda-max", "0.1",
                "--n-records", "12",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == DYNAMICS_COLUMNS
        assert ",".join(header) == "lambda,F,C,R,theta,bound_weak,bound_strong,purity"
        for row in rows:
            rec = dict(zip(header, (float(x) for x in row)))
            assert abs(rec["F"] - rec["C"]) <= rec["bound_strong"] + 1e-9

    def test_infinite_temperature_columns(self, tmp_path):
        out = tmp_path / "dyn.csv"
        main(
            [
                "dynamics",
                "--model", "tfic",
                "--n-sites", "3",
                "--beta", "0",
                "--gamma", "1",
                "--lambda-max", "0.05",
                "--n-records", "6",
                "--out", str(out),
            ]
        )
        _, header, rows = read_csv(out)
        for row in rows:
            rec = dict(zip(header, (float(x) for x in row)))
            assert rec["F"] == pytest.approx(1.0, abs=1e-12)
            assert rec["C"] == pytest.approx(1.0, abs=1e-12)

    def test_grid_writes_one_file_per_combo(self, tmp_path):
        out = tmp_path / "dyn.csv"
        main(
            [
                "dynamics",
                "--model", "tfic",
                "--n-sites", "3",
                "--beta", "0.5,1",
                "--gamma", "1",
                "--lambda-max", "0.05",
                "--n-records", "4",
                "--out", str(out),
            ]
        )
        assert (tmp_path / "dyn_beta0.5_gamma1.csv").exists()
        assert (tmp_path / "dyn_beta1_gamma1.csv").exists()

    def test_grid_points_sharing_a_file_rejected(self, tmp_path, capsys):
        # {beta:g} keeps six digits, so 0.5 and 0.5000001 name the same file
        out = tmp_path / "dyn.csv"
        code = main(
            [
                "dynamics",
                "--model", "tfic",
                "--n-sites", "3",
                "--beta", "1,0.5,0.5000001",
                "--gamma", "1",
                "--lambda-max", "0.05",
                "--n-records", "4",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "(beta=0.5, gamma=1.0) and (beta=0.5000001, gamma=1.0)" in err
        assert "dyn_beta0.5_gamma1.csv" in err
        assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_subset_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--criteria", "AC04,AC05,AC08", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert [c["id"] for c in report["criteria"]] == ["AC04", "AC05", "AC08"]
        for crit in report["criteria"]:
            assert crit["checks"], "criteria must carry measured-vs-tolerance checks"
            for check in crit["checks"]:
                assert set(check) == {"name", "measured", "tolerance", "ok"}
        stdout = capsys.readouterr().out
        assert "AC04: PASS" in stdout and "AC05: PASS" in stdout and "AC08: PASS" in stdout

    def test_bad_model_reported_as_failure(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("model.kind = tfic\nmodel.J = -1.0\n")
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(cfg_file), "--criteria", "AC04", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["config_ok"] is False
        assert "J" in report["config_error"]
        assert "config: FAIL" in capsys.readouterr().out

    def test_unknown_criterion_rejected(self, tmp_path):
        code = main(["verify", "--criteria", "AC99", "--out", str(tmp_path / "r.json")])
        assert code == 2


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "spec.csv"
        result = subprocess.run(
            [sys.executable, "-m", "adiatherm", "spectrum", "--model", "tfic",
             "--n-sites", "2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert out.exists()

    def test_criterion_ids_are_stable(self):
        from adiatherm import acceptance

        assert list(acceptance.ALL_CRITERIA) == [f"AC{k:02d}" for k in range(1, 14)]
        for cid, run in acceptance.ALL_CRITERIA.items():
            assert getattr(acceptance, f"criterion_{cid[2:]}") is run

    def test_golden_header_block(self, tmp_path):
        # the metadata block is part of the output contract
        out = tmp_path / "spec.csv"
        main(["spectrum", "--model", "tfic", "--n-sites", "2", "--out", str(out)])
        lines = out.read_text().splitlines()
        expected_prefix = [
            "# adiatherm 0.1.0",
            "# units: energies in units of J; beta in 1/J; lambda and f_N dimensionless",
            "# config: alpha = 1",
            "# config: jobs = 1",
            "# config: model.B = ",
            "# config: model.J = 1",
            "# config: model.kind = tfic",
            "# config: model.n_sites = 2",
            "# config: output.format = csv",
            "# config: sweep.beta_grid = 1",
            "# config: sweep.gamma_grid = 2",
            "# config: sweep.lambda_grid = ",
            "# config: sweep.lambda_max = 0.12",
            "# config: sweep.n_records = 60",
            "lambda,index,energy",
        ]
        assert lines[: len(expected_prefix)] == expected_prefix


class TestErrorPaths:
    def test_unwritable_output_path(self, tmp_path, capsys):
        code = main(
            ["spectrum", "--model", "tfic", "--n-sites", "2", "--out", str(tmp_path / "no" / "dir.csv")]
        )
        assert code == 2
        assert "dir.csv" in capsys.readouterr().err

    def test_empty_beta_grid_rejected(self, capsys):
        code = main(["threshold", "--model", "tfic", "--n-sites", "3", "--beta", ""])
        assert code == 2
        assert "non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["nan", "inf", "0.5,nan"])
    def test_non_finite_beta_rejected(self, tmp_path, capsys, beta):
        out = tmp_path / "thr.csv"
        code = main(["threshold", "--model", "tfic", "--n-sites", "4", "--beta", beta, "--out", str(out)])
        assert code == 2
        assert "error: beta must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma", "--lambda-max"])
    def test_non_finite_dynamics_input_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--model", "tfic", "--n-sites", "3", flag, "nan", "--out", str(out)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["threshold", "--alpha", "nan"],
            ["threshold", "--alpha", "inf"],
            ["threshold", "--model", "mfic", "--B", "nan"],
            ["threshold", "--model", "mfic", "--B", "inf"],
            ["threshold", "--J", "inf"],
            ["dynamics", "--model", "mfic", "--B", "nan"],
            ["spectrum", "--lambda-grid", "nan"],
            ["threshold", "--jobs", "0"],
            ["threshold", "--jobs", "-3"],
        ],
        ids=lambda args: " ".join(args),
    )
    def test_bad_input_rejected_before_output(self, tmp_path, capsys, args):
        out = tmp_path / "out.csv"
        code = main(args + ["--n-sites", "3", "--n-records", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " must be " in err
        assert not out.exists()

    def test_oversized_dynamics_refused(self, tmp_path, capsys):
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--model", "tfic", "--n-sites", "40", "--out", str(out)])
        assert code == 2
        assert "too large for the dense route" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_threshold_refused(self, tmp_path, capsys, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array")

        monkeypatch.setattr(np, "arange", no_allocation)
        out = tmp_path / "thr.csv"
        code = main(["threshold", "--model", "tfic", "--n-sites", "40", "--out", str(out)])
        assert code == 2
        assert "too large for the flip route" in capsys.readouterr().err
        assert not out.exists()
