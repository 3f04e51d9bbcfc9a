import json
import math
import os

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

from adiatherm import dynamics, thermal
from adiatherm.dynamics import evolve
from adiatherm.models import SpinChainModel

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

    def test_value_outside_choices_rejected_at_load(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model.n_sites = 3\noutput.format = xml\n")
        out = tmp_path / "out.csv"
        code = main(["threshold", "--config", str(cfg_file), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_file}:2: output.format must be one of csv, json, got 'xml'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("model.n_sites = abc", "invalid literal for int() with base 10: 'abc'"),
            ("sweep.beta_grid = 1:2", "bad grid spec '1:2'; want start:stop:count[:log]"),
        ],
    )
    def test_value_the_parser_rejects_names_file_line_and_key(self, tmp_path, capsys, line,
                                                             message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"model.kind = tfic\n{line}\n")
        out = tmp_path / "out.csv"
        code = main(["threshold", "--config", str(cfg_file), "--out", str(out)])
        assert code == 2
        key = line.partition(" ")[0]
        assert capsys.readouterr().err == f"error: {cfg_file}:2: {key}: {message}\n"
        assert not out.exists()

    def test_model_kind_spelling_writes_same_bytes(self, tmp_path):
        def run(name, *args):
            out = tmp_path / name
            assert main(["threshold", "--n-sites", "4", "--beta", "0.5,2", *args,
                         "--out", str(out)]) == 0
            return out.read_bytes()

        assert run("upper.csv", "--model", "TFIC") == run("lower.csv", "--model", "tfic")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model.kind = MFIC\nmodel.B = 0.7\n")
        assert run("cfg.csv", "--config", str(cfg_file)) == run(
            "flag.csv", "--model", "mfic", "--B", "0.7"
        )

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

    def test_negative_lambda_grid_in_equals_form(self, tmp_path):
        # "--lambda-grid -0.3,..." reads as an option to argparse; the = form does not
        out = tmp_path / "spec.csv"
        args = ["spectrum", "--model", "tfic", "--n-sites", "3", "--lambda-grid=-0.3,0.5,1"]
        assert main([*args, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [r[0] for r in rows[::8]] == ["0", "-0.29999999999999999", "0.5", "1"]
        assert len(rows) == 32

    @pytest.mark.parametrize("n_sites", range(3, 9))
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7),
                                        ("mfic", 1.3)])
    def test_every_eigenvalue_of_the_dense_hamiltonian(self, tmp_path, kind, b, n_sites):
        # a partner's eigenvalues are printed for its reflection twin too
        out = tmp_path / "spec.csv"
        field = [] if b is None else ["--B", str(b)]
        args = ["spectrum", "--model", kind, "--n-sites", str(n_sites), *field,
                "--lambda-grid=-1.5,0.37,2", "--out", str(out)]
        assert main(args) == 0
        _, _, rows = read_csv(out)
        d = 2**n_sites
        assert len(rows) == 4 * d
        h0, v = oracle.dense_h0(kind, n_sites, b=b or 0.0), oracle.dense_v(kind, n_sites)
        for k, lam in enumerate((0.0, -1.5, 0.37, 2.0)):
            energies = [float(r[2]) for r in rows[k * d : (k + 1) * d]]
            assert [int(r[1]) for r in rows[k * d : (k + 1) * d]] == list(range(d))
            expected = np.linalg.eigvalsh(h0 + lam * v)
            assert np.abs(np.array(energies) - expected).max() <= 1e-12

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--model", "qxyc", "--n-sites", "3"],
            ["dynamics", "--model", "tfic", "--n-sites", "4", "--n-records", "11"],
        ],
        ids=["spectrum", "dynamics"],
    )
    def test_deterministic_output(self, tmp_path, args):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main([*args, "--out", str(a)])
        main([*args, "--out", str(b)])
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

    def test_unresolvable_tiny_beta_reported_like_zero(self, tmp_path):
        # every cell that needs a finite temperature is empty, for both
        # closed-form families
        both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
        for model in (["tfic"], ["mfic", "--B", "0.7"]):
            args = ["threshold", "--n-sites", "6", "--model", *model]
            assert main([*args, "--beta", "1e-160,1e-200,1", "--out", str(both)]) == 0
            assert main([*args, "--beta", "1", "--out", str(alone)]) == 0
            _, header, rows = read_csv(both)
            for row in rows[:2]:
                row = dict(zip(header, row))
                for column in ("gamma_th", "f_n_ed", "f_n_closed", "f_inf",
                               "rel_err_delta_v", "rel_err_chi_f"):
                    assert row[column] == "", column
                assert "infinite temperature" in row["reason"]
            assert both.read_text().splitlines()[-1] == alone.read_text().splitlines()[-1]

    def test_huge_beta_row_matches_ground_limit(self, tmp_path):
        out = tmp_path / "thr.csv"
        args = ["threshold", "--model", "tfic", "--n-sites", "4", "--beta", "1e308"]
        assert main([*args, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["rel_err_delta_v"] == row["rel_err_chi_f"] == "0"
        assert row["reason"] == ""

    def test_mfic_huge_beta_row_has_its_closed_forms(self, tmp_path):
        out = tmp_path / "thr.csv"
        args = ["threshold", "--model", "mfic", "--n-sites", "6", "--B", "0.7", "--beta", "1e308"]
        assert main([*args, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        for column in ("delta_v_closed", "chi_f_closed", "f_n_closed", "f_inf",
                       "rel_err_delta_v", "rel_err_chi_f"):
            assert row[column] != "", column
        assert float(row["f_n_closed"]) == float(row["f_inf"]) == pytest.approx(1.0, rel=1e-14)
        assert float(row["rel_err_chi_f"]) <= 1e-14
        assert row["reason"] == ""

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

    def test_mfic_low_temperature_fills_every_closed_cell(self, tmp_path):
        out = tmp_path / "thr.csv"
        args = ["--model", "mfic", "--n-sites", "6", "--B", "0.7", "--beta", "60,200,1000"]
        assert main(["threshold", *args, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 3
        for row in (dict(zip(header, r)) for r in rows):
            assert row["reason"] == ""
            assert all(row[col] != "" for col in header[:-1])
            assert float(row["f_inf"]) == pytest.approx(1.0, abs=1e-12)
            assert float(row["rel_err_delta_v"]) <= 1e-12
            assert float(row["rel_err_chi_f"]) <= 1e-12

    def test_mfic_tiny_beta_rows_match_the_flip_route(self, tmp_path):
        # the mfic deltaV closed form has no 1 - Q / Z0 difference, so it
        # stays positive and close to the flip route as beta -> 0
        out = tmp_path / "thr.csv"
        args = ["--model", "mfic", "--n-sites", "6", "--B", "0.7", "--beta", "1e-10,1e-8"]
        assert main(["threshold", *args, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 2
        for row in (dict(zip(header, r)) for r in rows):
            assert float(row["delta_v_closed"]) > 0
            assert row["rel_err_delta_v"] != ""
            assert float(row["rel_err_delta_v"]) < 1e-6

    def test_parallel_jobs_identical_output(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["threshold", "--model", "tfic", "--n-sites", "4", "--beta", "0.2,0.5,1,2"]
        main(args + ["--out", str(serial)])
        main(args + ["--jobs", "2", "--out", str(parallel)])
        assert serial.read_text().replace("jobs = 2", "jobs = 1") == parallel.read_text().replace(
            "jobs = 2", "jobs = 1"
        )

    def test_parallel_slices_identical_output(self, tmp_path):
        # three slices of 2, 2 and 3 betas, one sweep each; only the echo of
        # the jobs option differs
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["threshold", "--model", "mfic", "--B", "0.7", "--n-sites", "5",
                "--beta", "0,0.05,0.3,1,2,10,40"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--jobs", "3", "--out", str(parallel)]) == 0
        assert parallel.read_bytes().replace(b"jobs = 3", b"jobs = 1") == serial.read_bytes()

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

    def test_counters_in_csv_metadata_and_json(self, tmp_path):
        args = ["dynamics", "--model", "qxyc", "--n-sites", "4", "--beta", "1", "--gamma", "2",
                "--lambda-max", "1.5", "--n-records", "41"]
        trace = evolve(SpinChainModel("qxyc", 4), 1.0, 2.0, 1.5, 41)
        expected = {
            "n_substeps_per_interval": trace.n_substeps_per_interval,
            "halving_levels": len(trace.fidelity_history),
            "sweep_steps_per_interval": trace.sweep_steps_per_interval,
            "n_ambiguous_steps": trace.n_ambiguous_steps,
        }
        assert trace.counters() == expected
        csv_out, json_out = tmp_path / "dyn.csv", tmp_path / "dyn.json"
        main([*args, "--out", str(csv_out)])
        meta, header, _ = read_csv(csv_out)
        assert header == DYNAMICS_COLUMNS
        assert [line for line in meta if line.startswith("# counter:")] == [
            f"# counter: {name} = {value}" for name, value in expected.items()
        ]
        main([*args, "--format", "json", "--out", str(json_out)])
        assert json.loads(json_out.read_text())["counters"] == expected

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

    def test_grid_writes_one_file_per_combo(self, tmp_path, monkeypatch):
        # the extension is split off the file name only, never off a
        # directory name; a base without one gets .csv
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results.d").mkdir()
        for base, stem, ext in (
            (str(tmp_path / "dyn.csv"), str(tmp_path / "dyn"), ".csv"),
            ("./dyn", "./dyn", ".csv"),
            ("results.d/dyn", "results.d/dyn", ".csv"),
        ):
            code = main(
                [
                    "dynamics",
                    "--model", "tfic",
                    "--n-sites", "3",
                    "--beta", "0.5,1",
                    "--gamma", "1",
                    "--lambda-max", "0.05",
                    "--n-records", "4",
                    "--out", base,
                ]
            )
            assert code == 0
            for beta in ("0.5", "1"):
                path = f"{stem}_beta{beta}_gamma1{ext}"
                assert os.path.exists(path), path

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

    def test_unknown_criterion_rejected(self, tmp_path, capsys, monkeypatch):
        from adiatherm import acceptance

        def refuse():
            raise AssertionError("a criterion ran before every id was checked")

        monkeypatch.setitem(acceptance.ALL_CRITERIA, "AC04", refuse)
        out = tmp_path / "r.json"
        for criteria in ("AC99", "AC04,AC99"):
            code = main(["verify", "--criteria", criteria, "--out", str(out)])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: unknown criterion id 'AC99'\n"
            assert not out.exists()

    def test_worst_margin_skips_the_runtime_check(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--criteria", "AC01", "--out", str(out)]) == 0
        (crit,) = json.loads(out.read_text())["criteria"]
        assert "runtime_s" in [c["name"] for c in crit["checks"]]
        worst = max(c["measured"] / c["tolerance"] for c in crit["checks"]
                    if c["name"] != "runtime_s")
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("AC01:")]
        assert f"worst margin {worst:.3g}," in line

    @pytest.mark.parametrize(
        "checks,margin",
        [
            pytest.param([(0.5, 1.0, None), (math.nan, 1.0, None)], "nan", id="nan-not-first"),
            pytest.param([(math.nan, 1.0, None), (0.5, 1.0, None)], "nan", id="nan-first"),
            pytest.param([(0.5, 1.0, None), (0.5, 0.0, None)], "inf", id="zero-tolerance"),
            pytest.param([(0.5, 1.0, None), (0.3, 0.0, True)], "0.5", id="zero-tolerance-pass"),
            pytest.param([(0.5, 1.0, None), (-0.2, 1.0, False)], "1", id="failed-below-1"),
        ],
    )
    def test_worst_margin_of_synthetic_checks(self, monkeypatch, tmp_path, capsys, checks, margin):
        from adiatherm import acceptance, cli

        result = acceptance.CriterionResult(
            "AC99",
            "synthetic",
            False,
            0.0,
            [acceptance.Check(f"c{k}", *c) for k, c in enumerate(checks)]
            + [acceptance.Check("runtime_s", 100.0, 1.0)],
        )
        monkeypatch.setattr(cli, "run_all", lambda criteria: [result])
        assert main(["verify", "--out", str(tmp_path / "report.json")]) == 1
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("AC99:")]
        assert f"worst margin {margin}," in line

    @pytest.mark.parametrize("measured", [math.nan, math.inf, -math.inf])
    def test_report_is_strict_json_with_null_for_non_finite(self, monkeypatch, tmp_path, measured):
        from adiatherm import acceptance, cli

        result = acceptance.CriterionResult(
            "AC99", "synthetic", False, 0.0, [acceptance.Check("c", measured, 1.0)]
        )
        monkeypatch.setattr(cli, "run_all", lambda criteria: [result])
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 1

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["criteria"][0]["checks"][0]["measured"] is None

    @pytest.mark.parametrize("command", ["spectrum", "threshold", "dynamics"])
    def test_criteria_rejected_for_other_commands(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        assert main([command, "--criteria", "AC04", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --criteria applies only to verify\n"
        assert not out.exists()


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

    def test_cli_import_loads_neither_mpmath_nor_the_process_pool(self):
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, adiatherm.cli; "
            "print(sorted({'mpmath', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_criterion_ids_are_stable(self):
        from adiatherm import acceptance

        assert list(acceptance.ALL_CRITERIA) == [f"AC{k:02d}" for k in range(1, 15)]
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
    def test_parser_built_once_per_process(self, monkeypatch, tmp_path):
        import argparse

        build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(2):
            out = tmp_path / "t.csv"
            assert main(["threshold", "--model", "tfic", "--n-sites", "3", "--out", str(out)]) == 0
        assert len(built) == 1

    def test_unwritable_output_path(self, tmp_path, capsys):
        code = main(
            ["spectrum", "--model", "tfic", "--n-sites", "2", "--out", str(tmp_path / "no" / "dir.csv")]
        )
        assert code == 2
        assert "dir.csv" in capsys.readouterr().err

    def test_unwritable_verify_report(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert main(["verify", "--criteria", "AC04", "--out", str(out)]) == 2
        assert f"error: cannot write output file {out}: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("jobs", ["1", "3"])
    @pytest.mark.parametrize(
        "beta,message",
        [("nan", "error: beta must be finite, got nan"), ("-1", "error: beta must be >= 0")],
    )
    def test_bad_beta_inside_the_grid_rejected(self, tmp_path, capsys, jobs, beta, message):
        out = tmp_path / "thr.csv"
        grid = f"0.1,0.5,1,{beta},2"
        code = main(["threshold", "--n-sites", "4", "--beta", grid, "--jobs", jobs,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_bad_point_in_a_dynamics_grid_writes_no_file(self, tmp_path, capsys):
        # the good point (beta=0.5, gamma=0.5) comes first, and is not written
        code = main(["dynamics", "--n-sites", "4", "--beta", "0.5", "--gamma", "0.5,-1",
                     "--n-records", "5", "--lambda-max", "0.05",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: drive rate Gamma must be positive\n"
        assert list(tmp_path.iterdir()) == []

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
            ["dynamics", "--jobs", "0"],
            ["spectrum", "--jobs", "0"],
            ["verify", "--jobs", "0"],
            ["threshold", "--beta", "0:1:2.5"],
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

    @pytest.mark.parametrize("flag", ["--beta", "--gamma", "--lambda-grid"])
    def test_bad_grid_flag_named(self, tmp_path, capsys, flag):
        out = tmp_path / "out.csv"
        code = main(["threshold", flag, "0:1:2.5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag}: grid count must be an integer, got '2.5'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--n-sites", "abc", ": invalid literal for int() with base 10: 'abc'"),
            ("--n-records", "x", ": invalid literal for int() with base 10: 'x'"),
            ("--jobs", "x", ": invalid literal for int() with base 10: 'x'"),
            ("--alpha", "x", ": could not convert string to float: 'x'"),
            ("--J", "x", ": could not convert string to float: 'x'"),
            ("--format", "xml", " must be one of csv, json, got 'xml'"),
        ],
        ids=["n-sites", "n-records", "jobs", "alpha", "J", "format"],
    )
    def test_bad_flag_value_named(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out.csv"
        code = main(["threshold", flag, value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag}{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "module,limit,tol,message",
        [
            (dynamics, "_MAX_HALVINGS", "FINAL_FIDELITY_TOL",
             "error: fidelities did not stabilize"),
            (thermal, "_MAX_SWEEP_DOUBLINGS", "CONTINUATION_STABILITY_TOL",
             "error: eigenbasis continuation did not stabilize"),
        ],
        ids=["halving", "sweep-doubling"],
    )
    def test_unconverged_dynamics_reported(self, tmp_path, capsys, monkeypatch, module, limit,
                                           tol, message):
        monkeypatch.setattr(module, limit, 1)
        monkeypatch.setattr(module, tol, 0.0)
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--n-sites", "3", "--n-records", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert "np.float64" not in err
        assert not out.exists()

    def test_oversized_dynamics_refused(self, tmp_path, capsys, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array")

        monkeypatch.setattr(np, "arange", no_allocation)
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--model", "tfic", "--n-sites", "40", "--out", str(out)])
        assert code == 2
        assert "too large for the sector route" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_dynamics_records_refused(self, tmp_path, capsys, monkeypatch):
        # the sectors of N=10 fit, but the records' column weights would not
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array")

        monkeypatch.setattr(np, "arange", no_allocation)
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--model", "tfic", "--n-sites", "10",
                     "--n-records", "1000000000", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sector route with 1000000000 records" in err
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
