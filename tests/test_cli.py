"""Command-line interface tests, run in-process through main(argv).

Exit-code contract: 0 success, 2 invalid input (including argparse errors,
which raise SystemExit(2)), 3 numerical failure.
"""

import csv
import io

import numpy as np
import pytest

from miph import (
    GompertzTransform,
    Margin,
    MIPHModel,
    beran_cdf,
    kendall_tau,
    load_csv,
    load_model,
    save_model,
)
from miph.cli import main

from conftest import random_chain, random_pi


@pytest.fixture(scope="module")
def small_model_path(tmp_path_factory):
    """A fast bivariate fixed-start-vector model on disk."""
    rng = np.random.default_rng(503)
    sub = random_chain(rng, 2)
    model = MIPHModel(
        (Margin(sub, GompertzTransform(2.0)),
         Margin(sub, GompertzTransform(3.0))),
        fixed_pi=random_pi(rng, 2),
    )
    path = tmp_path_factory.mktemp("models") / "small.json"
    save_model(model, path)
    return path


@pytest.fixture(scope="module")
def spousal_model_path(tmp_path_factory, spousal_model_with_gamma):
    path = tmp_path_factory.mktemp("models") / "spousal.json"
    save_model(spousal_model_with_gamma, path)
    return path


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory, small_model_path):
    """Synthetic censored bivariate data written by the simulate command."""
    path = tmp_path_factory.mktemp("data") / "sim.csv"
    rc = main([
        "simulate", str(small_model_path), "--n", "120", "--ages", "63,63",
        "--censoring-rate", "0.2", "--seed", "5", "--output", str(path),
    ])
    assert rc == 0
    return path


def read_csv_text(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSimulate:
    def test_stdout_schema_and_determinism(self, small_model_path, capsys):
        argv = ["simulate", str(small_model_path), "--n", "8",
                "--ages", "63,68", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical rerun

        header, rows = read_csv_text(first)
        assert header == ["time1", "time2", "delta1", "delta2", "age1", "age2"]
        assert len(rows) == 8
        for row in rows:
            assert row[4] == "63" and row[5] == "68"
            assert row[2] == "1" and row[3] == "1"  # censoring rate 0

    def test_output_file_loads_back(self, data_csv):
        obs = load_csv(data_csv)
        assert obs.n == 120
        assert 0.05 < float(np.mean(obs.delta == 0)) < 0.4
        np.testing.assert_allclose(obs.covariates[:, 1], 0.63)

    def test_covariates_file_variant(self, small_model_path, tmp_path, capsys):
        ages = tmp_path / "ages.csv"
        ages.write_text("age1,age2\n63,68\n70,65\n61,62\n", encoding="utf-8")
        rc = main(["simulate", str(small_model_path),
                   "--covariates", str(ages), "--seed", "3"])
        assert rc == 0
        _, rows = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 3
        assert [r[4] for r in rows] == ["63", "70", "61"]

    def test_n_mismatch_is_input_error(self, small_model_path, tmp_path, capsys):
        ages = tmp_path / "ages.csv"
        ages.write_text("age1,age2\n63,68\n", encoding="utf-8")
        rc = main(["simulate", str(small_model_path), "--n", "5",
                   "--covariates", str(ages)])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_requires_exactly_one_age_source(self, small_model_path, capsys):
        assert main(["simulate", str(small_model_path), "--n", "5"]) == 2
        capsys.readouterr()

    def test_extrapolation_warning(self, small_model_path, capsys):
        rc = main(["simulate", str(small_model_path), "--n", "2",
                   "--ages", "300,63", "--seed", "1"])
        assert rc == 0
        assert "outside the calibrated range" in capsys.readouterr().err

    def test_one_warning_for_all_out_of_range_ages(self, small_model_path,
                                                   tmp_path, capsys):
        ages = tmp_path / "ages.csv"
        ages.write_text("age1,age2\n160,95\n161,96\n162,155\n", encoding="utf-8")
        rc = main(["simulate", str(small_model_path),
                   "--covariates", str(ages), "--seed", "1"])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: 4 ages, from 155 to 162 years, are outside the "
                       "calibrated range [0, 150]; results are extrapolations"]

    @pytest.mark.parametrize("row, message", [
        ("70,65,1", "line 3: expected 2 fields, got 3"),
        ("70,-65", "line 3, column age2: negative value"),
        ("7O,65", "line 3, column age1: non-numeric value '7O'"),
    ])
    def test_bad_covariates_row_names_line_and_column(
            self, small_model_path, tmp_path, capsys, row, message):
        ages = tmp_path / "ages.csv"
        ages.write_text(f"age1,age2\n63,68\n{row}\n61,62\n", encoding="utf-8")
        rc = main(["simulate", str(small_model_path), "--covariates", str(ages)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {ages}, {message}\n"


class TestEval:
    def test_reference_survival_at_couple_ages(self, spousal_model_path, capsys):
        rc = main(["eval", str(spousal_model_path), "--ages", "63,63",
                   "--points", "12,30;30,12"])
        assert rc == 0
        header, rows = read_csv_text(capsys.readouterr().out)
        assert header == ["time1", "time2", "density", "survival", "cdf"]
        assert len(rows) == 2
        s_12_30 = float(rows[0][3])
        s_30_12 = float(rows[1][3])
        assert 0.31 <= s_12_30 <= 0.33
        assert 0.108 <= s_30_12 <= 0.128

    def test_grid_output(self, small_model_path, capsys):
        rc = main(["eval", str(small_model_path), "--grid", "0:20:3"])
        assert rc == 0
        _, rows = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 9
        cdf_corner = float(rows[-1][4])
        surv_corner = float(rows[-1][3])
        assert 0.0 <= cdf_corner <= 1.0 and 0.0 <= surv_corner <= 1.0

    def test_density_is_reported_per_year_squared(self, small_model_path, capsys):
        from miph import joint_density
        mdl = load_model(small_model_path)
        rc = main(["eval", str(small_model_path), "--points", "10,20"])
        assert rc == 0
        _, rows = read_csv_text(capsys.readouterr().out)
        reported = float(rows[0][2])
        internal = joint_density(mdl, mdl.fixed_pi, np.array([0.10, 0.20]))
        np.testing.assert_allclose(reported, internal / 100.0**2, rtol=1e-10)

    def test_gamma_model_requires_ages(self, spousal_model_path, capsys):
        rc = main(["eval", str(spousal_model_path), "--points", "12,30"])
        assert rc == 2
        assert "--ages" in capsys.readouterr().err

    def test_needs_points_or_grid(self, small_model_path, capsys):
        rc = main(["eval", str(small_model_path)])
        assert rc == 2
        capsys.readouterr()

    def test_fixed_pi_model_warns_on_ages(self, small_model_path, capsys):
        rc = main(["eval", str(small_model_path), "--ages", "63,63",
                   "--points", "10,10"])
        assert rc == 0
        assert "ignored" in capsys.readouterr().err

    def test_output_file_deterministic(self, small_model_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["eval", str(small_model_path),
                         "--grid", "0:30:4", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMeasures:
    def test_values_match_library(self, small_model_path, capsys):
        rc = main(["measures", str(small_model_path),
                   "--cr-grid", "1:5:3", "--psi-grid", "1:5:2"])
        assert rc == 0
        header, rows = read_csv_text(capsys.readouterr().out)
        assert header == ["measure", "time1", "time2", "value"]
        table = {}
        for name, t1, t2, val in rows:
            table.setdefault(name, []).append((t1, t2, float(val)))
        mdl = load_model(small_model_path)
        np.testing.assert_allclose(
            table["kendall_tau"][0][2],
            kendall_tau(mdl, mdl.fixed_pi),
            rtol=1e-10,
        )
        assert len(table["psi1"]) == 2
        assert len(table["psi2_margin1"]) == 2
        assert len(table["psi2_margin2"]) == 2
        assert len(table["cross_ratio"]) == 3
        for _, _, v in table["cross_ratio"]:
            assert v >= 1.0 - 1e-9  # identical chains with shared start

    def test_spousal_measures_run(self, spousal_model_path, capsys):
        rc = main(["measures", str(spousal_model_path), "--ages", "63,63",
                   "--cr-grid", "1:10:2", "--psi-grid", "5:10:2"])
        assert rc == 0
        _, rows = read_csv_text(capsys.readouterr().out)
        vals = {r[0]: float(r[3]) for r in rows}
        assert abs(vals["kendall_tau"] - 0.3104) < 0.02
        assert abs(vals["spearman_rho"] - 0.4526) < 0.03


class TestFit:
    def test_fit_writes_artifacts(self, data_csv, tmp_path, capsys):
        out = tmp_path / "fitdir"
        rc = main([
            "fit", str(data_csv), "--p", "2", "--iterations", "6",
            "--fixed-iterations", "--i-step-every", "0",
            "--beta-init", "2.0", "--seed", "4", "--output", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "final log-likelihood" in printed
        assert "iterations: 6" in printed

        mdl = load_model(out / "model.json")
        assert mdl.dim == 2 and mdl.n_margins == 2
        assert mdl.gamma is not None

        with open(out / "loglik.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "loglik"]
        trace = np.array([float(r[1]) for r in rows[1:]])
        assert trace.size == 6
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= -1e-8 * 120)

    def test_fit_missing_file(self, capsys):
        assert main(["fit", "nowhere.csv", "--p", "2"]) == 2
        capsys.readouterr()

    def test_fit_bad_schema(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["fit", str(f), "--p", "2"]) == 2
        assert "missing columns" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--tolerance", "-1", "loglik_tolerance"),
        ("--tolerance", "nan", "loglik_tolerance"),
        ("--tolerance", "0", "loglik_tolerance"),
        ("--beta-init", "0", "beta_init"),
        ("--beta-init", "-2", "beta_init"),
        ("--beta-init", "inf", "beta_init"),
    ])
    def test_fit_rejects_bad_tolerance_and_beta(self, data_csv, tmp_path, capsys,
                                                flag, value, message):
        out = tmp_path / "fitdir"
        rc = main(["fit", str(data_csv), "--p", "2", flag, value, "--output", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBeran:
    def test_matches_library_call(self, data_csv, capsys):
        rc = main(["beran", str(data_csv), "--ages", "63,63",
                   "--margin", "1", "--grid", "0:40:5"])
        assert rc == 0
        _, rows = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 5
        obs = load_csv(data_csv)
        expected = beran_cdf(
            obs.y[:, 0], obs.delta[:, 0], obs.covariates[:, 1:3],
            np.array([0.63, 0.63]), 0.001, np.linspace(0, 40, 5) / 100.0,
        )
        got = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(got, expected, rtol=1e-10)
        np.testing.assert_allclose(
            [float(r[3]) for r in rows], 1.0 - got, atol=1e-12
        )

    def test_both_margins_default_grid(self, data_csv, capsys):
        rc = main(["beran", str(data_csv), "--ages", "63,63"])
        assert rc == 0
        _, rows = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 162  # two margins x 81 default grid points
        assert {r[0] for r in rows} == {"1", "2"}

    def test_bandwidth_units_agree(self, data_csv, capsys):
        base = ["beran", str(data_csv), "--ages", "63,63", "--margin", "2",
                "--grid", "0:40:9"]
        assert main(base + ["--bandwidth", "0.002"]) == 0
        scaled_out = capsys.readouterr().out
        assert main(base + ["--bandwidth", "0.2",
                            "--bandwidth-unit", "years"]) == 0
        years_out = capsys.readouterr().out
        assert scaled_out == years_out

    def test_far_query_is_numerical_failure(self, data_csv, capsys):
        rc = main(["beran", str(data_csv), "--ages", "140,140",
                   "--bandwidth", "1e-4"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err


class TestArgumentErrors:
    def test_unknown_flag_exits_two(self, small_model_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(small_model_path), "--does-not-exist"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_grid_spec(self, small_model_path, capsys):
        rc = main(["eval", str(small_model_path), "--grid", "0:xx:3"])
        assert rc == 2
        assert "--grid" in capsys.readouterr().err
        rc = main(["eval", str(small_model_path), "--grid", "0:10"])
        assert rc == 2
        assert "start:stop:num" in capsys.readouterr().err

    def test_bad_ages_pair(self, spousal_model_path, capsys):
        rc = main(["eval", str(spousal_model_path), "--ages", "63",
                   "--points", "1,1"])
        assert rc == 2
        capsys.readouterr()

    def test_corrupt_model_file(self, tmp_path, capsys):
        f = tmp_path / "corrupt.json"
        f.write_text("{", encoding="utf-8")
        assert main(["eval", str(f), "--points", "1,1"]) == 2
        capsys.readouterr()
