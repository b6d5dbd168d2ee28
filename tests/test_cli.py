"""Command-line interface tests, run in-process through main(argv), except
the closed-pipe test, which needs a process of its own.

Exit-code contract: 0 success, 1 stdout closed early, 2 invalid input
(including argparse errors, which raise SystemExit(2)), 3 numerical failure.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import miph.phasetype
from miph import (
    FitConfig,
    GompertzTransform,
    Margin,
    MIPHModel,
    SubIntensity,
    beran_cdf,
    fit,
    kendall_tau,
    load_csv,
    load_model,
    save_model,
)
from miph.cli import main
from miph.dataio import write_rows

from conftest import random_chain, random_pi, stiff_chain_model


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
def three_column_gamma_path(tmp_path_factory, spousal_model_with_gamma):
    """A covariate-linked model whose coefficients need a 3-column design."""
    path = tmp_path_factory.mktemp("models") / "custom_design.json"
    save_model(MIPHModel(spousal_model_with_gamma.margins,
                         gamma=spousal_model_with_gamma.gamma[:, :3]), path)
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

    def test_covariates_file_with_byte_order_mark(self, spousal_model_path, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("age1,age2\n63,68\n70,65\n", encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for ages in (plain, marked):
            outs.append(tmp_path / f"sim-{ages.stem}.csv")
            assert main(["simulate", str(spousal_model_path), "--covariates", str(ages),
                         "--seed", "3", "--output", str(outs[-1])]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()
        assert not outs[1].read_bytes().startswith(b"\xef\xbb\xbf")

    def test_n_mismatch_is_input_error(self, small_model_path, tmp_path, capsys):
        ages = tmp_path / "ages.csv"
        ages.write_text("age1,age2\n63,68\n", encoding="utf-8")
        rc = main(["simulate", str(small_model_path), "--n", "5",
                   "--covariates", str(ages)])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_ages_and_covariates_give_the_same_bytes(self, spousal_model_path,
                                                     tmp_path):
        ages = tmp_path / "ages.csv"
        ages.write_text("age1,age2\n" + "63,63\n" * 50, encoding="utf-8")
        common = [str(spousal_model_path), "--censoring-rate", "0.3", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", *common, "--ages", "63,63", "--n", "50",
                     "--output", str(a)]) == 0
        assert main(["simulate", *common, "--covariates", str(ages),
                     "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert load_csv(a).n == 50

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

    def test_model_on_another_time_scale_is_refused(self, small_model_path, tmp_path,
                                                     capsys):
        doc = json.loads(small_model_path.read_text())
        doc["time_scale"] = 1.0
        path = tmp_path / "unit_scale.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", str(path), "--points", "10,20"]) == 2
        assert "time_scale" in capsys.readouterr().err

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

    def test_stdout_closed_early_exits_one_without_message(self, spousal_model_path):
        # `miph eval ... | head -0`: the pipe's read end is closed before the
        # command writes. (A reader that closes after one line races the
        # command's single buffered write of these 6 kB, which may land first.)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "miph.cli", "eval", str(spousal_model_path),
                 "--ages", "63,63", "--grid", "0:40:11"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert run.returncode == 1
        assert run.stderr == b""

    def test_gamma_model_requires_ages(self, spousal_model_path, capsys):
        rc = main(["eval", str(spousal_model_path), "--points", "12,30"])
        assert rc == 2
        assert "--ages" in capsys.readouterr().err

    def test_needs_points_or_grid(self, small_model_path, capsys):
        rc = main(["eval", str(small_model_path)])
        assert rc == 2
        capsys.readouterr()

    def test_points_and_grid_together_exit_two(self, small_model_path, capsys):
        rc = main(["eval", str(small_model_path), "--points", "10,20", "--grid", "0:20:3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "pass exactly one of --points or --grid" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("path, ages, grid", [
        ("spousal", "63,63", "0:40:41"),
        ("spousal", "73,63", "0:40:41"),
        ("small", None, "0:20:7"),
        ("small", None, "0:0:1"),
        # margin 2's operational time overflows from 1500 years, margin 1's from 1750
        ("spousal", "63,63", "0:2000:9"),
    ])
    def test_grid_text_equals_points_text(self, request, capsys, path, ages, grid):
        """The grid path's factor rows and time text give the bytes of the
        pointwise path over the same pairs, in the same row order."""
        base = ["eval", str(request.getfixturevalue(f"{path}_model_path"))]
        base += [] if ages is None else ["--ages", ages]
        start, stop, num = grid.split(":")
        axis = np.linspace(float(start), float(stop), int(num)).tolist()
        points = ";".join(f"{a!r},{b!r}" for a in axis for b in axis)
        assert main(base + ["--grid", grid]) == 0
        grid_text = capsys.readouterr().out
        assert main(base + ["--points", points]) == 0
        assert grid_text == capsys.readouterr().out
        assert grid_text.count("\n") == 1 + len(axis) ** 2


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

    def test_default_grids_take_few_exponential_batches(self, spousal_model_path,
                                                        capsys, monkeypatch):
        # one batch per curve and margin, plus each margin's truncation
        # search: not one conditioning per grid point
        calls = []
        real = miph.phasetype.expm_batch

        def counting(t, xs):
            calls.append(len(xs))
            return real(t, xs)

        monkeypatch.setattr(miph.phasetype, "expm_batch", counting)
        assert main(["measures", str(spousal_model_path), "--ages", "63,63"]) == 0
        assert len(read_csv_text(capsys.readouterr().out)[1]) == 2 + 4 * 30
        assert len(calls) <= 16

    def test_margin_without_absorption_is_numerical_failure(self, tmp_path, capsys):
        closed = SubIntensity(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        path = tmp_path / "closed.json"
        save_model(MIPHModel((Margin(closed, GompertzTransform(2.0)),) * 2,
                             fixed_pi=np.array([0.5, 0.5])), path)
        assert main(["measures", str(path)]) == 3
        assert "never reach absorption" in capsys.readouterr().err
        # the sampler's jump paths would never end
        assert main(["simulate", str(path), "--n", "5", "--ages", "63,63"]) == 3
        assert "never reach absorption" in capsys.readouterr().err

    def test_stiff_chain_runs(self, tmp_path, capsys):
        # a rate of 1e8 next to an exit rate of 1e-3: the precedence system is
        # well posed, though its residual exceeds 1e-10 of the right-hand side
        model = stiff_chain_model(1e8)
        path = tmp_path / "stiff.json"
        save_model(model, path)
        assert main(["measures", str(path)]) == 0
        _, rows = read_csv_text(capsys.readouterr().out)
        vals = {r[0]: float(r[3]) for r in rows}
        assert vals["kendall_tau"] == pytest.approx(kendall_tau(model, model.fixed_pi),
                                                    rel=1e-10)


class TestFit:
    def test_fit_writes_artifacts(self, data_csv, tmp_path, capsys):
        out = tmp_path / "fitdir"
        rc = main([
            "fit", str(data_csv), "--p", "2", "--iterations", "6",
            "--tolerance", "0", "--i-step-every", "0",
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

    def test_fit_general_structure(self, data_csv, tmp_path, capsys):
        out = tmp_path / "fitdir"
        rc = main([
            "fit", str(data_csv), "--p", "2", "--structure", "general",
            "--iterations", "4", "--tolerance", "0", "--seed", "4",
            "--output", str(out),
        ])
        assert rc == 0
        assert "iterations: 4" in capsys.readouterr().out
        assert load_model(out / "model.json").dim == 2

    def test_tolerance_zero_runs_iterations_exactly(self, data_csv, tmp_path, capsys):
        out = tmp_path / "fitdir"
        assert main(["fit", str(data_csv), "--p", "2", "--iterations", "6",
                     "--tolerance", "0", "--seed", "4", "--output", str(out)]) == 0
        assert "iterations: 6 (converged: False)" in capsys.readouterr().out

        report = fit(load_csv(data_csv),
                     FitConfig(p=2, max_iterations=6, loglik_tolerance=None, seed=4))
        lib = tmp_path / "library"
        lib.mkdir()
        save_model(report.model, lib / "model.json")
        write_rows(lib / "loglik.csv", ("iteration", "loglik"), ("%d", "%.17g"),
                   [np.arange(1, 7), report.loglik_trace])
        assert len(report.loglik_trace) == 6
        for name in ("model.json", "loglik.csv"):
            assert (out / name).read_bytes() == (lib / name).read_bytes()

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
        ("--tolerance", "inf", "loglik_tolerance"),
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

    def test_output_that_is_a_file_fails_before_the_fit(self, data_csv, tmp_path,
                                                        capsys, monkeypatch):
        def no_fit(*args):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(miph.estimation, "fit", no_fit)
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        assert main(["fit", str(data_csv), "--p", "2", "--output", str(out)]) == 2
        assert "File exists" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "not a directory\n"


class TestBeran:
    def test_matches_library_call(self, data_csv, capsys):
        rc = main(["beran", str(data_csv), "--ages", "63,63", "--grid", "0:40:5"])
        assert rc == 0
        _, rows = read_csv_text(capsys.readouterr().out)
        rows = [r for r in rows if r[0] == "1"]
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
        base = ["beran", str(data_csv), "--ages", "63,63", "--grid", "0:40:9"]
        assert main(base + ["--bandwidth", "0.002"]) == 0
        _, scaled_rows = read_csv_text(capsys.readouterr().out)
        assert main(base + ["--bandwidth", "0.2",
                            "--bandwidth-unit", "years"]) == 0
        _, years_rows = read_csv_text(capsys.readouterr().out)
        margin2 = [r for r in scaled_rows if r[0] == "2"]
        assert len(margin2) == 9
        assert margin2 == [r for r in years_rows if r[0] == "2"]

    @pytest.mark.parametrize("header, rows", [
        # a 140,001-digit time, then a non-numeric cell the line-by-line read reports
        ("time1,time2,delta1,delta2,age1,age2",
         ["0" * 140_000 + "5,10,1,1,63,63", "5,x,1,1,63,63"]),
        # clean cells, and a long text field that only the line-by-line read takes
        ("time1,time2,delta1,delta2,age1,age2,note",
         ["5,10,1,1,63,63," + "a" * 140_001, "6,11,0,1,63,63,"]),
    ])
    def test_field_past_the_csv_size_limit_exits_two(self, tmp_path, capsys,
                                                      header, rows):
        path = tmp_path / "long_field.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert main(["beran", str(path), "--ages", "63,63"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}, line 2: field larger than field limit")

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

    @pytest.mark.parametrize("command", ["eval", "measures", "beran"])
    def test_seed_only_where_something_is_drawn(self, small_model_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, str(small_model_path), "--ages", "63,63", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["fit", "data.csv", "--p", "2", "--fixed-iterations"],
        ["beran", "data.csv", "--ages", "63,63", "--margin", "1"],
    ])
    def test_removed_options_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["eval", "--ages", "63,63", "--points", "10,20"],
        ["measures", "--ages", "63,63"],
        ["simulate", "--ages", "63,63", "--n", "5"],
    ])
    def test_custom_design_model_is_refused_alike(self, three_column_gamma_path,
                                                  command, capsys):
        rc = main([command[0], str(three_column_gamma_path), *command[1:]])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: model expects a custom design; the CLI only builds the "
            "standard (1, age1, age2, age1*age2) one\n")

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

    @pytest.mark.parametrize("grid", ["nan:10:3", "0:inf:3", "0:nan:3"])
    def test_non_finite_grid_ends_exit_two(self, data_csv, grid, capsys):
        rc = main(["beran", str(data_csv), "--ages", "63,63", "--grid", grid])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--grid" in captured.err and captured.out == ""

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

    def test_string_beta_in_the_model_exits_two(self, spousal_model_path, tmp_path,
                                                capsys):
        doc = json.loads(spousal_model_path.read_text())
        doc["margins"][0]["beta"] = "43.101"
        f = tmp_path / "string_beta.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", str(f), "--ages", "63,63", "--points", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "margin 0 beta holds '43.101', not a number" in captured.err

    def test_negative_seed_exits_two_naming_the_seed(self, small_model_path, data_csv,
                                                      tmp_path, capsys):
        assert main(["simulate", str(small_model_path), "--n", "5", "--ages", "63,63",
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        out = tmp_path / "fitdir"
        assert main(["fit", str(data_csv), "--p", "2", "--seed", "-1",
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()
