"""Configuration parsing, sweep dispatch and CSV emission."""

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optocool import (
    NonPhysical,
    NormalizedParams,
    ParseError,
    ValidationError,
    build_system,
    classify,
    evolve_covariance,
    lyapunov_steady_state,
    matched_filter_pairs,
    optimal_detuning,
)
from optocool import cli, dynamics, model, spectra
from optocool.cli import (
    KEYS,
    MODES,
    USAGE,
    ResultTable,
    emit_csv,
    main,
    parse_config,
    run,
)
from optocool.spectra import ThermalNoiseModel

MINIMAL = """
# a single operating point
b = 10
phi = 10
phi_nl = 0.1
q_factor = 1e4
n_t_i = 100
"""


@st.composite
def settling_points(draw):
    """Stable points with b in 0.05-50, phi = 0 among them, Q in 2-1e7, n_t_i in 0-1e12."""
    b = draw(st.floats(0.05, 50.0))
    point = NormalizedParams(
        b=b,
        phi=draw(st.just(0.0) | st.floats(-1.0, 3.0).map(lambda r: r * b)),
        phi_nl=draw(st.floats(0.0, 1.0)),
        q_factor=10.0 ** draw(st.floats(math.log10(2.0), 7.0)),
        n_t_i=draw(st.just(0.0) | st.floats(0.0, 12.0).map(lambda e: 10.0 ** e)),
    )
    assume(classify(point).stable)
    return point


class TestParseConfig:
    def test_minimal_document_defaults(self):
        cfg = parse_config(MINIMAL, mode="variances")
        assert cfg.params.b == 10.0
        assert cfg.noise_model is ThermalNoiseModel.MARKOV_FLAT
        assert cfg.omega_max == 100.0

    def test_figure_modes_default_to_coth(self):
        assert parse_config("", mode="fig1").noise_model is ThermalNoiseModel.QUANTUM_COTH
        assert parse_config("", mode="fig2").noise_model is ThermalNoiseModel.QUANTUM_COTH
        # fig3 is a transient of the time-domain model, which has the flat bath only
        assert parse_config(MINIMAL, mode="fig3").noise_model is ThermalNoiseModel.MARKOV_FLAT

    def test_fig1_preset_expansion(self):
        cfg = parse_config("", mode="fig1")
        assert cfg.sweep.variable == "b"
        assert (cfg.sweep.start, cfg.sweep.stop) == (1.0, 10.0)
        assert cfg.lock_phi_to_b
        assert cfg.params.q_factor == 1e4
        assert cfg.params.n_t_i == 100.0
        assert cfg.params.phi_nl == 0.1

    def test_fig2_preset_brackets_optimum(self):
        cfg = parse_config("", mode="fig2")
        star = optimal_detuning(10.0)
        assert cfg.sweep.variable == "phi"
        assert cfg.sweep.start == pytest.approx(0.5 * star)
        assert cfg.sweep.stop == pytest.approx(2.0 * star)

    def test_negative_q_factor_names_field(self):
        bad = MINIMAL.replace("q_factor = 1e4", "q_factor = -3")
        with pytest.raises(ValidationError) as err:
            parse_config(bad, mode="variances")
        assert any("q_factor" in v for v in err.value.violations)

    def test_all_violations_reported(self):
        bad = "b = -1\nphi = 0\nphi_nl = -2\nq_factor = 0.1\nn_t_i = 5\nnoise_model = purple\n"
        with pytest.raises(ValidationError) as err:
            parse_config(bad, mode="variances")
        joined = " ".join(err.value.violations)
        for field in ("b", "phi_nl", "q_factor", "noise_model"):
            assert field in joined
        assert len(err.value.violations) >= 4

    def test_unknown_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + "warp_drive = 9\n", mode="variances")
        assert any("warp_drive" in v for v in err.value.violations)

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config("b = 10\nnot a key value line\n", mode="variances")
        assert err.value.line == 2

    def test_log_spacing_needs_positive_start(self):
        doc = MINIMAL + (
            "sweep.variable = phi_nl\nsweep.start = 0\nsweep.stop = 1\n"
            "sweep.points = 5\nsweep.spacing = log\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_config(doc, mode="variances")
        assert any("log" in v for v in err.value.violations)

    def test_sweep_variable_whitelist(self):
        doc = MINIMAL + (
            "sweep.variable = omega\nsweep.start = 0\nsweep.stop = 1\nsweep.points = 5\n"
        )
        with pytest.raises(ValidationError):
            parse_config(doc, mode="variances")

    def test_overrides_win(self):
        cfg = parse_config(MINIMAL, mode="variances", overrides={"phi": "7.5"})
        assert cfg.params.phi == 7.5

    def test_mode_mismatch_flagged(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "mode = fig1\n", mode="variances")

    def test_physical_point_accepted(self):
        from scipy import constants

        doc = "\n".join(
            f"physical.{k} = {v}"
            for k, v in dict(
                omega_m=2 * math.pi * 1e7,
                kappa=2 * math.pi * 1e6,
                gamma=2 * math.pi * 1e3,
                mass=1e-12,
                cavity_length=1e-3,
                omega_c=2 * math.pi * constants.c / 1.064e-6,
                delta_c=2 * math.pi * 1e6,
                drive_intensity=0.0,
                temperature=0.0,
            ).items()
        )
        cfg = parse_config(doc, mode="variances")
        assert cfg.params.b == pytest.approx(10.0)
        assert cfg.params.phi_nl == 0.0


class TestRun:
    def test_steady_mode_branch_rows(self):
        cfg = parse_config(
            "steady.phi_c = 2\nsteady.drive = 2\n", mode="steady"
        )
        table = run(cfg)
        us = [row[0] for row in table.rows]
        assert us == pytest.approx([1.0, 1.0, 2.0], abs=1e-6)
        assert [row[3] for row in table.rows] == [True, True, False]

    def test_sweep_row_matches_single_point(self):
        sweep_doc = MINIMAL + (
            "sweep.variable = phi\nsweep.start = 8\nsweep.stop = 12\nsweep.points = 5\n"
        )
        table = run(parse_config(sweep_doc, mode="variances"))
        row = next(r for r in table.rows if r[0] == 10.0)
        single = run(parse_config(MINIMAL, mode="variances")).rows[0]
        assert row[1] == single[0] and row[2] == single[1]

    def test_unstable_rows_flagged_and_empty(self):
        doc = MINIMAL + (
            "sweep.variable = phi\nsweep.start = -12\nsweep.stop = 12\nsweep.points = 7\n"
        )
        table = run(parse_config(doc, mode="variances"))
        flags = {row[0]: row[-1] for row in table.rows}
        assert flags[-12.0] is False and flags[12.0] is True
        bad = next(r for r in table.rows if r[0] == -12.0)
        assert all(v is None for v in bad[1:-1])

    @pytest.mark.parametrize("mode", ["variances", "fig1", "fig2", "adiabatic"])
    def test_each_row_is_classified_once(self, monkeypatch, mode):
        # the integrating modes read each row's verdict from the stack's
        # results; the adiabatic mode keeps its own classify call
        calls = []

        def counted(params):
            calls.append(params)
            return model.classify(params)

        for module in (cli, spectra):
            monkeypatch.setattr(module, "classify", counted)
        doc = "sweep.variable = phi\nsweep.start = -12\nsweep.stop = 12\nsweep.points = 7\n"
        text = doc if mode.startswith("fig") else MINIMAL + doc
        table = run(parse_config(text, mode=mode))
        assert len(calls) == 7 == len(set(calls))
        assert [row[-1] for row in table.rows] == [model.classify(p).stable for p in calls]

    def test_adiabatic_mode_columns(self):
        table = run(parse_config(MINIMAL, mode="adiabatic"))
        names = [c[0] for c in table.columns]
        assert names[:3] == ["omega_eff_ratio", "gamma_eff_ratio", "q_eff"]
        row = table.rows[0]
        assert row[1] == pytest.approx(998.506, rel=1e-5)

    def test_spectrum_mode_grid(self):
        doc = MINIMAL + "spectrum.omega_start = -2\nspectrum.omega_stop = 2\nspectrum.omega_points = 5\n"
        table = run(parse_config(doc, mode="spectrum"))
        assert [r[0] for r in table.rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert table.rows[1][1] == pytest.approx(table.rows[3][1], rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(point=settling_points())
    def test_default_dynamics_window_reaches_steady_state(self, point):
        # the window is evolve_covariance's own (t_end None), outside the
        # adiabatic regime too, where the closed-form Gamma_eff overstates
        # the relaxation rate; the CLI passes it through unchanged
        sysm = build_system(point)
        try:
            last = evolve_covariance(sysm)[-1].v
            cli_last = evolve_covariance(sysm, n_samples=401)[-1].v  # the CLI's sample count
        except NonPhysical:  # the flat bath is not completely positive
            assume(False)
        v_ss = lyapunov_steady_state(sysm).v
        assert np.max(np.abs(last - v_ss)) <= 1e-10 * np.max(np.abs(v_ss))
        fields = {f.name: repr(getattr(point, f.name)) for f in dataclasses.fields(point)}
        row = run(parse_config("", "dynamics", fields)).rows[-1]
        assert row[1:5] == tuple(np.diag(cli_last))

    def test_homodyne_mode_row(self):
        table = run(parse_config(MINIMAL, mode="homodyne"))
        row = table.rows[0]
        assert row[0] > 30.0
        assert row[3] == "x_out"
        assert row[4] == 10.0 * 1e4 / 10.0  # the cavity detuning phi Q / b


class TestEmitCsv(object):
    def test_empty_table(self, tmp_path):
        table = ResultTable(
            columns=(("a", "x"), ("b", "y")), rows=[], metadata=[("mode", "test")]
        )
        path = tmp_path / "empty.csv"
        emit_csv(table, str(path))
        assert path.read_text() == "# mode = test\na [x],b [y]\n"

    def test_twelve_digit_format_and_empty_fields(self, tmp_path):
        table = ResultTable(
            columns=(("v", "x"), ("flag", "bool")),
            rows=[(math.pi, True), (None, False)],
            metadata=[],
        )
        path = tmp_path / "t.csv"
        emit_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[1] == "3.14159265359,true"
        assert lines[2] == ",false"

    @staticmethod
    def per_cell(table):
        """The CSV text with every cell formatted on its own."""
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            if isinstance(v, (float, np.floating)):
                return f"{float(v):.12g}"
            return str(v)

        lines = [f"# {k} = {v}" for k, v in table.metadata]
        lines.append(",".join(f"{name} [{unit}]" for name, unit in table.columns))
        lines += [",".join(cell(v) for v in row) for row in table.rows]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("rows", [
        [
            (0.1, np.float64(-0.0), None, True, 3, "x_out", 1.0, None),
            (math.pi, np.float64(5e-324), None, False, np.int64(-7), "y_out", 2, 1.5),
            (-1e300, np.float64(math.nan), None, np.bool_(True), 0, "", np.float32(0.1), True),
            (math.inf, np.float64(1 / 3), None, False, 10**20, "a,b", "s", np.float64(2.0)),
        ],
        [],
    ], ids=["mixed", "no-rows"])
    def test_column_formatting_matches_each_cell(self, tmp_path, rows):
        # float columns (np.float64 among them) are formatted at once, every
        # other column, the all-None one included, cell by cell
        table = ResultTable(
            columns=tuple((f"c{j}", "u") for j in range(8)), rows=rows,
            metadata=[("mode", "test")],
        )
        path = tmp_path / "t.csv"
        emit_csv(table, str(path))
        assert path.read_bytes() == self.per_cell(table).encode()

    @settings(max_examples=50)
    @given(st.lists(st.one_of(
        st.lists(st.floats(), min_size=3, max_size=3),
        st.lists(st.floats().map(np.float64), min_size=3, max_size=3),
        st.lists(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                           st.text(max_size=3)), min_size=3, max_size=3),
    ), min_size=1, max_size=4))
    def test_column_formatting_property(self, columns):
        table = ResultTable(
            columns=tuple((f"c{j}", "u") for j in range(len(columns))),
            rows=list(zip(*columns)), metadata=[],
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            emit_csv(table, None)
        assert out.getvalue() == self.per_cell(table)

    def test_repeat_emission_identical(self, tmp_path):
        cfg = parse_config(MINIMAL, mode="variances")
        table = run(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, str(p1))
        emit_csv(table, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestMain:
    def test_success_to_file(self, tmp_path):
        out = tmp_path / "out.csv"
        rc = main(
            ["variances", "--out", str(out),
             "--set", "b=10", "--set", "phi=10", "--set", "phi_nl=0.1",
             "--set", "q_factor=1e4", "--set", "n_t_i=100"]
        )
        assert rc == 0
        assert out.exists()
        body = out.read_text()
        assert "dq2" in body and "1.31838" in body

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(MINIMAL + "output_path = " + str(tmp_path / "res.csv") + "\n")
        rc = main(["variances", "--config", str(cfg)])
        assert rc == 0
        assert (tmp_path / "res.csv").exists()

    def test_missing_config_file(self, capsys):
        rc = main(["variances", "--config", "/nonexistent/path.conf"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_config_error_exit_code(self, capsys):
        rc = main(["variances", "--set", "b=-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert '"violations"' in err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        rc = main(
            ["dynamics", "--out", str(tmp_path / "x.csv"),
             "--set", "b=10", "--set", "phi=-10", "--set", "phi_nl=0.1",
             "--set", "q_factor=1e4", "--set", "n_t_i=100"]
        )
        assert rc == 3
        assert "Unstable" in capsys.readouterr().err

    def test_removed_ode_tolerance_is_unknown_key(self, capsys):
        # covariance propagation is exact and takes no tolerance, so the
        # old tolerances.ode_rel setting is rejected like any unknown key
        rc = main(
            ["dynamics", "--set", "tolerances.ode_rel=1e-9",
             "--set", "b=10", "--set", "phi=10", "--set", "phi_nl=0.1",
             "--set", "q_factor=1e4", "--set", "n_t_i=100"]
        )
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["type"] == "ValidationError"
        assert record["violations"] == ["tolerances.ode_rel: unknown key"]

    def test_removed_quadrature_rel_is_unknown_key(self, capsys):
        # optimize never passed the setting on, so it applied to some modes
        # and not to others; the integrals now take no tolerance at all
        rc = main(argv_for("variances", {**OPERATING_POINT,
                                         "tolerances.quadrature_rel": "1e-9"}))
        assert rc == 2
        record = assert_one_json_record(capsys.readouterr().err)
        assert record["violations"] == ["tolerances.quadrature_rel: unknown key"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_t_i", ["1e200", "1e300", "1e307"])
    def test_overflowing_covariance_norm_is_silent(self, n_t_i, capsys):
        # ||V||^2 overflows here; the Lyapunov residual check must neither
        # print numpy's overflow warning nor wave the solve through, and
        # the solve itself must not underflow on the huge diffusion
        rc = main(argv_for("dynamics", {**OPERATING_POINT, "n_t_i": n_t_i,
                                        "dynamics.samples": "3"}))
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""

    def test_removed_b_points_is_unknown_key(self, capsys):
        # optimize scans the sweep values of b, or b itself; a point count
        # never entered it
        rc = main(argv_for("optimize", {**OPERATING_POINT, "optimize.b_points": "9"}))
        assert rc == 2
        record = assert_one_json_record(capsys.readouterr().err)
        assert record["violations"] == ["optimize.b_points: unknown key"]

    @pytest.mark.parametrize("mode", ["dynamics", "homodyne"])
    def test_transient_leaving_physical_set_exits_3(self, mode, capsys):
        # from the ground state the flat mirror bath leaves the physical set
        rc = main(argv_for(mode, {**OPERATING_POINT, "n_t_i": "0"}))
        assert rc == 3
        record = assert_one_json_record(capsys.readouterr().err)
        assert record["type"] == "NonPhysical"
        assert "at t=" in record["message"]

    @pytest.mark.parametrize("mode, variable", [
        ("steady", "phi"), ("spectrum", "phi"), ("dynamics", "phi"),
        ("homodyne", "phi"), ("fig3", "phi"), ("optimize", "q_factor"),
    ])
    def test_sweep_the_mode_would_ignore_is_rejected(self, mode, variable, capsys):
        # these modes evaluate one operating point and read no sweep.* key;
        # optimize reads a sweep, but scans b only
        point = {"steady.phi_c": "2", "steady.drive": "2"} if mode == "steady" \
            else OPERATING_POINT
        sweep = {"sweep.variable": variable, "sweep.start": "8", "sweep.stop": "12",
                 "sweep.points": "3"}
        rc = main(argv_for(mode, {**point, **sweep}))
        assert rc == 2
        record = assert_one_json_record(capsys.readouterr().err)
        assert record["violations"] == (
            ["sweep.variable: mode 'optimize' cannot sweep 'q_factor'"] if mode == "optimize"
            else [f"{key}: mode {mode!r} does not read it" for key in sorted(sweep)]
        )

    @pytest.mark.parametrize("mode", ["dynamics", "homodyne", "fig3"])
    @pytest.mark.parametrize("noise", ["quantum_coth", "markov_flat", "purple"])
    def test_flat_bath_modes_reject_noise_model(self, mode, noise, capsys):
        # the time-domain model has only the flat Markovian bath, so the key
        # would be validated and then ignored
        rc = main(argv_for(mode, {**OPERATING_POINT, "noise_model": noise}))
        assert rc == 2
        record = assert_one_json_record(capsys.readouterr().err)
        assert record["violations"] == [f"noise_model: mode {mode!r} does not read it"]

    def test_fig2_labels_its_sweep_variable(self, capsys):
        rc = main(argv_for("fig2", {"sweep.variable": "b", "sweep.start": "5",
                                    "sweep.stop": "10", "sweep.points": "3"}))
        assert rc == 0
        header = next(
            line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")
        )
        assert header.split(",")[0] == "b [dimensionless]"

    def test_omega_points_checked_where_read(self, capsys):
        rc = main(argv_for("spectrum", {**OPERATING_POINT, "spectrum.omega_points": "1"}))
        assert rc == 2
        record = assert_one_json_record(capsys.readouterr().err)
        assert record["violations"] == ["spectrum.omega_points: must be >= 2, got 1"]
        rc = main(argv_for("variances", {**OPERATING_POINT, "spectrum.omega_points": "1"}))
        assert rc == 2
        record = assert_one_json_record(capsys.readouterr().err)
        assert record["violations"] == ["spectrum.omega_points: mode 'variances' does not read it"]

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_samples_bound_is_two(self, samples, capsys):
        # like sweep.points and spectrum.omega_points: 0 printed a header
        # and no rows, 1 the t = 0 row alone
        rc = main(argv_for("dynamics", {"b": "3", "phi": "3", "phi_nl": "0.05",
                                        "q_factor": "1e4", "n_t_i": "100",
                                        "dynamics.t_end": "1", "dynamics.samples": samples}))
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        record = assert_one_json_record(err)
        assert record["violations"] == [f"dynamics.samples: must be >= 2, got {samples}"]

    def test_unresolved_lab_frame_homodyne_exits_3(self, capsys):
        # the grid cannot follow the rotation at Omega_m without
        # demodulation; it used to print dx_m2 = -0.624
        rc = main(argv_for("homodyne", {**OPERATING_POINT, "phi_nl": "0.01",
                                        "homodyne.demod_rate": "0"}))
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert assert_one_json_record(err)["type"] == "GridMismatch"

    def test_bad_set_syntax(self, capsys):
        rc = main(["variances", "--set", "b10"])
        assert rc == 2

    def test_overrides_do_not_carry_over_between_calls(self, tmp_path, capsys):
        # the parser is built once; each call's --set items are its own
        cfg = tmp_path / "run.conf"
        cfg.write_text(MINIMAL)
        assert main(["variances", "--config", str(cfg), "--set", "b=20"]) == 0
        assert "# b = 20\n" in capsys.readouterr().out
        assert main(["variances", "--config", str(cfg)]) == 0
        assert "# b = 10\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        [], ["no_such_mode"], ["fig1", "--bogus"], ["fig1", "--out"], ["fig1", "--set"],
        ["fig1", "stray"], ["fig1", "--conf", "x.conf"], ["fig1", "--out", "--set", "b=5"],
    ])
    def test_malformed_argv_is_one_config_record(self, argv, capsys):
        # an argv error is a config error: main returns 2, prints nothing
        # on stdout and one JSON record on stderr, and raises nothing
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert assert_one_json_record(err)["error"] == "config"

    def test_flag_equals_value_form(self, tmp_path):
        cfg, out = tmp_path / "run.conf", tmp_path / "out.csv"
        cfg.write_text(MINIMAL)
        assert main(["variances", f"--config={cfg}", f"--out={out}", "--set=b=20"]) == 0
        assert "# b = 20\n" in out.read_text()

    def test_mode_from_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text(MINIMAL + "mode = variances\n")
        assert main(["--config", str(cfg)]) == 0
        assert "# mode = variances\n" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_prints_usage_and_modes(self, flag, capsys):
        assert main([flag]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == [USAGE, "modes: " + ", ".join(MODES)] and err == ""

    @settings(max_examples=150)
    @given(argv=st.lists(st.sampled_from([
        "steady", "no_such_mode", "", "-", "--", "=", "--config", "--out", "--set", "--set=",
        "--set=steady.drive=1", "steady.phi_c=2", "--out=result.csv", "--conf", "-h",
    ]), max_size=6))
    def test_any_argv_returns_an_exit_code(self, argv, tmp_path_factory):
        # main never raises on argv: 0 with output, or 2/3 with one JSON record
        cwd = os.getcwd()
        os.chdir(tmp_path_factory.mktemp("argv"))
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            os.chdir(cwd)
        if rc == 0:
            assert err.getvalue() == ""
        else:
            assert rc in (2, 3) and out.getvalue() == ""
            assert "error" in assert_one_json_record(err.getvalue())


OPERATING_POINT = {"b": "10", "phi": "10", "phi_nl": "0.1", "q_factor": "1e4", "n_t_i": "100"}


def argv_for(mode, overrides):
    return [mode] + [arg for k, v in overrides.items() for arg in ("--set", f"{k}={v}")]


def assert_one_json_record(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "mode, overrides",
        [
            ("variances", {"phi": "nan"}),
            ("dynamics", {"phi": "nan"}),
            ("variances", {"n_t_i": "inf"}),
            ("adiabatic", {"phi": "nan"}),
            ("variances", {"n_t_i": "inf", "noise_model": "quantum_coth"}),
            ("dynamics", {"dynamics.t_end": "nan"}),
            ("homodyne", {"homodyne.lo_rate": "nan"}),
            ("steady", {"steady.phi_c": "nan", "steady.drive": "1"}),
            ("homodyne", {"homodyne.demod_rate": "nan"}),
            ("spectrum", {"spectrum.omega_start": "nan"}),
            ("variances", {"tolerances.omega_max": "inf"}),
            ("dynamics", {"dynamics.samples": "1"}),
            ("homodyne", {"homodyne.demod_rate": "inf"}),
        ],
    )
    def test_rejected_as_config_error(self, mode, overrides, capsys):
        point = {} if mode == "steady" else OPERATING_POINT
        rc = main(argv_for(mode, {**point, **overrides}))
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        record = assert_one_json_record(err)
        assert record["type"] == "ValidationError"
        bad = next(k for k in overrides if k != "noise_model")
        assert any(v.startswith(f"{bad}:") for v in record["violations"])


PHYSICAL_POINT = {
    "physical.omega_m": "6.283185307179586e7", "physical.kappa": "6.283185307179586e6",
    "physical.gamma": "6283.185307179586", "physical.mass": "1e-12",
    "physical.cavity_length": "1e-3", "physical.omega_c": "1.7704e15",
    "physical.delta_c": "6.283185307179586e6", "physical.drive_intensity": "0",
    "physical.temperature": "0",
}
# A small valid run of each mode (BASE) and a valid text for every key (SAMPLE).
BASE = {
    "steady": {"steady.phi_c": "2", "steady.drive": "2"},
    "spectrum": {**OPERATING_POINT, "spectrum.omega_points": "9"},
    "variances": {**OPERATING_POINT, "sweep.variable": "phi", "sweep.start": "5",
                  "sweep.stop": "15", "sweep.points": "3"},
    "adiabatic": {**OPERATING_POINT, "sweep.variable": "b", "sweep.start": "1",
                  "sweep.stop": "10", "sweep.points": "4"},
    "optimize": {**OPERATING_POINT, "noise_model": "markov_flat", "sweep.variable": "b",
                 "sweep.start": "9", "sweep.stop": "10", "sweep.points": "2"},
    "dynamics": {**OPERATING_POINT, "dynamics.samples": "9"},
    "homodyne": OPERATING_POINT,
    "fig1": {"sweep.points": "4"},
    "fig2": {"sweep.points": "5"},
    "fig3": {"dynamics.samples": "9"},
}
SAMPLE = {
    **OPERATING_POINT, **PHYSICAL_POINT,
    "sweep.variable": "b", "sweep.start": "5", "sweep.stop": "10", "sweep.points": "3",
    "sweep.spacing": "log", "noise_model": "quantum_coth", "tolerances.omega_max": "50",
    "output_path": "out.csv", "lock_phi_to_b": "true",
    "steady.phi_c": "1", "steady.drive": "3",
    "spectrum.omega_start": "-1", "spectrum.omega_stop": "1", "spectrum.omega_points": "5",
    "dynamics.t_end": "0.01", "dynamics.samples": "5",
    "homodyne.lo_rate": "1", "homodyne.demod_rate": "0",
    "homodyne.quadrature": "y_out",
}

# The key groups each mode reads, as the README's CLI table lists them;
# "point" is the operating point: the normalized or the physical keys.
# The figure presets fix the normalized keys and read no physical one.
_INTEGRATING = ["sweep.*", "lock_phi_to_b", "noise_model", "tolerances.*"]
READS = {
    "steady": ["steady.*"],
    "spectrum": ["point", "noise_model", "spectrum.*"],
    "variances": ["point", *_INTEGRATING],
    "fig1": ["normalized", *_INTEGRATING],
    "optimize": ["point", *_INTEGRATING],
    "fig2": ["normalized", "sweep.*", "lock_phi_to_b", "noise_model"],
    "adiabatic": ["point", "sweep.*", "lock_phi_to_b"],
    "dynamics": ["point", "dynamics.*"],
    "fig3": ["normalized", "dynamics.*"],
    "homodyne": ["point", "homodyne.*"],
}


def declared(mode):
    keys = {"output_path"}
    for group in READS[mode]:
        if group == "point":
            keys |= OPERATING_POINT.keys() | PHYSICAL_POINT.keys()
        elif group == "normalized":
            keys |= OPERATING_POINT.keys()
        elif group.endswith(".*"):
            keys |= {k for k in KEYS if k.startswith(group[:-1])}
        else:
            keys.add(group)
    return keys


def test_declarations_and_samples():
    assert SAMPLE.keys() == KEYS.keys()
    assert sum(len(declared(mode)) for mode in MODES) == 159
    for mode, entry in MODES.items():
        assert entry.preset.keys() <= declared(mode)


@pytest.mark.parametrize("key", sorted(KEYS))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_mode_reads_its_keys_and_rejects_the_rest(mode, key, capsys):
    if key not in declared(mode):
        rc = main(argv_for(mode, {**BASE[mode], key: SAMPLE[key]}))
        assert rc == 2
        record = assert_one_json_record(capsys.readouterr().err)
        assert record["violations"] == [f"{key}: mode {mode!r} does not read it"]
    elif key in PHYSICAL_POINT:
        # a physical key takes the place of the normalized point
        settings = {k: v for k, v in BASE[mode].items() if k not in OPERATING_POINT}
        assert parse_config("", mode, {**settings, **PHYSICAL_POINT}).params.b == \
            pytest.approx(10.0)
    else:
        cfg = parse_config("", mode, {**BASE[mode], key: SAMPLE[key]})
        assert cfg.raw[key] == SAMPLE[key]


class Poison:
    """A setting no table builder may touch: every use of it raises."""

    def _touched(self, *args, **kwargs):
        raise AssertionError("a table builder read a setting its mode does not declare")

    __getattr__ = __bool__ = __float__ = __int__ = __index__ = __iter__ = __len__ = _touched
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __neg__ = __abs__ = _touched
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _touched
    __truediv__ = __rtruediv__ = __pow__ = __rpow__ = __array__ = _touched


@pytest.mark.parametrize("mode", sorted(MODES))
def test_table_reads_only_declared_settings(mode):
    cfg = parse_config("", mode, BASE[mode])
    reads = MODES[mode].reads
    owners = {
        "params": OPERATING_POINT.keys() | PHYSICAL_POINT.keys(),
        "sweep": {k for k in KEYS if k.startswith("sweep.")},
        **{spec.attr: {key} for key, spec in KEYS.items() if spec.attr},
    }
    poison = {field: Poison() for field, keys in owners.items() if not keys & reads}
    if "noise_model" not in reads:  # an `is` test cannot be poisoned: flip the bath
        flat = cfg.noise_model is ThermalNoiseModel.MARKOV_FLAT
        poison["noise_model"] = ThermalNoiseModel("quantum_coth" if flat else "markov_flat")
    expected = MODES[mode].table(cfg)
    assert MODES[mode].table(dataclasses.replace(cfg, **poison)) == expected


@pytest.mark.parametrize("mode, overrides", [
    ("spectrum", {"spectrum.omega_start": "1e300", "spectrum.omega_stop": "1.7e308"}),
    ("spectrum", {"spectrum.omega_start": "-1.7e308"}),
    ("spectrum", {"spectrum.omega_start": "-1.7e308", "spectrum.omega_stop": "1.7e308"}),
    ("variances", {"sweep.variable": "phi", "sweep.start": "-1e308", "sweep.stop": "1e308",
                   "sweep.points": "3"}),
    ("dynamics", {"dynamics.t_end": "1e308", "dynamics.samples": "3"}),
    ("dynamics", {"phi": "1.8014398509481988e16", "dynamics.samples": "3"}),
    ("fig3", {"dynamics.t_end": "1e305"}),
    ("homodyne", {"homodyne.lo_rate": "1e-300"}),
    ("homodyne", {"homodyne.lo_rate": "1e-308"}),
    ("homodyne", {"homodyne.lo_rate": "1e308"}),
    ("optimize", {"b": "1e-300", "phi": "1"}),
    ("adiabatic", {"sweep.variable": "b", "sweep.start": "1.2e77", "sweep.stop": "10",
                   "sweep.points": "3"}),
])
def test_extreme_finite_input_exits_cleanly(mode, overrides, capsys):
    # warnings are errors under pytest, so numpy's would surface as a raise
    rc = main(argv_for(mode, {**OPERATING_POINT, **overrides}))
    out, err = capsys.readouterr()
    if rc == 0:
        assert err == ""
    else:
        assert rc in (2, 3) and out == ""
        assert "np." not in assert_one_json_record(err)["message"]


# g = sqrt(2 phi_nl/b) overflows the drift here, although classify finds
# the point stable; eig used to print a raw LinAlgError traceback
OVERFLOWING_DRIFT = {"b": "6.347468412528946e-64", "phi": "0",
                     "phi_nl": "3.2474854227788175e+250",
                     "q_factor": "2.718398599618707e+22", "n_t_i": "1"}


# a stable point whose variances cannot be taken is no empty row marked
# stable: ``variances`` ends the run with the error, as ``dynamics`` does
@pytest.mark.parametrize("mode", ["variances", "dynamics"])
def test_overflowing_drift_exits_3(mode, capsys):
    rc = main(argv_for(mode, OVERFLOWING_DRIFT))
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert assert_one_json_record(err)["type"] == "InvalidParams"


# n_t_i near the float range: the steady variances are finite, near 1.1e308,
# but dq2 + dp2 and V + V^T are not
HUGE_OCCUPANCY = {"b": "18.018148102696706", "phi": "-9.00908471927914",
                  "phi_nl": "0.01341490652415349", "q_factor": "3684.7184194676943",
                  "n_t_i": "2.539974757085866e+307"}


def test_huge_occupancy_prints_a_finite_occupancy(capsys):
    rc = main(argv_for("variances", {**HUGE_OCCUPANCY, "noise_model": "markov_flat"}))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert out.splitlines()[-1].split(",")[:3] == [
        "1.09589779954e+308", "1.09482770692e+308", "5.47681376614e+307"]


def csv_rows(out):
    """The data rows of a CSV on stdout, as lists of cells."""
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("t_end", [None, "1e305"])
def test_huge_occupancy_transient_is_finite(t_end, capsys):
    # V0 (5.08e307 on the mirror diagonal) and V_ss (max 1.0959e308) are
    # finite, and so is every V(t) propagated in their units; warnings are
    # errors under pytest, so numpy's would surface as a raise
    overrides = dict(HUGE_OCCUPANCY)
    if t_end is not None:  # past t = 0 every sample is the steady state
        overrides["dynamics.t_end"] = t_end
    rc = main(argv_for("dynamics", overrides))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    rows = csv_rows(out)
    assert all(math.isfinite(float(x)) for row in rows for x in row[:7])
    if t_end is not None:
        v_ss = lyapunov_steady_state(build_system(parse_config("", "dynamics", overrides).params)).v
        assert [float(x) for x in rows[-1][1:5]] == pytest.approx(np.diag(v_ss), rel=1e-11)


@pytest.mark.parametrize("quadrature", ["x_out", "y_out"])
def test_huge_occupancy_homodyne_is_finite(quadrature, capsys):
    rc = main(argv_for("homodyne", {**HUGE_OCCUPANCY, "homodyne.quadrature": quadrature}))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert 1.0 < float(csv_rows(out)[0][0]) < math.inf


# 2 n_t_i + 1 is finite, but 2 (2 n_t_i + 1) is not: the mirror diffusion
# 2 ((2 n_t_i + 1)/Q) is, and so is every row
@pytest.mark.parametrize("mode", ["dynamics", "variances"])
def test_diffusion_near_the_float_range_is_finite(mode, capsys):
    rc = main(argv_for(mode, {**OPERATING_POINT, "n_t_i": "5e307"}))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    rows = csv_rows(out)
    assert rows and all(math.isfinite(float(x)) for row in rows for x in row[:-1])


def test_homodyne_kernel_near_the_float_range_is_finite(capsys):
    # the grid values times kappa/Gamma overflow, but the weighted sum
    # does not: the factor goes to the weights, not to the kernel
    rc = main(argv_for("homodyne", {**OPERATING_POINT, "n_t_i": "5e307"}))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert float(csv_rows(out)[0][0]) == pytest.approx(3.23631562731e307, rel=1e-11)


POINT_MODES = sorted(mode for mode, entry in MODES.items() if "n_t_i" in entry.reads)


# 2 n_t_i + 1 overflows from n_t_i = 2**1023 (about 8.988e307) on: the
# point is invalid at config time in every mode, as any other bad field is
@pytest.mark.parametrize("n_t_i", ["8.99e307", "1e308", "1.7976931348623157e308"])
@pytest.mark.parametrize("mode", POINT_MODES)
def test_occupancy_past_the_float_range_is_a_config_error(mode, n_t_i, capsys):
    rc = main(argv_for(mode, {**BASE[mode], "n_t_i": n_t_i}))
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    record = assert_one_json_record(err)
    assert record["type"] == "ValidationError"
    assert len(record["violations"]) == 1 and "n_t_i" in record["violations"][0]
    assert "2 n_t_i + 1" in record["violations"][0]


# just inside the range the point is valid: 9 samples of the transient
# (on the default 401 one sample's V_qq, breathing in the dressed
# potential, passes the float range: a typed overflow) and the flat
# variances are finite
@pytest.mark.parametrize("mode, overrides", [
    ("dynamics", {"dynamics.samples": "9"}), ("variances", {"noise_model": "markov_flat"})])
def test_occupancy_just_inside_the_float_range_is_finite(mode, overrides, capsys):
    rc = main(argv_for(mode, {**OPERATING_POINT, "n_t_i": "8.98e307", **overrides}))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    rows = csv_rows(out)
    assert rows and all(math.isfinite(float(x)) for row in rows for x in row[:-1])


def test_sweep_past_the_float_range_marks_rows_invalid(capsys):
    rc = main(argv_for("variances", {
        **OPERATING_POINT, "noise_model": "markov_flat", "sweep.variable": "n_t_i",
        "sweep.start": "8e307", "sweep.stop": "1e308", "sweep.points": "3"}))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    rows = csv_rows(out)
    assert rows[0][-1] == "true" and all(math.isfinite(float(x)) for x in rows[0][:-1])
    assert rows[1:] == [["9e+307", "", "", "", "", "false"], ["1e+308", "", "", "", "", "false"]]


# phi = 0 and 1e-9: the modes are not separated and the propagator is expm
@pytest.mark.parametrize("phi", ["10", "0", "1e-9"])
def test_decayed_transient_is_the_steady_state(phi, capsys):
    # at these times t Q |Im lambda| overflows while e^{A t Q} has long
    # decayed: every sample past t = 0 is the Lyapunov steady state
    overrides = {"dynamics.t_end": "1e305", "phi": phi}
    rc = main(argv_for("fig3", overrides))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert out.splitlines()[-1].startswith("1e+305,")
    cfg = parse_config("", "fig3", overrides)
    v_ss = lyapunov_steady_state(build_system(cfg.params)).v
    last = run(cfg).rows[-1]
    assert last[1:5] == pytest.approx(np.diag(v_ss), rel=1e-12)


def test_default_window_settles_a_slow_high_q_transient(capsys):
    # twenty lifetimes of the slowest drift mode, the window the CLI used
    # to set, ended with dq2 = 25189.7338609, 0.27% above the steady state
    point = {"b": "0.6513789801989002", "phi": "0.36696036045309516",
             "phi_nl": "0.3861953860011457", "q_factor": "6731911.244041609",
             "n_t_i": "11867144866.396795"}
    assert main(argv_for("dynamics", {**point, "dynamics.samples": "3"})) == 0
    last = csv_rows(capsys.readouterr().out)[-1]
    assert last[1] == "25120.2475439"
    v_ss = lyapunov_steady_state(build_system(NormalizedParams(**point))).v
    assert abs(float(last[1]) - v_ss[0, 0]) <= 1e-10 * v_ss[0, 0]


def test_homodyne_with_both_rates_reads_no_closed_form(monkeypatch, capsys):
    overrides = {**OPERATING_POINT, "homodyne.lo_rate": "500", "homodyne.demod_rate": "1e4"}
    assert main(argv_for("homodyne", overrides)) == 0
    want = capsys.readouterr().out

    def refuse(params):
        raise AssertionError("closed-form rates read although homodyne.lo_rate is set")

    monkeypatch.setattr("optocool.cli.effective_rates", refuse)
    assert main(argv_for("homodyne", overrides)) == 0
    assert capsys.readouterr().out == want


def test_homodyne_default_lo_rate_needs_a_positive_closed_form(capsys):
    # stable, every drift mode decays, but the closed-form Gamma_eff/Gamma < 0
    point = {"b": "0.5247", "phi": "-0.7915", "phi_nl": "0.5175", "q_factor": "3.459",
             "n_t_i": "100"}
    rc = main(argv_for("homodyne", point))
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    record = assert_one_json_record(err)
    assert record["type"] == "InvalidRegime" and "homodyne.lo_rate" in record["message"]
    assert main(argv_for("homodyne", {**point, "homodyne.lo_rate": "0.5"})) == 0


@pytest.mark.parametrize("key", ["homodyne.window", "homodyne.n_inner", "homodyne.n_outer"])
def test_homodyne_grid_keys_are_gone(key, capsys):
    rc = main(argv_for("homodyne", {**BASE["homodyne"], key: "8"}))
    assert rc == 2
    record = assert_one_json_record(capsys.readouterr().err)
    assert record["violations"] == [f"{key}: unknown key"]


def test_homodyne_filter_is_twelve_lifetimes_on_a_two_to_one_grid(monkeypatch):
    # the window follows from lo_rate; the grid is 64 x 32 whatever the point
    calls = []

    def spy(*args):
        pairs, weights = matched_filter_pairs(*args)
        calls.append((args, len(pairs)))
        return pairs, weights

    monkeypatch.setattr(dynamics, "matched_filter_pairs", spy)
    run(parse_config("", "homodyne", {**BASE["homodyne"], "homodyne.lo_rate": "500"}))
    assert calls == [((12.0 / 500.0,), 64 * 32)]


# stable points where the closed form has Gamma_eff <= 0 (InvalidRegime)
# keep their exact cell; the closed-form cell alone is empty
def test_fig2_keeps_the_exact_cell_where_the_closed_form_is_undefined(capsys):
    rc = main(argv_for("fig2", {"b": "0.5247", "phi_nl": "0.5175", "q_factor": "3.459",
                                "n_t_i": "100", "sweep.start": "-0.85", "sweep.stop": "-0.75",
                                "sweep.points": "3"}))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    rows = csv_rows(out)
    assert [len(row) for row in rows] == [4, 4, 4]
    assert all(row[1] and float(row[1]) > 0.0 and row[3] == "true" for row in rows)
    assert rows[0][2] and rows[1][2] == rows[2][2] == ""
    exact = spectra.position_variance(
        model.NormalizedParams(b=0.5247, phi=-0.8, phi_nl=0.5175, q_factor=3.459, n_t_i=100.0),
        ThermalNoiseModel.QUANTUM_COTH)[0]
    assert rows[1][1] == f"{exact:.12g}"


def test_optimize_names_why_no_probe_was_scored(capsys):
    # every probe is stable, but its coth Bose tail is not finite
    rc = main(argv_for("optimize", {**OPERATING_POINT, "n_t_i": "1e307",
                                    "noise_model": "quantum_coth"}))
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    record = assert_one_json_record(err)
    assert record["type"] == "OptimizationFailure"
    assert "QuadratureFailure" in record["message"]
    assert "no stable operating point" not in record["message"]


# fig2 points that are stable but whose exact dq2 cannot be taken: at
# n_t_i = 5e307 the residue sum is not finite, and at b = 1.7e-86 the
# drift's eigenvalues are lost to round-off, so the poles do not read as
# separated and the quadrature diverges
FIG2_WITHOUT_EXACT = {
    "fig2": {"n_t_i": "5e307"},
    "fig2_vanishing_b": {
        "b": "1.7482755178042097e-86", "phi": "1.2629335915685275e-07",
        "phi_nl": "1.4976113354884946", "q_factor": "106702.15997989006",
        "n_t_i": "1.052865587921469e+115", "sweep.start": "1.2629335915685275e-07",
        "sweep.stop": "1.3e-07", "sweep.points": "2"},
}


@pytest.mark.parametrize("mode, point", [
    ("variances", {**OPERATING_POINT, "n_t_i": "1e307", "noise_model": "quantum_coth"}),
    ("fig1", {"n_t_i": "1e307", "sweep.points": "2"}),
    *(("fig2", point) for point in FIG2_WITHOUT_EXACT.values()),
], ids=["variances", "fig1", *FIG2_WITHOUT_EXACT])
def test_stable_point_without_variances_ends_the_run(mode, point, capsys):
    # the coth Bose tail (or the exact dq2) is not finite: no empty row is
    # marked stable, the run exits 3 with the typed record
    rc = main(argv_for(mode, point))
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert assert_one_json_record(err)["type"] == "QuadratureFailure"


def test_adiabatic_keeps_its_empty_closed_form_cells(capsys):
    # a stable point outside the closed form's regime: its rates and an
    # empty closed-form tail, marked stable
    rc = main(argv_for("adiabatic", {**OPERATING_POINT, "b": "0.5247", "phi": "-0.8",
                                     "phi_nl": "0.5175", "q_factor": "3.459"}))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    (row,) = csv_rows(out)
    assert all(row[:3]) and row[3:8] == [""] * 5 and row[-1] == "true"


@pytest.mark.parametrize("phi", ["1e-10", "0"])
def test_flat_bath_rows_do_not_read_the_cutoff(phi, capsys):
    # phi = 1e-10: the cavity poles nearly coincide and every moment is the
    # quadrature, whose flat dp^2 used to split off its tail at omega_max;
    # phi = 0: the cavity decouples and every moment is a sum over three poles
    point = {"b": "1", "phi": phi, "phi_nl": "0.3", "q_factor": "1e4", "n_t_i": "10",
             "noise_model": "markov_flat"}
    outputs = []
    for cutoff in ("3", "100"):
        assert main(argv_for("variances", {**point, "tolerances.omega_max": cutoff})) == 0
        outputs.append([row for row in capsys.readouterr().out.splitlines()
                        if not row.startswith("#")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("noise_model", ["quantum_coth", "markov_flat"])
def test_detuning_sweep_through_resonance_runs_no_quadrature(noise_model, monkeypatch, capsys):
    # a sweep built like the benchmark's: its third row is phi = 0 up to round-off
    quad_calls = []
    monkeypatch.setattr("optocool.spectra.quad", lambda *a, **k: quad_calls.append(a))
    star = optimal_detuning(2.0)
    overrides = {"b": "2", "phi": repr(star), "phi_nl": "0.1", "q_factor": "3e4", "n_t_i": "100",
                 "noise_model": noise_model, "sweep.variable": "phi",
                 "sweep.start": repr(-0.25 * star), "sweep.stop": repr(2.0 * star),
                 "sweep.points": "19"}
    assert main(argv_for("variances", overrides)) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()
            if not row.startswith("#")]
    assert abs(float(rows[3][0])) < 1e-15 and rows[3][-1] == "true"
    assert quad_calls == []


# Text for the fuzz property. Integer-valued text is capped so that no
# example asks for a long sweep or a large grid; output_path is left out
# because any text there names a file to write.
HOSTILE = ["nan", "inf", "-inf", "-0", "0", "1", "2", "-3", "0.5", "1e308", "-1e308",
           "1e-308", "1e-300", "1e300", "junk", "", "true", "log", "phi", "x_out",
           "markov_flat"]


def _small_if_integer(text):
    try:
        return abs(int(text)) <= 40
    except ValueError:
        return True


FUZZ_TEXT = st.one_of(
    st.sampled_from(HOSTILE),
    st.integers(-5, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=8).filter(_small_if_integer),
)


#: the closed-form columns: the only cells a row marked stable may leave empty
CLOSED_FORM = {
    "adiabatic": {"omega_eff_ratio", "gamma_eff_ratio", "q_eff", "f", "eta", "dq2", "n_t_f",
                  "adiabatic_ok"},
    "fig2": {"dq2_adiabatic"},
}
#: the columns that hold a flag or a name, not a number
TEXT_COLUMNS = {"stable", "marginal", "adiabatic_ok", "quadrature"}


def assert_clean_exit(mode, overrides):
    """The output contract: exit 0 with every exact-route cell of a stable
    row present and finite, or exit 2 or 3 with one typed record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv_for(mode, overrides))
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2, 3)
    if rc:
        assert out == ""
        assert "type" in assert_one_json_record(err)
        return
    assert err == ""
    header, *rows = [line for line in out.splitlines() if not line.startswith("#")]
    names = [cell.split(" [")[0] for cell in header.split(",")]
    for row in rows:
        cells = dict(zip(names, row.split(",")))
        if cells["stable"] != "true":
            continue
        for name, cell in cells.items():
            if cell == "":
                assert name in CLOSED_FORM.get(mode, ()), (name, row)
            elif name not in TEXT_COLUMNS:
                assert math.isfinite(float(cell)), (name, row)


def log_uniform(lo, hi):
    """Floats spread evenly in log between lo and hi (both > 0)."""
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def signed(strategy):
    return st.tuples(st.sampled_from([-1.0, 1.0]), strategy).map(lambda x: x[0] * x[1])


# Strata of each coordinate that reach its valid extremes, so that the
# ends of the domain are not rare: b from 1e-100 to 1e6, Q from just
# above 1 to 1e14, n_t_i up to 8.988e307 (2 n_t_i + 1 must stay finite).
B_STRATA = st.one_of(st.sampled_from([1e-100, 1e6]), log_uniform(1e-100, 1e-3),
                     log_uniform(1e-3, 1e3), log_uniform(1e3, 1e6))
Q_STRATA = st.one_of(st.sampled_from([1.0 + 2.0 ** -40, 1e14]),
                     log_uniform(1.0 + 2.0 ** -40, 1e4), log_uniform(1e4, 1e14))
N_STRATA = st.one_of(st.sampled_from([0.0, 8.988e307]), log_uniform(1e-3, 1e3),
                     log_uniform(1e3, 8.988e307))


@st.composite
def extreme_overrides(draw, mode):
    """A point of stratified extremes for ``mode``, as ``--set`` overrides.

    phi is 0, near 0, a multiple of b, or near an edge of the spring
    margin 1 + phi^2 - 2 phi phi_nl: a root phi_nl +- sqrt(phi_nl^2 - 1),
    which needs phi_nl >= 1. A swept coordinate takes the drawn value at
    both ends of its sweep. ``steady`` reads no point: its detuning and
    drive take strata of their own.
    """
    if mode == "steady":
        phi_c = st.one_of(st.just(0.0), signed(log_uniform(1e-300, 1e-3)),
                          signed(log_uniform(1e-3, 1e3)), signed(log_uniform(1e3, 1e150)))
        drive = st.one_of(st.just(0.0), log_uniform(1e-300, 1e300))
        return {"steady.phi_c": repr(draw(phi_c)), "steady.drive": repr(draw(drive))}
    b = draw(B_STRATA)
    kind = draw(st.sampled_from(["zero", "near_zero", "multiple", "spring_edge"]))
    if kind == "spring_edge":
        phi_nl = draw(st.floats(1.0, 10.0))
        root = phi_nl + draw(signed(st.just(math.sqrt(phi_nl * phi_nl - 1.0))))
        phi = root * (1.0 + draw(signed(log_uniform(1e-12, 1e-2))))
    else:
        phi_nl = draw(st.one_of(st.just(0.0), log_uniform(1e-6, 10.0)))
        phi = draw({"zero": st.just(0.0), "near_zero": signed(log_uniform(1e-300, 1e-6)),
                    "multiple": st.floats(-1.0, 3.0).map(lambda r: r * b)}[kind])
    point = {"b": b, "phi": phi, "phi_nl": phi_nl, "q_factor": draw(Q_STRATA),
             "n_t_i": draw(N_STRATA)}
    overrides = {key: repr(value) for key, value in point.items()}
    swept = {**MODES[mode].preset, **BASE[mode]}.get("sweep.variable")
    if swept:
        value = overrides[swept]
        overrides.update({"sweep.start": value, "sweep.stop": value, "sweep.points": "2"})
    return overrides


@settings(max_examples=400)
@given(data=st.data())
def test_any_input_exits_cleanly(data):
    # hostile text on up to three keys, or a point of stratified extremes
    mode = data.draw(st.sampled_from(sorted(MODES)))
    keys = sorted(MODES[mode].reads - {"output_path"})
    overrides = data.draw(st.one_of(
        st.dictionaries(st.sampled_from(keys), FUZZ_TEXT, max_size=3),
        extreme_overrides(mode),
    ))
    assert_clean_exit(mode, {**BASE[mode], **overrides})


#: a count past numpy's largest array, which numpy rejects before it allocates
HUGE_COUNT = "100000000000000000000"
#: each count that sizes an array, by mode
COUNTS = {"spectrum": "spectrum.omega_points", "variances": "sweep.points",
          "dynamics": "dynamics.samples"}

#: points of stratified extremes that once broke the output contract: a
#: raw ValueError or OverflowError of the Lyapunov solve, a RuntimeWarning
#: on stderr, an inf cell, a raw ZeroDivisionError, a raw ValueError of
#: numpy's size limit
EXTREME_POINTS = {
    **{f"{mode}_count_past_the_largest_array": (mode, {key: HUGE_COUNT})
       for mode, key in COUNTS.items()},
    "dynamics_diffusion_overflow": ("dynamics", {
        "b": "1.0", "phi": "0.6440621913805864", "phi_nl": "0.0",
        "q_factor": "1.0000000000009095", "n_t_i": "8.988e+307"}),
    "dynamics_top_binade_diffusion": ("dynamics", {
        "b": "1e-100", "phi": "0.0", "phi_nl": "0.0", "q_factor": "2.718281828459045",
        "n_t_i": "8.988e+307"}),
    "dynamics_track_overflow": ("dynamics", {
        "b": "1000000.0", "phi": "0.12616082231132736", "phi_nl": "4.0",
        "q_factor": "1096.6331584284585", "n_t_i": "8.988e+307"}),
    "homodyne_diffusion_overflow": ("homodyne", {
        "b": "15.007742229618701", "phi": "33.10977297208286", "phi_nl": "3.3614075305938247",
        "q_factor": "1.000000000001", "n_t_i": "8.988e+307"}),
    "optimize_brent_overflow": ("optimize", {
        "b": "1000000.0", "phi": "0.0", "phi_nl": "0.25843661577979227",
        "q_factor": "191929586.39032808", "n_t_i": "8.988e+307", "sweep.start": "1000000.0",
        "sweep.stop": "1000000.0", "sweep.points": "2"}),
    "variances_error_bound_overflow": ("variances", {
        "b": "15829.245451346016", "phi": "77.77649811531171", "phi_nl": "0.0",
        "q_factor": "100000000000000.0", "n_t_i": "8.988e+307", "sweep.start": "77.77649811531171",
        "sweep.stop": "77.77649811531171", "sweep.points": "2"}),
    "adiabatic_decomposition_underflow": ("adiabatic", {
        "b": "4.31755093934738e-77", "phi": "5.017380291514038e-278", "phi_nl": "0.0",
        "q_factor": "1.0000000000009095", "n_t_i": "97.03118027279464",
        "sweep.start": "4.31755093934738e-77", "sweep.stop": "4.31755093934738e-77",
        "sweep.points": "2"}),
}


@pytest.mark.parametrize("mode, point", EXTREME_POINTS.values(), ids=EXTREME_POINTS)
def test_extreme_points_exit_cleanly(mode, point):
    assert_clean_exit(mode, {**BASE[mode], **point})


@pytest.mark.parametrize("point", FIG2_WITHOUT_EXACT.values(), ids=FIG2_WITHOUT_EXACT)
def test_fig2_without_the_exact_variance_exits_cleanly(point):
    assert_clean_exit("fig2", point)


@pytest.mark.parametrize("mode, key", COUNTS.items())
def test_count_past_the_largest_array_is_typed(mode, key, capsys):
    rc = main(argv_for(mode, {**BASE[mode], key: HUGE_COUNT}))
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    record = assert_one_json_record(err)
    assert record["type"] == "InvalidParams"
    assert HUGE_COUNT in record["message"] and "Maximum allowed size" in record["message"]


@pytest.mark.parametrize("mode, key", COUNTS.items())
def test_count_past_the_memory_is_typed(mode, key, monkeypatch, capsys):
    # a count numpy accepts but cannot allocate; no real allocation is tried
    linspace = np.linspace

    def short_of_memory(start, stop, num, *args, **kwargs):
        if num > 1000:
            raise MemoryError(f"Unable to allocate an array with shape ({num},)")
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", short_of_memory)
    rc = main(argv_for(mode, {**BASE[mode], key: "1000000000000"}))
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    record = assert_one_json_record(err)
    assert record["type"] == "InvalidParams" and "Unable to allocate" in record["message"]
