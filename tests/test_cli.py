"""Configuration parsing, sweep dispatch and CSV emission."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optocool import (
    ParseError,
    ValidationError,
    build_system,
    lyapunov_steady_state,
    optimal_detuning,
)
from optocool.cli import (
    KEYS,
    MODES,
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

    def test_default_dynamics_window_reaches_steady_state(self):
        # outside the adiabatic regime the closed-form Gamma_eff
        # overstates the relaxation rate; the default window must still
        # cover the slowest drift mode
        doc = MINIMAL.replace("phi_nl = 0.1", "phi_nl = 0.3")
        cfg = parse_config(doc, mode="dynamics")
        last = run(cfg).rows[-1]
        v_ss = lyapunov_steady_state(build_system(cfg.params)).v
        assert last[1] == pytest.approx(v_ss[0, 0], rel=1e-5)
        assert last[2] == pytest.approx(v_ss[1, 1], rel=1e-5)

    def test_homodyne_mode_row(self):
        doc = MINIMAL + "homodyne.n_outer = 32\nhomodyne.n_inner = 16\n"
        table = run(parse_config(doc, mode="homodyne"))
        row = table.rows[0]
        assert row[0] > 30.0
        assert row[3] == "x_out"


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
            ("dynamics", {"dynamics.samples": "-3"}),
            ("homodyne", {"homodyne.n_outer": "0"}),
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
    "homodyne": {**OPERATING_POINT, "homodyne.n_outer": "16", "homodyne.n_inner": "8"},
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
    "homodyne.window": "10", "homodyne.lo_rate": "1", "homodyne.demod_rate": "0",
    "homodyne.quadrature": "y_out", "homodyne.n_outer": "8", "homodyne.n_inner": "4",
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
    assert sum(len(declared(mode)) for mode in MODES) == 162
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
    ("homodyne", {"homodyne.window": "1e308"}),
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


def test_overflowing_drift_is_a_row_error(capsys):
    rc = main(argv_for("variances", OVERFLOWING_DRIFT))
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert [row for row in out.splitlines() if not row.startswith("#")][1:] == [",,,,true"]


def test_overflowing_drift_exits_3(capsys):
    rc = main(argv_for("dynamics", OVERFLOWING_DRIFT))
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert assert_one_json_record(err)["type"] == "InvalidParams"


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


def test_homodyne_with_both_rates_reads_no_closed_form(monkeypatch, capsys):
    overrides = {**OPERATING_POINT, "homodyne.lo_rate": "1", "homodyne.demod_rate": "1000",
                 "homodyne.n_outer": "16", "homodyne.n_inner": "8"}
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


def test_flat_bath_rows_do_not_read_the_cutoff(capsys):
    # phi = 0: the cavity poles coincide and every moment is the quadrature,
    # whose flat dp^2 used to split off its tail at omega_max
    point = {"b": "1", "phi": "0", "phi_nl": "0.3", "q_factor": "1e4", "n_t_i": "10",
             "noise_model": "markov_flat"}
    outputs = []
    for cutoff in ("3", "100"):
        assert main(argv_for("variances", {**point, "tolerances.omega_max": cutoff})) == 0
        outputs.append([row for row in capsys.readouterr().out.splitlines()
                        if not row.startswith("#")])
    assert outputs[0] == outputs[1]


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


@settings(max_examples=200)
@given(data=st.data())
def test_any_input_exits_cleanly(data):
    mode = data.draw(st.sampled_from(sorted(MODES)))
    keys = sorted(MODES[mode].reads - {"output_path"})
    overrides = data.draw(st.dictionaries(st.sampled_from(keys), FUZZ_TEXT, max_size=3))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv_for(mode, {**BASE[mode], **overrides}))
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2, 3)
    if rc:
        assert out == ""
        assert "type" in assert_one_json_record(err)
    else:
        assert err == ""
        for row in out.splitlines():
            if not row.startswith("#") and row.endswith(",true"):
                assert "nan" not in row and "inf" not in row, row
