"""Every route agrees with classify on where the mirror is stable."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_lyapunov

from optocool import (
    NormalizedParams,
    ThermalNoiseModel,
    Unstable,
    approx_variance,
    build_system,
    classify,
    effective_rates,
    integrate_variances,
    lyapunov_steady_state,
    noise_spectrum,
    physicality_defect,
    steady_variances,
)
from optocool.cli import main
from optocool.model import drift_modes


def drift(p):
    """The linearized drift, written out here independently of build_system."""
    g = math.sqrt(2.0 * p.phi_nl / p.b)
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, -1.0 / p.q_factor, g, 0.0],
            [0.0, 0.0, -1.0 / p.b, p.phi / p.b],
            [g, 0.0, -p.phi / p.b, -1.0 / p.b],
        ]
    )


def diffusion(p):
    return np.diag([0.0, 2.0 * (2.0 * p.n_t_i + 1.0) / p.q_factor, 2.0 / p.b, 2.0 / p.b])


def cli_args(p):
    return [
        arg
        for name in ("b", "phi", "phi_nl", "q_factor", "n_t_i")
        for arg in ("--set", f"{name}={getattr(p, name)!r}")
    ]


# Two unstable points, each once let through by one route:
# spring margin 1 + phi^2 - 2 phi phi_nl = -19 (noise_spectrum returned 0.81);
# Gamma_eff > 0 although the drift has an eigenvalue with Re = +0.187 (the
# variances mode wrote a finite row).
UNSTABLE = {
    "spring": NormalizedParams(b=10, phi=10, phi_nl=6, q_factor=1e4, n_t_i=100),
    "growing": NormalizedParams(
        b=9.284, phi=-14.52, phi_nl=3.206, q_factor=6.639, n_t_i=100
    ),
}

ROUTES = {
    "noise_spectrum": lambda p: noise_spectrum(0.5, p),
    "integrate_variances": integrate_variances,
    "approx_variance": approx_variance,
    "lyapunov": lambda p: steady_variances(build_system(p)),
}


@pytest.mark.parametrize("p", UNSTABLE.values(), ids=UNSTABLE.keys())
class TestUnstablePointsFlaggedEverywhere:
    def test_classify(self, p):
        rep = classify(p)
        assert not rep.stable
        assert rep.reason != "stable"

    @pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
    def test_library_route_raises(self, p, route):
        with pytest.raises(Unstable):
            route(p)

    @pytest.mark.parametrize("mode", ["spectrum", "variances", "adiabatic"])
    def test_cli_rows_flagged(self, p, mode, capsys):
        grid = ["--set", "spectrum.omega_points=5"] if mode == "spectrum" else []
        rc = main([mode, *cli_args(p), *grid])
        assert rc == 0
        rows = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ][1:]
        assert rows and all(row.endswith(",false") for row in rows)

    def test_cli_dynamics_exits_unstable(self, p, capsys):
        rc = main(["dynamics", *cli_args(p)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["type"] == "Unstable"


def test_growing_mode_has_no_steady_state():
    # the resonance approximation calls this point damped (Gamma_eff > 0);
    # the Lyapunov equation still has a solution there, but it is no
    # covariance (dp2 < 0), so the finite spectrum integral the old
    # Gamma_eff test let through described no steady state
    p = UNSTABLE["growing"]
    assert effective_rates(p).gamma_eff_ratio > 0
    assert np.max(np.linalg.eigvals(drift(p)).real) == pytest.approx(0.187, abs=1e-3)
    v = solve_continuous_lyapunov(drift(p), -diffusion(p))
    assert v[1, 1] < 0


def test_negative_gamma_eff_point_that_is_stable():
    # Gamma_eff < 0 but every drift eigenvalue decays: the spectrum
    # integral exists and equals the Lyapunov steady state
    p = NormalizedParams(b=0.5247, phi=-0.7915, phi_nl=0.5175, q_factor=3.459, n_t_i=100)
    assert effective_rates(p).gamma_eff_ratio < 0
    assert np.max(np.linalg.eigvals(drift(p)).real) < 0
    assert classify(p).stable
    exact = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
    lyap = steady_variances(build_system(p))
    assert exact.dq2 == pytest.approx(lyap.dq2, rel=1e-10)
    assert exact.dp2 == pytest.approx(lyap.dp2, rel=1e-10)


def test_negative_static_margin_point_that_is_stable():
    # the static margin 1 + phi^2 + 2 phi phi_nl is -1.5 here, but that
    # margin enters neither the drift nor its characteristic polynomial:
    # every drift eigenvalue decays, the spectrum integral equals the
    # Lyapunov steady state, and that state is physical
    p = NormalizedParams(b=20.84, phi=-0.3424, phi_nl=3.8185, q_factor=1067, n_t_i=100)
    assert 1.0 + p.phi**2 + 2.0 * p.phi * p.phi_nl == pytest.approx(-1.5, abs=0.01)
    assert np.max(np.linalg.eigvals(drift(p)).real) == pytest.approx(-1.8e-4, rel=0.05)
    assert classify(p).stable
    v = lyapunov_steady_state(build_system(p)).v
    assert physicality_defect(v) > 0.4
    exact = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
    assert exact.dq2 == pytest.approx(v[0, 0], rel=1e-10)
    assert exact.dp2 == pytest.approx(v[1, 1], rel=1e-10)


@settings(max_examples=400)
@given(
    b=st.floats(0.05, 50.0),
    ratio=st.floats(-3.0, 3.0),
    phi_nl=st.floats(0.0, 10.0),
    q_factor=st.sampled_from([2.0, 10.0, 1e2, 1e4, 1e6]),
)
def test_classify_matches_drift_eigenvalues(b, ratio, phi_nl, q_factor):
    p = NormalizedParams(b=b, phi=b * ratio, phi_nl=phi_nl, q_factor=q_factor, n_t_i=0)
    rep = classify(p)
    a = drift(p)
    max_re = float(np.max(np.linalg.eigvals(a).real))
    # skip points within 1e-9 of the boundary
    assume(abs(max_re) > 1e-9 * np.linalg.norm(a))
    assert rep.stable == (max_re < 0)


@settings(max_examples=40)
@given(
    b=st.floats(0.2, 20.0),
    ratio=st.floats(-2.0, 3.0),
    phi_nl=st.floats(0.0, 1.0),
    q_factor=st.sampled_from([10.0, 1e2, 1e3, 1e4]),
    n_t_i=st.floats(0.0, 1000.0),
)
def test_spectrum_and_lyapunov_agree_at_stable_points(b, ratio, phi_nl, q_factor, n_t_i):
    p = NormalizedParams(b=b, phi=b * ratio, phi_nl=phi_nl, q_factor=q_factor, n_t_i=n_t_i)
    assume(classify(p).stable)
    v = lyapunov_steady_state(build_system(p)).v
    if n_t_i >= 1.0:
        # below that the flat Markovian mirror bath, which is not
        # completely positive, can leave the physical set (-1.2e-3 at
        # b=1, phi=2, phi_nl=1, Q=10, n_t_i=0)
        assert physicality_defect(v) >= -1e-9 * np.max(np.abs(v))
    exact = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
    # residue sums where the modes are separated; else a quadrature to 1e-8
    rel = 1e-10 if drift_modes(p).separated else 1e-6
    assert exact.dq2 == pytest.approx(v[0, 0], rel=rel)
    assert exact.dp2 == pytest.approx(v[1, 1], rel=rel)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Bartels-Stewart loses digits at high Q")
def test_lyapunov_holds_residue_accuracy_at_high_q():
    # non-degenerate (the modes are separated), yet the Bartels-Stewart
    # steady state is 1.7e-9 off the residue sums, which 40-digit mpmath
    # sums confirm to 1e-15. A modal Lyapunov solve in the drift's
    # eigenbasis is expected to close the gap
    p = NormalizedParams(b=0.342, phi=-0.0133, phi_nl=3.35e-4, q_factor=2.02e5, n_t_i=33.4)
    if not (classify(p).stable and drift_modes(p).separated):
        pytest.fail("the point must be stable with separated modes")
    exact = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
    lyap = steady_variances(build_system(p))
    assert lyap.dq2 == pytest.approx(exact.dq2, rel=1e-10)
    assert lyap.dp2 == pytest.approx(exact.dp2, rel=1e-10)
