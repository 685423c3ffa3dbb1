"""Seeded job lists for the three benchmark workloads.

A job is one ``optocool`` command line plus what the benchmark needs to
check its outcome. The program only ever sees ``Job.argv``; ``Job.spec``
stays on the benchmark side. Every list has a fixed composition (the
same modes in the same counts for every seed) and draws its parameters
from strata, so the cost of a pass varies little from seed to seed while
the inputs themselves change.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

# Constants for the SI configs of ``cli_small`` (CODATA 2018).
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
K_B = 1.380649e-23

#: Operating point of the fig3 preset, used by the homodyne reference job.
FIG3_POINT = {"b": 10.0, "phi": 10.0, "phi_nl": 0.1, "q_factor": 1e4, "n_t_i": 100.0}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the expectation the benchmark checks it against.

    ``kind`` names the check. A ``valid`` job must exit 0 with a CSV; an
    invalid one must exit 2 or 3 with one JSON record on stderr.
    """

    kind: str
    argv: tuple
    valid: bool = True
    spec: dict = field(default_factory=dict, hash=False, compare=False)


def optimal_detuning(b: float) -> float:
    """phi*(b) from the paper's closed form, used only to place inputs."""
    return math.sqrt((b * b - 1.0 + 2.0 * math.sqrt(1.0 + b * b + b**4)) / 3.0)


def _num(x) -> str:
    return repr(float(x)) if not isinstance(x, str) else x


def _argv(mode: str, settings: dict) -> tuple:
    out = [mode]
    for key, value in settings.items():
        out += ["--set", f"{key}={_num(value)}"]
    return tuple(out)


def _job(kind: str, mode: str, settings: dict, **spec) -> Job:
    return Job(kind=kind, argv=_argv(mode, settings), spec={"settings": dict(settings), **spec})


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _offsets(rng: random.Random, n: int) -> list:
    """Seeded positions inside the strata of an n-point design, five per point."""
    return [[rng.random() for _ in range(5)] for _ in range(n)]


def _design(rng: random.Random, n: int, b_lo: float, b_hi: float,
            phi_nl_cap: float = 0.3, offsets=None) -> list:
    """n cooling-side operating points on a jittered lattice Latin hypercube.

    Each coordinate is split into n strata and point i takes stratum
    (i * k) mod n of it, with a fixed multiplier k per coordinate, plus a
    seeded offset inside the stratum. The pairing of strata is therefore
    the same for every seed, which keeps the summed cost of a list steady
    while every value changes with the seed. n must be a prime above 5.
    b, phi_nl, q_factor and n_t_i are spread logarithmically, phi within
    10% of phi*(b), and phi_nl stays at most phi_nl_cap / b. ``offsets``
    replaces the seeded positions inside the strata (see ``_offsets``).
    """
    if offsets is None:
        offsets = _offsets(rng, n)
    points = []
    for i in range(n):
        u = [((i * k) % n + r) / n for k, r in zip((1, 3, 2, 5, 4), offsets[i])]
        b = b_lo * (b_hi / b_lo) ** u[0]
        nl_hi = min(0.3, phi_nl_cap / b)
        points.append({
            "b": b,
            "phi": optimal_detuning(b) * (0.9 + 0.2 * u[4]),
            "phi_nl": 0.05 * (nl_hi / 0.05) ** u[1],
            "q_factor": 1e3 * 100.0 ** u[2],
            "n_t_i": 20.0 * 25.0 ** u[3],
        })
    rng.shuffle(points)
    return points


# ------------------------------------------------------------- spectral


def spectral(rng: random.Random) -> list:
    """Wide sweeps and the optimizer: both spend their time in spectrum integrals.

    The fig1/fig2 presets and the seeded ``variances`` and ``adiabatic``
    detuning sweeps evaluate many independent points; the ``optimize``
    jobs make dependent, sequential golden-section probes (phi free over
    a 3-point b grid, or locked to b over 15 points). The detuning sweeps
    start below phi = 0, so their first rows sit on the heating side and
    come back flagged ``stable=false``.
    """
    jobs = [_job("preset", "fig1", {}, ref="fig1"), _job("preset", "fig2", {}, ref="fig2")]
    for noise in ("quantum_coth", "markov_flat"):
        for p in _design(rng, 11, 1.0, 20.0):
            star = optimal_detuning(p["b"])
            jobs.append(_job(f"variances_{noise}", "variances", {
                **p,
                "noise_model": noise,
                "sweep.variable": "phi",
                "sweep.start": -0.25 * star,
                "sweep.stop": 2.0 * star,
                "sweep.points": "19",
            }))
    for p in _design(rng, 7, 1.0, 20.0):
        star = optimal_detuning(p["b"])
        jobs.append(_job("adiabatic", "adiabatic", {
            **p,
            "sweep.variable": "phi",
            "sweep.start": -0.5 * star,
            "sweep.stop": 2.0 * star,
            "sweep.points": "41",
        }))
    for i, p in enumerate(_design(rng, 7, 1.0, 8.0)):
        p.update({
            "noise_model": "markov_flat" if i % 2 else "quantum_coth",
            "sweep.variable": "b",
            "sweep.start": p["b"],
            "sweep.stop": 2.0 * p["b"],
            "sweep.points": "3",
        })
        jobs.append(_job("optimize", "optimize", p))
    for i, p in enumerate(_design(rng, 7, 4.0, 6.0)[:3]):
        p.update({
            "noise_model": "markov_flat" if i % 2 else "quantum_coth",
            "lock_phi_to_b": "true",
            "sweep.variable": "b",
            "sweep.start": 1.0 + 0.2 * i + 0.2 * rng.random(),
            "sweep.stop": 14.0 + 0.5 * i + 0.5 * rng.random(),
            "sweep.points": "15",
        })
        jobs.append(_job("optimize", "optimize", p))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------ transient


def _settle_time(p: dict) -> float:
    """30 effective lifetimes, in 1/Gamma units, from the closed-form damping.

    The CLI default of 20 lifetimes leaves a relative excess of about
    (2 n_t_i + 1) e^-20, up to 2e-6 here, which is above the 1e-6 the
    last-row check allows; 30 lifetimes leave less than 1e-9.
    """
    d = (1.0 - 1j * p["b"]) ** 2 + p["phi"] ** 2
    gamma_ratio = 1.0 + 2.0 * p["phi"] * p["phi_nl"] * p["q_factor"] * (1.0 / d).imag
    return 30.0 / gamma_ratio


def transient(rng: random.Random) -> list:
    """fig3, the homodyne readout at the fig3 point, and seeded transients.

    phi_nl * b <= 0.7 keeps Gamma_eff below the cavity linewidth, where the
    closed-form damping that sets the window is close to the true one.
    Seven points of each mode keep a pass near 7 s, so that every job runs
    three to five times in a 35 s run. The cost of a solve climbs steeply
    towards b = 1 and small phi_nl, so the points are drawn from the
    middle fifth of their strata, and the homodyne points mirror the
    dynamics points inside them (antithetic offsets 1 - r), which pairs a
    costly draw with a cheap one. The cost of a pass, and of its slowest
    jobs, then varies little from seed to seed.
    """
    jobs = [
        _job("fig3", "fig3", {}, ref="fig3"),
        _job("homodyne_ref", "homodyne", dict(FIG3_POINT), ref="homodyne_fig3"),
    ]
    offsets = [[0.4 + 0.2 * r for r in row] for row in _offsets(rng, 7)]
    mirrored = [[1.0 - r for r in row] for row in offsets]
    for p in _design(rng, 7, 1.0, 14.0, phi_nl_cap=0.7, offsets=offsets):
        p["dynamics.t_end"] = _settle_time(p)
        jobs.append(_job("dynamics", "dynamics", p))
    for i, p in enumerate(_design(rng, 7, 1.0, 14.0, phi_nl_cap=0.7, offsets=mirrored)):
        p["homodyne.quadrature"] = "x_out" if i % 2 == 0 else "y_out"
        jobs.append(_job("homodyne", "homodyne", p))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------ cli_small


def _physical(rng: random.Random) -> dict:
    """An SI operating point whose lowest stable branch is a cooling point."""
    omega_m = 2.0 * math.pi * _loguniform(rng, 1e6, 1e7)
    b = rng.uniform(1.0, 4.0)
    kappa = omega_m / b
    gamma = omega_m / _loguniform(rng, 1e3, 1e5)
    mass = _loguniform(rng, 1e-13, 1e-11)
    length = _loguniform(rng, 1e-4, 1e-2)
    omega_c = 2.0 * math.pi * C_LIGHT / 1.064e-6
    phi = optimal_detuning(b) * rng.uniform(0.9, 1.1)
    u = rng.uniform(0.05, 0.3)  # target Delta_nl / kappa
    g = (omega_c / length) * math.sqrt(HBAR / (mass * omega_m))
    drive = u * (1.0 + phi * phi)  # cubic u (1 + (phi_c - u)^2) = P at phi_c = phi + u
    return {
        "physical.omega_m": omega_m,
        "physical.kappa": kappa,
        "physical.gamma": gamma,
        "physical.mass": mass,
        "physical.cavity_length": length,
        "physical.omega_c": omega_c,
        "physical.delta_c": (phi + u) * kappa,
        "physical.drive_intensity": drive * omega_m * kappa**2 / (2.0 * g * g),
        "physical.temperature": _loguniform(rng, 20.0, 500.0) * HBAR * omega_m / K_B,
    }


def _error(kind: str, mode: str, settings: dict, extra=()) -> Job:
    return Job(kind=kind, argv=_argv(mode, settings) + tuple(extra), valid=False)


def cli_small(rng: random.Random) -> list:
    """Millisecond jobs, SI configs and typed error paths: the cli and model layers.

    Only four jobs integrate a spectrum, so that parsing, validation,
    normalization and CSV output carry most of the time.
    """
    jobs = []
    for _ in range(7):
        jobs.append(_job("steady", "steady", {
            "steady.phi_c": rng.uniform(-1.0, 5.0),
            "steady.drive": rng.uniform(0.0, 30.0),
        }))
    for i, p in enumerate(_design(rng, 7, 1.0, 20.0)):
        p.update({
            "noise_model": "markov_flat" if i % 2 else "quantum_coth",
            "spectrum.omega_points": "101",
        })
        jobs.append(_job("spectrum", "spectrum", p))
    for p in _design(rng, 7, 1.0, 20.0):
        jobs.append(_job("adiabatic", "adiabatic", p))
    for i, p in enumerate(_design(rng, 7, 1.0, 20.0)[:4]):
        noise = "markov_flat" if i % 2 else "quantum_coth"
        jobs.append(_job(f"variances_{noise}", "variances", {**p, "noise_model": noise}))
    for _ in range(7):
        jobs.append(_job("physical", "adiabatic", _physical(rng)))

    base = _design(rng, 7, 1.0, 20.0)[0]
    # Typed configuration and runtime errors (exit 2 or 3).
    jobs += [
        _error("error", "variances", {**base, "warp_drive": rng.uniform(1, 9)}),
        _error("error", "variances", {**base, "q_factor": -rng.uniform(0.1, 5.0)}),
        _error("error", "variances", {**base, "b": "ten"}),
        _error("error", "variances", {"b": base["b"], "phi": base["phi"]}),
        _error("error", "variances", {**base, "noise_model": "purple"}),
        _error("error", "variances", base, extra=("--set", "b")),
        _error("error", "dynamics", {**base, "phi": -optimal_detuning(base["b"])}),
    ]
    rng.shuffle(jobs)
    return jobs


def nonfinite_probes(rng: random.Random) -> list:
    """The five non-finite inputs the program has to reject with a typed error.

    They run once per run, outside the timed loop, because the program
    does not reject them yet and a timed workload must be one on which
    nothing fails.
    """
    base = _design(rng, 7, 1.0, 20.0)[0]
    return [
        _error("nonfinite", "variances", {**base, "phi": "nan"}),
        _error("nonfinite", "dynamics", {**base, "phi": "nan"}),
        _error("nonfinite", "variances", {**base, "n_t_i": "inf"}),
        _error("nonfinite", "adiabatic", {**base, "phi": "nan"}),
        _error("nonfinite", "variances", {**base, "n_t_i": "inf", "noise_model": "quantum_coth"}),
    ]


WORKLOADS = {
    "spectral": spectral,
    "transient": transient,
    "cli_small": cli_small,
}

#: Untimed jobs that run once after the timed loop of a workload.
PROBES = {"cli_small": nonfinite_probes}


def generate(workload: str, seed: int) -> list:
    """The job list of a workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def generate_probes(workload: str, seed: int) -> list:
    """The untimed probes of a workload, from their own seeded stream."""
    make = PROBES.get(workload)
    return make(random.Random(f"{workload}/probes/{seed}")) if make else []


def job_list_hash(jobs) -> str:
    """Short digest of the argv lists, to show two runs used the same inputs."""
    text = json.dumps([list(j.argv) for j in jobs])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
