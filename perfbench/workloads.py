"""The three workloads, one per result of the paper.

``setup(seed)`` builds every input from the seed (grids, data families,
profiles, experiment specs); ``operations(inputs, out_dir)`` returns the
workload's operations, each a callable that makes one experiment call and
returns its check records.  The program is called only through module
attributes, so that a tracer that replaces those attributes sees the calls.
"""

from __future__ import annotations

import numpy as np

from fournls import dispersive, evolution, harness, illposedness, imethod, spectral, symmetries

from . import checks

# ---------------------------------------------------------------------------
# lwp-flow: criteria 01, 02 and 07

LWP_T_END = 0.5              # criterion 01 runs to t = 10; 5000 steps keep a round short
LWP_RECORD_STRIDE = 500      # 11 record points, as sparse as criterion 01's 51 over [0, 10]
COV_LAM, COV_T, COV_DT = 2.0, 0.02, 3.125e-5
KERNEL_TIMES = (0.5, 2.0, 4.0)
KERNEL_X = (-20.0, 0.0, 15.0)


def setup_lwp(seed):
    rng = np.random.default_rng(seed)
    spec = harness.validate_spec({
        "kind": "evolve",
        "params": {
            "L": 200.0, "M": 4096, "dt": 1e-4, "t_end": LWP_T_END,
            "record_stride": LWP_RECORD_STRIDE,
            "amplitude": float(rng.uniform(0.9, 1.1)),
            "width": float(rng.uniform(1.8, 2.2)),
        },
        "seed": seed,
    })
    u_cov = spectral.make_gaussian(
        spectral.make_grid(80.0, 512), amplitude=float(rng.uniform(1.14, 1.26)),
        width=2.0, carrier=float(rng.uniform(1.9, 2.1)),
    )
    datum = dispersive.flat_spectrum_datum(
        spectral.make_grid(6000.0, 16384), sigma=float(rng.uniform(1.15, 1.25))
    )
    # scale the criterion's evaluation points by up to 2.5%; x = 0 stays put, since
    # moving it would move the stationary point and the quadrature's cost with it
    xs = [x * float(rng.uniform(0.975, 1.025)) for x in KERNEL_X]
    return {
        "spec": spec,
        "u_cov": u_cov,
        "cov_cfg": evolution.EvolutionConfig(dt=COV_DT, t_end=1.0, record_stride=1000),
        "cov_l2": checks.l2_norm(u_cov.values, u_cov.grid.dx),
        "datum": datum,
        "times": np.geomspace(4.0, 40.0, 12),
        "kernel_points": [(t, x) for t in KERNEL_TIMES for x in xs],
        "fft_sizes": (4096, 512, 16384),
    }


def operations_lwp(inp, out_dir):
    def evolve():
        report = harness.run(inp["spec"], out_dir=out_dir / "harness")
        return checks.evolve_checks(report.results)

    def covariance():
        d = symmetries.check_scaling_covariance(inp["u_cov"], COV_LAM, inp["cov_cfg"], t=COV_T)
        return checks.covariance_checks(d)

    def covariance_commuting():
        d = symmetries.check_scaling_covariance(
            inp["u_cov"], COV_LAM, inp["cov_cfg"], t=COV_T, dt_scaled=COV_DT / COV_LAM**4
        )
        return checks.commuting_covariance_checks(d, inp["cov_l2"])

    def decay(alpha):
        return lambda: checks.decay_checks(
            alpha, dispersive.decay_fit(alpha, inp["datum"], inp["times"]).slope
        )

    def kernel():
        worst = 0.0
        for alpha in (0.0, 1.0):
            for t, x in inp["kernel_points"]:
                lhs = dispersive.kernel_K(t, x, alpha)
                rhs = t ** (-(alpha + 1) / 4) * dispersive.kernel_K(1.0, x * t**-0.25, alpha)
                worst = max(worst, abs(lhs - rhs))
        return checks.kernel_checks(worst)

    return [
        ("evolve", evolve),
        ("covariance", covariance),
        ("covariance-commuting", covariance_commuting),
        ("decay-alpha0", decay(0.0)),
        ("decay-alpha1", decay(1.0)),
        ("kernel-self-similarity", kernel),
    ]


# ---------------------------------------------------------------------------
# gwp-imethod: criteria 04 and 05

# One random-phase member's corrected slope scatters over about [-3.2, -2.0], and
# the mean of 3 seeded members reached -2.13 against the check's -2 (README), so
# the phases are those of criterion 05's family (generator seed 0) and the seed
# sets the family's amplitude.  2 of its members with 2 snapshots (t = 0, 0.5)
# keep a round near 31 s; criterion 05 uses 4 members and 9 snapshots.
GWP_PHASE_SEED = 0
GWP_FAMILY = 2
GWP_T_END = 0.5
GWP_RECORD_STRIDE = 1000
GWP_N_VALUES = (8.0, 16.0, 32.0, 64.0)
GWP_K = 120
# Criterion 04's first 2 of 10 states, scaled by the seed.  Freshly drawn states
# can put Re Lambda6 near 0, where the ratio that fit_m6_constant returns
# amplifies finite-difference error (73 drawn states gave |c - 4| ~ 4e-11 /
# |Re Lambda6|); a mode set inside |xi| <= N makes defect2 read 1 (CHANGES.md)
IDENTITY_SEED = 123
IDENTITY_STATES = 2
QUAD_STEPS = 100             # length of the run whose last snapshot feeds the Lambda4 check


def _narrow_states(grid, n, scale):
    # criterion 04's states (generator seed 123): five random modes in |k| <= 4
    rng = np.random.default_rng(IDENTITY_SEED)
    states = []
    for _ in range(n):
        coef = np.zeros(grid.M, dtype=np.complex128)
        for k in rng.choice(np.arange(-4, 5), size=5, replace=False):
            coef[int(k) % grid.M] = scale * 0.3 * (rng.normal() + 1j * rng.normal())
        states.append(spectral.to_physical(spectral.Spectrum(grid, coef)))
    return states


def setup_gwp(seed):
    rng = np.random.default_rng(seed)
    grid = spectral.make_grid(2 * np.pi, 512)
    amplitude = float(rng.uniform(0.38, 0.42))
    phases = np.random.default_rng(GWP_PHASE_SEED)
    family = [imethod.rough_localized_datum(grid, phases, amplitude=amplitude)
              for _ in range(GWP_FAMILY)]
    cfg = evolution.EvolutionConfig(
        equation="quartic", orientation=1, kappa=1, dt=5e-4, t_end=GWP_T_END,
        scheme="ifrk4", record_stride=GWP_RECORD_STRIDE, record_fields=True,
        require_localized=False, run_tail_tol=1.0, start_tail_tol=1.0, project_K=GWP_K,
    )
    grid64 = spectral.make_grid(2 * np.pi, 64)
    return {
        "family": family,
        "cfg": cfg,
        "quad_cfg": evolution.EvolutionConfig(
            equation="quartic", orientation=1, kappa=1, dt=5e-4, t_end=QUAD_STEPS * 5e-4,
            scheme="ifrk4", record_stride=QUAD_STEPS, record_fields=True,
            require_localized=False, run_tail_tol=1.0, start_tail_tol=1.0, project_K=GWP_K,
        ),
        "modes120": imethod.ModeSet(grid, GWP_K),
        "states": _narrow_states(grid64, IDENTITY_STATES, float(rng.uniform(0.9, 1.1))),
        "p": imethod.IMethodParams(N=2.0, s=-0.5),
        "id_cfg": evolution.EvolutionConfig(equation="quartic", orientation=1, kappa=1,
                                            dt=1e-5, t_end=1e-4),
        "modes12": imethod.ModeSet(grid64, 12),
        "fft_sizes": (512, 64),
    }


def operations_gwp(inp, out_dir):
    def almost_conservation():
        res = imethod.almost_conservation_experiment(
            inp["family"], list(GWP_N_VALUES), inp["cfg"], support_K=GWP_K
        )
        return checks.almost_conservation_checks(
            res.fit_corrected.slope, res.fit_uncorrected.slope
        )

    def identity(f):
        return lambda: checks.identity_checks(
            imethod.derivative_identity_check(f, inp["p"], inp["id_cfg"], inp["modes12"]).defect2
        )

    def m6_fit():
        c, ratios = imethod.fit_m6_constant(inp["states"], inp["p"], inp["id_cfg"], inp["modes12"])
        return checks.m6_fit_checks(c, ratios)

    def lambda4_quadrature():
        snap = evolution.evolve(inp["family"][0], inp["quad_cfg"]).fields[-1]
        lam4 = imethod.lambda_n(lambda a, b, c, d: np.ones_like(a), [snap] * 4, inp["modes120"])
        return checks.lambda4_quadrature_checks(lam4.value, snap)

    return [
        ("almost-conservation", almost_conservation),
        *((f"identity-{i}", identity(f)) for i, f in enumerate(inp["states"])),
        ("m6-fit", m6_fit),
        ("lambda4-quadrature", lambda4_quadrature),
    ]


# ---------------------------------------------------------------------------
# illposed-decoherence: criterion 10

PROFILE = {"profile_modes": 256, "profile_length": 40.0}
# a fit needs 4 points; N = 32 plans the 130304 = 2^8 * 509 point grid
DECAY_N = (8.0, 12.0, 16.0, 32.0)
DECAY_WINDOW = 0.06          # criterion 10 uses 0.5; 30 steps on the 130304 grid
SEP_WINDOW_FACTOR = 0.22     # criterion 10 runs 1.25 decoherence times
SEP_AMPLITUDE_GAP = 1.05**2 - 1.0  # a2^2 - a^2 of criterion 10 (a = 1, a2 = 1.05)


def setup_illposed(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.95, 1.05))
    # a fixed a2^2 - a^2 fixes the decoherence time, so every seed runs as many steps
    a2 = float(np.sqrt(a * a + SEP_AMPLITUDE_GAP))
    setup8 = illposedness.plan_uap_discretization(8.0, **PROFILE)
    grids = [illposedness.plan_uap_discretization(N, **PROFILE).grid4 for N in DECAY_N]
    return {
        "a": a,
        "a2": a2,
        "t_res": float(rng.uniform(0.2, 0.4)),
        "setup8": setup8,
        "profile": illposedness.SolitonProfile(a, setup8.grid_v),
        "fft_sizes": tuple(g.M for g in grids),
    }


def operations_illposed(inp, out_dir):
    def residual():
        fine = illposedness.residual_fields(inp["profile"], inp["setup8"], inp["t_res"], 1e-5)
        coarse = illposedness.residual_fields(inp["profile"], inp["setup8"], inp["t_res"], 1e-4)
        return checks.residual_checks(fine.relative_defect, coarse.relative_defect)

    def error_decay():
        res = illposedness.error_decay_experiment(
            list(DECAY_N), window=DECAY_WINDOW, amplitude=inp["a"], dt=2e-3,
            n_records=10, **PROFILE,
        )
        return checks.tracking_checks(res.fit.slope)

    def separation():
        rep = illposedness.separation_experiment(
            inp["a"], inp["a2"], -0.75, 16.0, T=10.0, dt=4e-3, n_records=40,
            window_factor=SEP_WINDOW_FACTOR, **PROFILE,
        )
        return checks.separation_checks(rep.initial_distance / rep.eps, rep.sup_distance / rep.eps)

    return [("residual", residual), ("error-decay", error_decay), ("separation", separation)]


WORKLOADS = {
    "lwp-flow": (setup_lwp, operations_lwp),
    "gwp-imethod": (setup_gwp, operations_gwp),
    "illposed-decoherence": (setup_illposed, operations_illposed),
}
