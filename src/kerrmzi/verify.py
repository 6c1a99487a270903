"""Cross-check suites: algebraic identities of the closed forms and
Fock-simulator comparisons, each emitting a machine-readable record.

The ``mutate`` hook deliberately perturbs the analytic side of one named
check so the harness itself can be shown to catch a wrong coefficient.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, oracle, sweep
from .config import (
    CoherentInput,
    InterferometerConfig,
    PhaseShift,
    SplitterParams,
    SqueezerParams,
    build_config,
    config_digest,
    validate,
)

_MUTATION_FACTOR = 1.0 + 1e-3
_LOSSY_TOL = 1e-6
# the moment readout against simulate's density tail at _LOSSY_CUTOFF; the
# measured gap is 3.2e-9
_TAIL_TOL = 3e-8
# truncation budget of the oracle checks; the lossy checks run at their own
# cutoff and budget
_BUDGET = 1e-6
_LOSSY_CUTOFF = 14
_LOSSY_BUDGET = 1e-5


@dataclass(frozen=True)
class CheckRecord:
    """One verification outcome.

    ``analytic`` and ``oracle`` are the two compared values (for identity
    checks the right-hand side plays the oracle role); ``rel_err`` is
    their relative discrepancy, or the worst one over the randomized
    draws the check ran.
    """

    check: str
    config_digest: str
    analytic: float
    oracle: float
    rel_err: float
    tol: float
    passed: bool
    cutoff: int | None = None
    converged: bool = True

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _suite_records(mutate: str | None):
    """A suite's record list and the appender that fills it.

    Every check compares relatively, ``|lhs - rhs| / max(|lhs|, |rhs|)``;
    a defect that should vanish is recorded as ``1 + defect`` against 1.
    The appender scales the analytic value ``lhs`` of the check named
    ``mutate`` by ``_MUTATION_FACTOR``.
    """
    records = []

    def record(check, digest, lhs, rhs, tol, cutoff=None, converged=True):
        if check == mutate:
            lhs *= _MUTATION_FACTOR
        denom = max(abs(lhs), abs(rhs))
        rel = abs(lhs - rhs) / denom if denom > 0 else 0.0
        records.append(CheckRecord(
            check=check,
            config_digest=digest,
            analytic=lhs,
            oracle=rhs,
            rel_err=rel,
            tol=tol,
            passed=bool(rel <= tol and converged),
            cutoff=cutoff,
            converged=converged,
        ))

    return records, record


def _array_config(
    alpha, g1, g2, transmissivity, theta_alpha=0.0, theta1=0.0, theta2=math.pi
) -> InterferometerConfig:
    """``build_config`` over arrays, lossless: the gains come from
    ``np.hypot`` as in ``sweep.set_parameter``, and every cell is
    validated."""
    return validate(
        InterferometerConfig(
            nbs1=SqueezerParams(np.hypot(1.0, g1), theta1),
            nbs2=SqueezerParams(np.hypot(1.0, g2), theta2),
            splitter=SplitterParams(transmissivity),
            coherent=CoherentInput(alpha, theta_alpha),
        )
    )


def _random_configs(rng, count: int) -> InterferometerConfig:
    """``count`` random lossless configurations as one array config."""
    alpha, theta_alpha, g1, theta1, g2, theta2, t = (
        rng.uniform(lo, hi, count)
        for lo, hi in (
            (0.1, 6.0), (-math.pi, math.pi), (0.0, 3.0), (-math.pi, math.pi),
            (0.1, 4.0), (-math.pi, math.pi), (0.05, 0.95),
        )
    )
    return _array_config(alpha, g1, g2, t, theta_alpha, theta1, theta2)


def _worst(errors) -> float:
    return float(np.max(errors))


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def run_analytic_suite(seed: int = 0, draws: int = 2000, mutate: str | None = None):
    """Identity checks of the closed-form layer over randomized parameters.

    Each randomized family is one evaluation of the closed forms on an
    array config (or array arguments) holding all of its draws; a check
    records the worst error over the array.  The smallest family holds
    draws // 10 of them, so draws below 10 are refused.
    """
    if draws < 10:
        raise ValueError(f"draws must be >= 10 so every randomized family has one (got {draws})")
    rng = np.random.default_rng(seed)
    records, record = _suite_records(mutate)

    # unitarity and commutator preservation of the transfer coefficients
    cfg = _random_configs(rng, draws)
    phase = PhaseShift(rng.uniform(-math.pi, math.pi, draws), rng.uniform(-0.5, 0.5, draws))
    tc = analytic.transfer_coefficients(
        cfg.splitter, cfg.nbs1, cfg.nbs2, phase, rng.integers(0, 30, draws)
    )
    m0s = _abs2(tc.m0)
    record("unitarity_m1_m0", "randomized", 1.0 + _worst(np.abs(_abs2(tc.m1) + m0s - 1.0)),
           1.0, 1e-12)
    record("unitarity_m2_m0", "randomized", 1.0 + _worst(np.abs(_abs2(tc.m2) + m0s - 1.0)),
           1.0, 1e-12)
    comm = _abs2(tc.a) - _abs2(tc.b) - _abs2(tc.c) - 1.0
    record("commutator_abc", "randomized", 1.0 + _worst(np.abs(comm)), 1.0, 1e-12)

    # lossless reduction of the lossy formulas, and the N_g bookkeeping
    # consistency between the two slope forms
    cfg = _random_configs(rng, draws)
    s_lossless = analytic.slope_at_zero(cfg)
    s_lossy = analytic.lossy_slope_at_zero(cfg)
    n_lossless = analytic.noise_at_zero(cfg)
    n_lossy = analytic.lossy_noise_at_zero(cfg)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope_err = np.where(s_lossless > 0, np.abs(s_lossy - s_lossless) / s_lossless, 0.0)
    noise_err = np.abs(n_lossy - n_lossless) / np.abs(n_lossless)
    record("lossless_reduction_slope", "randomized", 1.0 + _worst(slope_err), 1.0, 1e-14)
    record("lossless_reduction_noise", "randomized", 1.0 + _worst(noise_err), 1.0, 1e-14)

    # QFI polynomial reassembly and the moment-based re-derivation of the
    # linear-phase information
    n_alpha = rng.uniform(0.0, 50.0, draws)
    n_g = rng.uniform(0.0, 20.0, draws)
    sp = SplitterParams(rng.uniform(0.0, 1.0, draws))
    q = analytic.qfi_nonlinear(n_alpha, n_g, sp)
    reassembled = n_alpha**3 * q.s1 + n_alpha**2 * q.s2 + n_alpha * q.s3 + q.s4
    f_lin = analytic.qfi_linear(n_alpha, n_g, sp)
    f_mom = analytic.qfi_linear_from_arm_moments(n_alpha, n_g, sp)
    with np.errstate(divide="ignore", invalid="ignore"):
        reasm_err = np.where(q.f > 0, np.abs(q.f - reassembled) / q.f, 0.0)
        lin_err = np.where(f_lin > 0, np.abs(f_lin - f_mom) / f_lin, 0.0)
    record("qfi_reassembly", "randomized", 1.0 + _worst(reasm_err), 1.0, 1e-10)
    record("qfi_linear_moments", "randomized", 1.0 + _worst(lin_err), 1.0, 1e-10)

    # quantum bound: delta_phi >= qcrb wherever both are defined (an
    # undefined cell has delta_phi = inf and qcrb = nan)
    report = analytic.evaluate(_random_configs(rng, draws // 4))
    below = report.delta_phi < report.qcrb
    violation = np.where(below, (report.qcrb - report.delta_phi) / report.qcrb, 0.0)
    record("qcrb_bound", "randomized", 1.0 + _worst(violation), 1.0, 1e-12)

    # closed-form optimal split ratio vs numeric argmax of the slope; the
    # appended cell N_a = g1 = 0 is the linear-phase slope sqrt(T(1-T))
    n_alpha = np.append(rng.uniform(1e-3, 1e4, draws // 10), 0.0)
    g1 = np.append(rng.uniform(0.0, 5.0, draws // 10), 0.0)
    t_numeric = analytic.argmax_slope_transmissivity(n_alpha, g1)
    t_formula = analytic.optimal_transmissivity(n_alpha[:-1], g1[:-1])
    record("optimal_split_argmax", "randomized",
           1.0 + _worst(np.abs(t_formula - t_numeric[:-1])), 1.0, 1e-4)

    # balanced decomposition: g * (sum of terms) equals the slope
    count = draws // 4
    g = rng.uniform(0.05, 3.0, count)
    cfg = _array_config(
        alpha=rng.uniform(0.1, 10.0, count), g1=g, g2=g,
        transmissivity=rng.uniform(0.05, 0.95, count),
    )
    slope = analytic.slope_at_zero(cfg)
    combined = cfg.nbs1.g * sum(analytic.balanced_terms(cfg))
    record("balanced_decomposition", "randomized",
           1.0 + _worst(np.abs(combined - slope) / slope), 1.0, 1e-12)

    # detection loss is exactly a 1/sqrt(eta) penalty for balanced configs
    base = build_config(alpha=4.0, g1=1.2, g2=1.2, transmissivity=0.25)
    dphi_balance = analytic.sensitivity(base).delta_phi
    eta = np.linspace(0.1, 1.0, 10)
    dphi = analytic.evaluate(sweep.set_parameter(base, "loss.eta_det", eta)).delta_phi
    record("detection_loss_identity", config_digest(base),
           1.0 + _worst(np.abs(dphi * np.sqrt(eta) / dphi_balance - 1.0)), 1.0, 1e-12)

    # the linear-phase slope peaks at T = 1/2
    record("linear_argmax_half", "none", float(t_numeric[-1]), 0.5, 1e-6)

    # at every SQL loss threshold of paper-scale configs delta_phi = SQL
    worst = (-1.0, "none", 1.0, 1.0)
    for _ in range(max(1, draws // 200)):
        cfg = _random_paper_config(rng)
        for name in sweep.THRESHOLD_AXES:
            th = sweep.find_sql_threshold(cfg, name)
            if th.found:
                probe = sweep.set_parameter(cfg, name, th.eta_star)
                dphi = analytic.sensitivity(probe).delta_phi
                rel = abs(dphi - th.sql) / max(dphi, th.sql)
                if rel > worst[0]:
                    worst = (rel, config_digest(probe), dphi, th.sql)
    record("sql_threshold_crossing", *worst[1:], 1e-12)

    return records


def _random_paper_config(rng) -> InterferometerConfig:
    # around the Fig. 2 (g2 = g1) and Fig. 4 (g2 = 2 g1) bases
    g1 = rng.uniform(1.5, 2.5)
    return build_config(
        alpha=rng.uniform(8.0, 12.0), g1=g1, g2=g1 * rng.uniform(1.0, 2.0),
        transmissivity=rng.uniform(0.2, 0.3),
    )


_SMALL_TRANSMISSIVITIES = (0.25, 0.5, 0.75)


def _random_small_config(rng) -> InterferometerConfig:
    return build_config(
        alpha=rng.uniform(0.2, 1.2),
        g1=rng.uniform(0.05, 0.5),
        g2=rng.uniform(0.1, 1.0),
        transmissivity=float(
            _SMALL_TRANSMISSIVITIES[rng.integers(0, len(_SMALL_TRANSMISSIVITIES))]
        ),
    )


def _converged(value: float, doubled: float, tol: float) -> bool:
    """The value moved by less than a tenth of the comparison tolerance when
    the cutoff doubled."""
    return abs(doubled - value) <= 0.1 * tol * abs(doubled)


def _lossy_errors(cfg: InterferometerConfig, cutoff: int, budget: float):
    """Relative errors of the simulated slope and variance against the loss
    formulas, both from one moment pass, and whether each converged against
    a second pass at twice the cutoff."""
    est, est2 = (oracle.numeric_slope(cfg, cutoff=c, budget=budget) for c in (cutoff, 2 * cutoff))
    s_an, v_an = analytic.lossy_slope_at_zero(cfg), analytic.lossy_noise_at_zero(cfg)
    errors = abs(abs(est.value) - s_an) / s_an, abs(est.variance - v_an) / v_an
    return errors, (
        _converged(est.value, est2.value, _LOSSY_TOL),
        _converged(est.variance, est2.variance, _LOSSY_TOL),
    )


def run_oracle_suite(seed: int = 0, cutoff: int = 15, mutate: str | None = None):
    """Fock-simulator checks of the closed forms at desk-scale parameters.

    The canonical and lossy slope and variance comparisons carry a
    converged flag obtained by doubling the cutoff and requiring the
    simulator value to move by less than a tenth of the comparison
    tolerance.
    """
    rng = np.random.default_rng(seed)
    records, record = _suite_records(mutate)

    # squeezer sends vacuum to a pair with per-mode occupancy g^2
    cfg = build_config(g1=0.4)
    state = oracle.prepare_input(cfg, cutoff, _BUDGET)
    state = oracle.apply_two_mode_squeezer(
        state, cfg.nbs1.gain, cfg.nbs1.phase, oracle.MODE_A, oracle.MODE_B
    )
    record("tmsv_occupancy", config_digest(cfg), cfg.nbs1.g ** 2,
           oracle.mean_photon(state, oracle.MODE_A), 1e-8, cutoff=cutoff)

    # coherent preparation lands at |alpha|^2 photons
    cfg = build_config(alpha=1.0)
    state = oracle.prepare_input(cfg, cutoff, _BUDGET)
    record("coherent_mean_photon", config_digest(cfg), 1.0,
           oracle.mean_photon(state, oracle.MODE_C), 1e-8, cutoff=cutoff)

    # splitter convention: coherent seeds recover the scalar two-port
    # coefficients at a pure linear phase
    phi_l = 0.7
    t = 0.35
    beta = 0.4
    cfg = build_config(transmissivity=t, phi_l=phi_l)
    tc = analytic.transfer_coefficients(
        cfg.splitter, cfg.nbs1, cfg.nbs2, PhaseShift(phi_l, 0.0), 0
    )
    seeded = oracle.coherent_product_state([0.0, beta, 0.0], cutoff, _BUDGET)
    seeded = oracle.apply_beam_splitter(seeded, t, oracle.MODE_B, oracle.MODE_C)
    seeded = oracle.apply_kerr(seeded, phi_l, 0.0, oracle.MODE_B)
    seeded = oracle.apply_beam_splitter(seeded, t, oracle.MODE_B, oracle.MODE_C)
    m1_est = oracle.mean_amplitude(seeded, oracle.MODE_B) / beta
    m0_est = oracle.mean_amplitude(seeded, oracle.MODE_C) / beta
    record("bs_convention_m1", config_digest(cfg), 1.0 + abs(tc.m1 - m1_est),
           1.0, 1e-8, cutoff=cutoff)
    record("bs_convention_m0", config_digest(cfg), 1.0 + abs(tc.m0 - m0_est),
           1.0, 1e-8, cutoff=cutoff)

    # loss channel: complete, and coherent states stay coherent
    eta = 0.6
    record("loss_cptp", "none", 1.0 + oracle.kraus_completeness_defect(eta, cutoff),
           1.0, 1e-12, cutoff=cutoff)
    # on a two-mode density, the lossy mode second: its bra axis sits at 3
    rho = oracle.to_density(oracle.coherent_product_state([0.0, 0.8], cutoff, _BUDGET))
    rho = oracle.apply_loss(rho, eta, 1)
    amp = oracle.mean_amplitude(rho, 1)
    record("loss_coherent_amplitude", "none", 1.0 + abs(amp - math.sqrt(eta) * 0.8),
           1.0, 1e-8, cutoff=cutoff)

    # slope and variance against the closed forms, canonical small config,
    # both read from one forward pass per cutoff
    canon = build_config(alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.25)
    est = oracle.numeric_slope(canon, cutoff=cutoff, budget=_BUDGET)
    est2 = oracle.numeric_slope(canon, cutoff=2 * cutoff, budget=_BUDGET)
    record("slope_vs_closed_form", config_digest(canon),
           analytic.slope_at_zero(canon), abs(est.value), 1e-6, cutoff=cutoff,
           converged=_converged(est.value, est2.value, 1e-6))
    record("variance_vs_closed_form", config_digest(canon),
           analytic.noise_at_zero(canon), est.variance, 1e-4, cutoff=cutoff,
           converged=_converged(est.variance, est2.variance, 1e-4))

    # nonlinear-phase Fisher information against the printed polynomial
    worst = 0.0
    worst_digest = ""
    for _ in range(6):
        cfg = _random_small_config(rng)
        f_oracle = oracle.oracle_qfi(cfg, cutoff=cutoff, budget=_BUDGET)
        f_poly = analytic.qfi_nonlinear(
            cfg.coherent.n_alpha, 2.0 * cfg.nbs1.g ** 2, cfg.splitter
        ).f
        rel = abs(f_oracle - f_poly) / f_poly
        if rel > worst:
            worst, worst_digest = rel, config_digest(cfg)
    record("qfi_vs_polynomial", worst_digest, 1.0 + worst, 1.0, 1e-4, cutoff=cutoff)

    # lossy pipeline against the loss formulas (moment readout); each record
    # names the config of its own worst error
    worst = {"slope": (-math.inf, ""), "noise": (-math.inf, "")}
    converged = {"slope": True, "noise": True}
    for _ in range(3):
        etas = rng.uniform(0.35, 1.0, size=4)
        cfg = build_config(
            alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.25,
            eta_a=float(etas[0]), eta_b=float(etas[1]),
            eta_c=float(etas[2]), eta_d=float(etas[3]),
        )
        errors, flags = _lossy_errors(cfg, _LOSSY_CUTOFF, _LOSSY_BUDGET)
        for name, rel, conv in zip(worst, errors, flags):
            if rel > worst[name][0]:
                worst[name] = (rel, config_digest(cfg))
            converged[name] = converged[name] and conv
    for name, (rel, digest) in worst.items():
        record(f"lossy_{name}_vs_closed_form", digest, 1.0 + rel,
               1.0, _LOSSY_TOL, cutoff=_LOSSY_CUTOFF, converged=converged[name])

    # the moment readout against the density tail of simulate, five losses
    # at generic phases
    cfg = build_config(
        alpha=0.8, theta_alpha=-0.4, g1=0.25, theta1=0.7, g2=0.4, theta2=2.1,
        transmissivity=0.3, phi_l=0.3, phi_n=0.2,
        eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6, eta_det=0.85,
    )
    rho = oracle.simulate(cfg, cutoff=_LOSSY_CUTOFF, budget=_LOSSY_BUDGET)
    record("lossy_tail_vs_density", config_digest(cfg),
           oracle.numeric_slope(cfg, cutoff=_LOSSY_CUTOFF, budget=_LOSSY_BUDGET).variance,
           oracle.quadrature_stats(rho, oracle.MODE_A)[1], _TAIL_TOL, cutoff=_LOSSY_CUTOFF)

    # sensing-arm occupancy after the first splitter: T g1^2 + R N_alpha
    cfg = build_config(alpha=0.9, g1=0.35, transmissivity=0.3)
    state = oracle.prepare_input(cfg, cutoff, _BUDGET)
    state = oracle.apply_two_mode_squeezer(
        state, cfg.nbs1.gain, cfg.nbs1.phase, oracle.MODE_A, oracle.MODE_B
    )
    state = oracle.apply_beam_splitter(
        state, cfg.splitter.transmissivity, oracle.MODE_B, oracle.MODE_C
    )
    expected = (
        cfg.splitter.transmissivity * cfg.nbs1.g ** 2
        + cfg.splitter.reflectivity * cfg.coherent.n_alpha
    )
    record("arm_occupancy", config_digest(cfg), expected,
           oracle.mean_photon(state, oracle.MODE_B), 1e-6, cutoff=cutoff)

    return records


def run_suite(name: str, seed: int = 0, cutoff: int = 15, mutate: str | None = None):
    """Run one of the named suites: 'analytic', 'oracle', or 'all'.

    Raises ValueError for an unknown suite, for a ``mutate`` name that no
    check of the suite carries, and, before any check runs, for an oracle
    suite whose largest pass exceeds the oracle's memory cap: the loss
    checks' two-mode density at the cutoff, which apply_loss holds four
    times over like a lossy simulate pass, or the canonical slope at twice
    the cutoff.
    """
    if name not in ("analytic", "oracle", "all"):
        raise ValueError(f"unknown suite '{name}' (expected analytic, oracle, or all)")
    if name != "analytic":
        largest = max(oracle._pass_bytes(cutoff, True), oracle._pass_bytes(2 * cutoff, False))
        oracle._refuse_above_cap(cutoff, largest, "the oracle suite's largest pass")
    records = []
    if name in ("analytic", "all"):
        records += run_analytic_suite(seed=seed, mutate=mutate)
    if name in ("oracle", "all"):
        records += run_oracle_suite(seed=seed, cutoff=cutoff, mutate=mutate)
    if mutate is not None and mutate not in {r.check for r in records}:
        raise ValueError(f"no check of the {name} suite is named '{mutate}'")
    return records
