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
from .config import InterferometerConfig, PhaseShift, SplitterParams, build_config, config_digest

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
    checks the right-hand side plays the oracle role) and ``rel_err`` is
    their relative discrepancy; a check over several draws records its
    first worst draw's values, error and digest.
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


def _rel_err(lhs, rhs):
    """``|lhs - rhs| / max(|lhs|, |rhs|)`` elementwise: 0 where the two
    sides are equal and finite, nan where either side is nan or infinite."""
    with np.errstate(all="ignore"):
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))
    return np.where((lhs == rhs) & np.isfinite(lhs), 0.0, rel)


def _suite_records(mutate: str | None):
    """A suite's record list and the appender that fills it.

    Every check compares ``_rel_err(lhs, rhs)`` against its tolerance, so a
    nan or infinite side fails.  ``lhs`` and ``rhs`` may be arrays of
    draws, with ``digest`` one string or one per draw; the record carries
    the first worst draw's pair, digest and error, a nan being the worst.
    The appender scales the analytic value ``lhs`` of the check named
    ``mutate`` by ``_MUTATION_FACTOR``.
    """
    records = []

    def record(check, digest, lhs, rhs, tol, cutoff=None, converged=True):
        if check == mutate:
            lhs = np.multiply(lhs, _MUTATION_FACTOR)
        lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float), rhs)
        rel = _rel_err(lhs, rhs)
        i = int(np.argmax(rel))  # numpy's argmax takes the first nan
        err = float(rel.flat[i])
        records.append(CheckRecord(
            check=check,
            config_digest=digest if isinstance(digest, str) else digest[i],
            analytic=float(lhs.flat[i]),
            oracle=float(rhs.flat[i]),
            rel_err=err,
            tol=tol,
            passed=bool(err <= tol and converged),
            cutoff=cutoff,
            converged=converged,
        ))

    return records, record


def _random_configs(rng, count: int) -> InterferometerConfig:
    """``count`` random lossless configurations as one array config; the
    draws are build_config's alpha, theta_alpha, g1, theta1, g2, theta2, T."""
    return build_config(*(
        rng.uniform(lo, hi, count)
        for lo, hi in (
            (0.1, 6.0), (-math.pi, math.pi), (0.0, 3.0), (-math.pi, math.pi),
            (0.1, 4.0), (-math.pi, math.pi), (0.05, 0.95),
        )
    ))


def _on_phase_grid(phase):
    """``phase`` rounded to a multiple of 2^-40, where the sum of two such
    phases in (-pi, pi), and every difference of such sums, is exact."""
    return np.round(phase * 2.0**40) / 2.0**40


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def run_analytic_suite(seed: int = 0, draws: int = 2000, mutate: str | None = None):
    """Identity checks of the closed-form layer over randomized parameters.

    Each randomized family is one evaluation of the closed forms on an
    array config (or array arguments) holding all of its draws; a check
    records its first worst draw.  The smallest family holds
    draws // 10 of them, so draws below 10 are refused.

    The SQL-crossing family draws k = max(1, draws // 200) paper-scale
    configs and builds them as one array config.  It makes one
    ``sweep.sql_thresholds`` call and one ``analytic.evaluate`` of the
    (6, k) crossings, and records the worst crossing (the first in config
    order, then axis order) under the digest of its scalar config, or
    "none" when no cell crosses.
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
    record("unitarity_m1_m0", "randomized", _abs2(tc.m1) + m0s, 1.0, 1e-12)
    record("unitarity_m2_m0", "randomized", _abs2(tc.m2) + m0s, 1.0, 1e-12)
    record("commutator_abc", "randomized", _abs2(tc.a) - _abs2(tc.b) - _abs2(tc.c), 1.0, 1e-12)

    # lossless reduction of the lossy formulas, and the N_g bookkeeping
    # consistency between the two slope forms
    cfg = _random_configs(rng, draws)
    record("lossless_reduction_slope", "randomized",
           analytic.lossy_slope_at_zero(cfg), analytic.slope_at_zero(cfg), 1e-14)
    record("lossless_reduction_noise", "randomized",
           analytic.lossy_noise_at_zero(cfg), analytic.noise_at_zero(cfg), 1e-14)

    # QFI polynomial reassembly and the moment-based re-derivation of the
    # linear-phase information
    n_alpha = rng.uniform(0.0, 50.0, draws)
    n_g = rng.uniform(0.0, 20.0, draws)
    sp = SplitterParams(rng.uniform(0.0, 1.0, draws))
    q = analytic.qfi_nonlinear(n_alpha, n_g, sp)
    reassembled = n_alpha**3 * q.s1 + n_alpha**2 * q.s2 + n_alpha * q.s3 + q.s4
    record("qfi_reassembly", "randomized", q.f, reassembled, 1e-10)
    record("qfi_linear_moments", "randomized", analytic.qfi_linear(n_alpha, n_g, sp),
           analytic.qfi_linear_from_arm_moments(n_alpha, n_g, sp), 1e-10)

    # quantum bound: delta_phi >= qcrb, so min(delta_phi, qcrb) = qcrb; the
    # draws keep g2, alpha >= 0.1 and 0.05 < T < 0.95, so both are defined
    report = analytic.evaluate(_random_configs(rng, draws // 4))
    record("qcrb_bound", "randomized", np.minimum(report.delta_phi, report.qcrb),
           report.qcrb, 1e-12)

    # closed-form optimal split ratio vs numeric argmax of the slope; the
    # appended cell N_a = g1 = 0 is the linear-phase slope sqrt(T(1-T))
    n_alpha = np.append(rng.uniform(1e-3, 1e4, draws // 10), 0.0)
    g1 = np.append(rng.uniform(0.0, 5.0, draws // 10), 0.0)
    t_numeric = analytic.argmax_slope_transmissivity(n_alpha, g1)
    t_formula = analytic.optimal_transmissivity(n_alpha[:-1], g1[:-1])
    record("optimal_split_argmax", "randomized", t_formula, t_numeric[:-1], 1e-10)

    # balanced decomposition: g * (sum of terms) equals the slope
    count = draws // 4
    g = rng.uniform(0.05, 3.0, count)
    cfg = build_config(
        alpha=rng.uniform(0.1, 10.0, count), g1=g, g2=g,
        transmissivity=rng.uniform(0.05, 0.95, count),
    )
    combined = cfg.nbs1.g * sum(analytic.balanced_terms(cfg))
    record("balanced_decomposition", "randomized", combined, analytic.slope_at_zero(cfg), 1e-12)

    # detection loss is exactly a 1/sqrt(eta) penalty for balanced configs
    base = build_config(alpha=4.0, g1=1.2, g2=1.2, transmissivity=0.25)
    dphi_balance = analytic.sensitivity(base).delta_phi
    eta = np.linspace(0.1, 1.0, 10)
    dphi = analytic.evaluate(sweep.set_parameter(base, "loss.eta_det", eta)).delta_phi
    record("detection_loss_identity", config_digest(base), dphi * np.sqrt(eta), dphi_balance,
           1e-12)

    # the linear-phase slope peaks at T = 1/2
    record("linear_argmax_half", "none", float(t_numeric[-1]), 0.5, 1e-10)

    # at every SQL loss threshold of paper-scale configs delta_phi = SQL:
    # one threshold pass and one evaluation of the (6, k) crossings
    paper = [_paper_draw(rng) for _ in range(max(1, draws // 200))]
    cfg = build_config(**_columns(paper))
    eta_star = sweep.sql_thresholds(cfg)
    report = analytic.evaluate(sweep.on_threshold_axes(cfg, eta_star))
    dphi, sql = report.delta_phi, report.sql
    # the first worst cell in config-major order, a nan error the worst;
    # a cell without a crossing is never picked
    rel = np.where(np.isnan(eta_star), -1.0, _rel_err(dphi, sql)).T.ravel()
    worst = int(np.argmax(rel))
    if rel[worst] < 0:
        record("sql_threshold_crossing", "none", 1.0, 1.0, 1e-12)
    else:
        i, axis = divmod(worst, len(sweep.THRESHOLD_AXES))
        name = sweep.THRESHOLD_AXES[axis]
        probe = sweep.set_parameter(build_config(**paper[i]), name, eta_star[axis, i].item())
        record("sql_threshold_crossing", config_digest(probe),
               dphi[axis, i].item(), sql[i].item(), 1e-12)

    # phase covariance: one shift x of theta_alpha, theta1 and theta2
    # rotates modes b and c, which the readout of mode a does not see, so
    # the lossless and lossy slope and noise and delta_phi at phi = 0 are
    # invariant; the closed forms read only theta2 - theta_alpha and
    # theta2 - theta1.  Generic phases and shifts on _on_phase_grid with all
    # five losses: there the differences are exact, and the figures
    # bit-identical.  Row 0 of the phases is unshifted, row 1 shifted
    cfg = _random_configs(rng, draws)
    for name in ("loss.eta_a", "loss.eta_b", "loss.eta_c", "loss.eta_d", "loss.eta_det"):
        cfg = sweep.set_parameter(cfg, name, rng.uniform(0.1, 1.0, draws))
    shift = np.stack([np.zeros(draws), _on_phase_grid(rng.uniform(-math.pi, math.pi, draws))])
    for part in ("coherent", "nbs1", "nbs2"):
        phase = _on_phase_grid(getattr(cfg, part).phase) + shift
        cfg = sweep.set_parameter(cfg, f"{part}.phase", phase)
    # evaluate's slope and noise are the lossy forms' at eta_det
    report = analytic.evaluate(cfg)
    figures = np.stack(np.broadcast_arrays(
        analytic.slope_at_zero(cfg), analytic.noise_at_zero(cfg),
        report.slope, report.noise, report.delta_phi,
    ))
    record("phase_covariance", "randomized", figures[:, 0], figures[:, 1], 0.0)

    return records


def _columns(draws) -> dict:
    """build_config keyword dicts as one array per keyword, in draw order."""
    return {key: np.array([d[key] for d in draws]) for key in draws[0]}


def _paper_draw(rng) -> dict:
    """build_config keywords around the Fig. 2 (g2 = g1) and Fig. 4
    (g2 = 2 g1) bases."""
    g1 = rng.uniform(1.5, 2.5)
    return dict(
        alpha=rng.uniform(8.0, 12.0), g1=g1, g2=g1 * rng.uniform(1.0, 2.0),
        transmissivity=rng.uniform(0.2, 0.3),
    )


def _desk_draw(rng) -> dict:
    """build_config keywords of a desk-scale configuration."""
    return dict(
        alpha=rng.uniform(0.2, 1.2), g1=rng.uniform(0.05, 0.5), g2=rng.uniform(0.1, 1.0),
        transmissivity=(0.25, 0.5, 0.75)[rng.integers(0, 3)],
    )


def _converged(value: float, doubled: float, tol: float) -> bool:
    """The value moved by less than a tenth of the comparison tolerance when
    the cutoff doubled."""
    return abs(doubled - value) <= 0.1 * tol * abs(doubled)


def run_oracle_suite(seed: int = 0, cutoff: int = 15, mutate: str | None = None):
    """Fock-simulator checks of the closed forms at desk-scale parameters.

    The first three checks read the stages of one prepare -> nbs1 -> bs1
    gate pass, in pass order.  The QFI family's six desk draws are one
    array config on the closed-form side and six scalar Fock passes.  The
    canonical and lossy slope and variance comparisons carry a converged
    flag obtained by doubling the cutoff and requiring the simulator value
    to move by less than a tenth of the comparison tolerance.
    """
    rng = np.random.default_rng(seed)
    records, record = _suite_records(mutate)

    # one prepare -> nbs1 -> bs1 gate pass: the coherent pump lands at
    # |alpha|^2 photons, the squeezer sends vacuum to a pair with per-mode
    # occupancy g1^2, and the splitter leaves T g1^2 + R N_alpha in the
    # sensing arm
    cfg = build_config(alpha=0.9, g1=0.35, transmissivity=0.3)
    digest, n_alpha, g1s = config_digest(cfg), cfg.coherent.n_alpha, cfg.nbs1.g ** 2
    state = oracle.prepare_input(cfg, cutoff, _BUDGET)
    record("coherent_mean_photon", digest, n_alpha,
           oracle.mean_photon(state, oracle.MODE_C), 1e-8, cutoff=cutoff)
    state = oracle.apply_two_mode_squeezer(
        state, cfg.nbs1.gain, cfg.nbs1.phase, oracle.MODE_A, oracle.MODE_B
    )
    record("tmsv_occupancy", digest, g1s,
           oracle.mean_photon(state, oracle.MODE_A), 1e-8, cutoff=cutoff)
    state = oracle.apply_beam_splitter(
        state, cfg.splitter.transmissivity, oracle.MODE_B, oracle.MODE_C
    )
    record("arm_occupancy", digest,
           cfg.splitter.transmissivity * g1s + cfg.splitter.reflectivity * n_alpha,
           oracle.mean_photon(state, oracle.MODE_B), 1e-6, cutoff=cutoff)

    # splitter convention: coherent seeds recover the scalar two-port
    # coefficients at a pure linear phase
    phi_l = 0.7
    t = 0.35
    beta = 0.4
    cfg = build_config(transmissivity=t, phi_l=phi_l)
    tc = analytic.transfer_coefficients(cfg.splitter, cfg.nbs1, cfg.nbs2, cfg.phase, 0)
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
    desk = [_desk_draw(rng) for _ in range(6)]
    cfg = build_config(**_columns(desk))
    cells = [build_config(**d) for d in desk]
    record("qfi_vs_polynomial", [config_digest(c) for c in cells],
           analytic.qfi_nonlinear(cfg.coherent.n_alpha, cfg.n_g, cfg.splitter).f,
           [oracle.oracle_qfi(c, cutoff=cutoff, budget=_BUDGET) for c in cells],
           1e-4, cutoff=cutoff)

    # lossy pipeline against the loss formulas (moment readout), each
    # simulated value converged against a pass at twice the lossy cutoff
    configs = [
        build_config(alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.25, **dict(zip(
            ("eta_a", "eta_b", "eta_c", "eta_d"), rng.uniform(0.35, 1.0, size=4).tolist())))
        for _ in range(3)
    ]
    digests = [config_digest(c) for c in configs]
    passes = [[oracle.numeric_slope(c, cutoff=k, budget=_LOSSY_BUDGET)
               for k in (_LOSSY_CUTOFF, 2 * _LOSSY_CUTOFF)] for c in configs]
    record("lossy_slope_vs_closed_form", digests,
           [analytic.lossy_slope_at_zero(c) for c in configs],
           [abs(est.value) for est, _ in passes], _LOSSY_TOL, cutoff=_LOSSY_CUTOFF,
           converged=all(_converged(e.value, e2.value, _LOSSY_TOL) for e, e2 in passes))
    record("lossy_noise_vs_closed_form", digests,
           [analytic.lossy_noise_at_zero(c) for c in configs],
           [est.variance for est, _ in passes], _LOSSY_TOL, cutoff=_LOSSY_CUTOFF,
           converged=all(_converged(e.variance, e2.variance, _LOSSY_TOL) for e, e2 in passes))

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

    # phase covariance: one shift x of theta_alpha, theta1 and theta2 leaves
    # the slope and variance of mode a unchanged, lossless and with five
    # losses.  The tail's config at phi = 0 on _on_phase_grid, where every
    # shifted phase is exact; the gates' phase factors are not, so the Fock
    # values agree to rounding (worst 1.1e-15 over seeds 0-39).  The record
    # spans two cutoffs and names none
    base = dict(alpha=0.8, g1=0.25, g2=0.4, transmissivity=0.3, **{
        key: _on_phase_grid(theta)
        for key, theta in (("theta_alpha", -0.4), ("theta1", 0.7), ("theta2", 2.1))
    })
    x = _on_phase_grid(rng.uniform(-math.pi, math.pi))
    shifted = {**base, **{key: base[key] + x for key in ("theta_alpha", "theta1", "theta2")}}
    losses = dict(eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6, eta_det=0.85)
    # lossless unshifted, lossless shifted, lossy unshifted, lossy shifted
    cells = [(k, budget, build_config(**kw, **extra))
             for k, budget, extra in ((cutoff, _BUDGET, {}), (_LOSSY_CUTOFF, _LOSSY_BUDGET, losses))
             for kw in (base, shifted)]
    ests = [oracle.numeric_slope(cfg, cutoff=k, budget=budget) for k, budget, cfg in cells]
    record("oracle_phase_covariance", [config_digest(cfg) for *_, cfg in cells[1::2]] * 2,
           [e.value for e in ests[0::2]] + [e.variance for e in ests[0::2]],
           [e.value for e in ests[1::2]] + [e.variance for e in ests[1::2]], 1e-12)

    return records


def run_suite(name: str, seed: int = 0, cutoff: int = 15, mutate: str | None = None):
    """Run one of the named suites: 'analytic', 'oracle', or 'all'.

    Raises ValueError for an unknown suite, for a ``mutate`` name that no
    check of the suite carries, and, before any check runs, for an oracle
    suite at a cutoff the oracle's entry refuses or whose largest pass
    exceeds the oracle's memory cap: the loss checks' two-mode density at
    the cutoff, which apply_loss holds four times over like a lossy
    simulate pass, or the canonical slope at twice the cutoff.
    """
    if name not in ("analytic", "oracle", "all"):
        raise ValueError(f"unknown suite '{name}' (expected analytic, oracle, or all)")
    if name != "analytic":
        oracle._refuse_bad_entry(cutoff, _BUDGET)
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
