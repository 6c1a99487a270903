"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime.  Tolerances are pinned here and nowhere else."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kerrmzi import analytic, oracle, sweep
from kerrmzi.analytic import (
    argmax_slope_transmissivity,
    lossy_noise_at_zero,
    lossy_slope_at_zero,
    noise_at_zero,
    optimal_split_ratio,
    optimal_transmissivity,
    qfi_linear,
    qfi_nonlinear,
    sensitivity,
    slope_at_zero,
    sql_nonlinear,
    transfer_coefficients,
)
from kerrmzi.config import PhaseShift, SplitterParams, build_config


@contextmanager
def criterion(number, description, runtime_budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number}: FAIL ({elapsed:.2f}s) - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {description}")
    assert elapsed < runtime_budget_s, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.2f}s >= {runtime_budget_s}s"
    )


def test_criterion_1_optimal_split_ratio():
    with criterion(1, "optimal split ratio: closed form vs numeric argmax", 1.0):
        assert abs(optimal_split_ratio(1e6, 2.0) - 3.0) < 1e-2
        rng = np.random.default_rng(11)
        for _ in range(100):
            n_alpha = rng.uniform(1e-3, 1e4)
            g1 = rng.uniform(0.0, 5.0)
            t_formula = optimal_transmissivity(n_alpha, g1)
            t_numeric = argmax_slope_transmissivity(n_alpha, g1)
            assert abs(t_formula - t_numeric) < 1e-4, (n_alpha, g1)


def test_criterion_2_linear_phase_degeneration():
    with criterion(2, "linear-only slope peaks at T = 1/2", 1.0):
        assert abs(argmax_slope_transmissivity(0.0, 0.0) - 0.5) < 1e-6


def test_criterion_3_gain_sweep_reproduction():
    with criterion(3, "gain sweep: beats SQL, plateau, above QCRB", 1.0):
        base = build_config(alpha=10.0, g1=2.0, g2=2.0, transmissivity=0.25)
        sql = sql_nonlinear(base.n_ps)
        assert sql == pytest.approx(8.910e-4, rel=1e-3)

        spec = sweep.SweepSpec(
            base=base,
            axes=(sweep.Axis.linspace("g2_over_g1", 1.0, 4.0, 61),),
        )
        result = sweep.run_sweep(spec)
        for row in result.rows:
            assert row.defined
            assert row.delta_phi < sql
            assert row.delta_phi >= row.qcrb * (1 - 1e-12)

        def dphi_at(ratio):
            cfg = sweep.set_parameter(base, "g2_over_g1", ratio)
            return sensitivity(cfg).delta_phi

        plateau = abs(dphi_at(3.0) - dphi_at(2.0)) / dphi_at(2.0)
        assert plateau < 0.10


CANON = build_config(alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.25)


def test_criterion_4_oracle_slope_and_variance():
    with criterion(4, "simulator matches slope and variance closed forms", 30.0):
        slope_closed = slope_at_zero(CANON)
        var_closed = noise_at_zero(CANON)

        est15 = oracle.numeric_slope(CANON, cutoff=15)
        assert abs(abs(est15.value) - slope_closed) / slope_closed < 1e-6

        _, var15 = oracle.quadrature_stats(
            oracle.simulate(CANON, cutoff=15), oracle.MODE_A
        )
        assert abs(var15 - var_closed) < 1e-4

        # doubling the cutoff moves the slope by less than 1e-7 and the
        # variance by less than 1e-5
        est30 = oracle.numeric_slope(CANON, cutoff=30)
        _, var30 = oracle.quadrature_stats(
            oracle.simulate(CANON, cutoff=30), oracle.MODE_A
        )
        assert abs(est30.value - est15.value) / abs(est30.value) < 1e-7
        assert abs(var30 - var15) / var30 < 1e-5


def test_criterion_5_qfi_triple_agreement():
    with criterion(5, "Fisher information: polynomial vs simulator moments", 60.0):
        rng = np.random.default_rng(23)
        for _ in range(10):
            cfg = build_config(
                alpha=rng.uniform(0.2, 1.2),
                g1=rng.uniform(0.05, 0.5),
                g2=rng.uniform(0.1, 1.0),
                transmissivity=float(rng.choice([0.25, 0.5, 0.75])),
            )
            f_oracle = oracle.oracle_qfi(cfg, cutoff=15)
            f_poly = qfi_nonlinear(
                cfg.coherent.n_alpha, 2.0 * cfg.nbs1.g ** 2, cfg.splitter
            ).f
            rel = abs(f_oracle - f_poly) / f_poly
            assert rel < 1e-3, (
                f"polynomial coefficients disagree with simulator moments: "
                f"analytic={f_poly!r} oracle={f_oracle!r} rel={rel:.3e} "
                f"config={cfg!r}"
            )
        half = SplitterParams(0.5)
        for n_g in (0.5, 2.0, 8.0):
            special = 0.25 * (n_g * (n_g + 2.0) + 2.0 * n_g)
            assert abs(qfi_linear(0.0, n_g, half) - special) < 1e-12


def test_criterion_6_loss_thresholds():
    with criterion(6, "internal and external SQL loss thresholds", 1.0):
        base = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25)
        internal = sweep.find_sql_threshold(base, "loss.eta_d")
        assert internal.found
        assert abs(internal.eta_star - 0.30) < 0.05

        external = sweep.find_sql_threshold(base, "eta_ab")
        assert external.found
        assert abs(external.eta_star - 0.60) < 0.05


def test_criterion_7_lossy_oracle_equivalence():
    with criterion(7, "density-operator pipeline matches loss closed forms", 300.0):
        rng = np.random.default_rng(31)
        for _ in range(5):
            etas = rng.uniform(0.3, 1.0, size=4)
            cfg = build_config(
                alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.25,
                eta_a=float(etas[0]), eta_b=float(etas[1]),
                eta_c=float(etas[2]), eta_d=float(etas[3]),
            )
            est = oracle.numeric_slope(cfg, cutoff=8, budget=5e-4)
            assert (
                abs(abs(est.value) - lossy_slope_at_zero(cfg))
                / lossy_slope_at_zero(cfg)
                < 1e-3
            )
            _, var = oracle.quadrature_stats(
                oracle.simulate(cfg, cutoff=8, budget=5e-4), oracle.MODE_A
            )
            assert abs(var - lossy_noise_at_zero(cfg)) / lossy_noise_at_zero(cfg) < 1e-3


def test_criterion_8_detection_loss_identity():
    with criterion(8, "detection loss is exactly a 1/sqrt(eta) penalty", 1.0):
        import dataclasses

        base = build_config(alpha=10.0, g1=2.0, g2=2.0, transmissivity=0.25)
        dphi_balance = sensitivity(base).delta_phi
        for eta in np.arange(0.1, 1.0 + 1e-9, 0.1):
            cfg = dataclasses.replace(
                base, loss=dataclasses.replace(base.loss, eta_det=float(eta))
            )
            ratio = sensitivity(cfg).delta_phi * math.sqrt(eta) / dphi_balance
            assert abs(ratio - 1.0) < 1e-12


def test_criterion_9_structural_invariants():
    with criterion(9, "unitarity, commutator, lossless reduction", 5.0):
        rng = np.random.default_rng(47)
        for _ in range(10_000):
            cfg = build_config(
                alpha=rng.uniform(0.0, 8.0),
                theta_alpha=rng.uniform(-math.pi, math.pi),
                g1=rng.uniform(0.0, 3.0),
                theta1=rng.uniform(-math.pi, math.pi),
                g2=rng.uniform(0.0, 3.0),
                theta2=rng.uniform(-math.pi, math.pi),
                transmissivity=rng.uniform(0.0, 1.0),
            )
            tc = transfer_coefficients(
                cfg.splitter, cfg.nbs1, cfg.nbs2,
                PhaseShift(rng.uniform(-math.pi, math.pi), rng.uniform(-0.5, 0.5)),
                int(rng.integers(0, 50)),
            )
            assert abs(abs(tc.m1) ** 2 + abs(tc.m0) ** 2 - 1.0) < 1e-12
            assert abs(abs(tc.a) ** 2 - abs(tc.b) ** 2 - abs(tc.c) ** 2 - 1.0) < 1e-12

            s_plain, s_lossy = slope_at_zero(cfg), lossy_slope_at_zero(cfg)
            if s_plain > 0:
                assert abs(s_lossy - s_plain) / s_plain < 1e-14
            else:
                assert s_lossy == 0.0
            n_plain, n_lossy = noise_at_zero(cfg), lossy_noise_at_zero(cfg)
            assert abs(n_lossy - n_plain) / abs(n_plain) < 1e-14
