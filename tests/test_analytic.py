import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrmzi.analytic import (
    UndefinedSensitivityError,
    nonlinear_index,
    argmax_slope_transmissivity,
    balanced_terms,
    chi3_phase,
    chi3_uncertainty,
    lossy_noise_at_zero,
    lossy_slope_at_zero,
    noise_at_zero,
    optimal_split_ratio,
    optimal_transmissivity,
    qcrb,
    qfi_linear,
    qfi_linear_from_arm_moments,
    qfi_nonlinear,
    sensitivity,
    slope_at_zero,
    sql_nonlinear,
    transfer_coefficients,
)
from kerrmzi.config import (
    CoherentInput,
    InterferometerConfig,
    KerrMediumSpec,
    PhaseShift,
    SplitterParams,
    SqueezerParams,
    build_config,
    parse_config,
    validate,
)
from kerrmzi.oracle import MODE_B, MODE_C, FockState, apply_beam_splitter, apply_kerr

# shared hypothesis strategies for physical parameter draws
g_amp = st.floats(min_value=0.0, max_value=4.0)
angle = st.floats(min_value=-math.pi, max_value=math.pi)
trans = st.floats(min_value=0.0, max_value=1.0)


def small_phase():
    return st.floats(min_value=-0.5, max_value=0.5)


class TestTransferCoefficients:
    def test_zero_phase_is_identity(self):
        cfg = build_config(g1=0.5, g2=1.0, transmissivity=0.3)
        tc = transfer_coefficients(
            cfg.splitter, cfg.nbs1, cfg.nbs2, PhaseShift(0.0, 0.0), 5
        )
        assert tc.m1 == pytest.approx(1.0)
        assert tc.m0 == pytest.approx(0.0)
        assert tc.m2 == pytest.approx(1.0)

    def test_unitarity_specific(self):
        cfg = build_config(transmissivity=0.25, phi_n=0.1)
        tc = transfer_coefficients(
            cfg.splitter, cfg.nbs1, cfg.nbs2, cfg.phase, 1
        )
        assert abs(tc.m1) ** 2 + abs(tc.m0) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_commutator_specific(self):
        cfg = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25, phi_n=0.05)
        tc = transfer_coefficients(cfg.splitter, cfg.nbs1, cfg.nbs2, cfg.phase, 3)
        assert abs(tc.a) ** 2 - abs(tc.b) ** 2 - abs(tc.c) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )

    def test_one_photon_fock_anchor(self):
        # one photon in b through bs1, the Kerr phase and bs2 of the Fock
        # oracle lands on |0,1,0> with amplitude m1 and on |0,0,1> with m0
        # at n = 0, which pins the phase e^{i(phi_l + phi_n)} and its sign
        splitter, phase = SplitterParams(0.35), PhaseShift(0.4, 0.3)
        amps = np.zeros((6, 6, 6), dtype=complex)
        amps[0, 1, 0] = 1.0
        state = apply_beam_splitter(FockState(amps, 6), 0.35, MODE_B, MODE_C)
        state = apply_kerr(state, phase.linear, phase.nonlinear, MODE_B)
        state = apply_beam_splitter(state, 0.35, MODE_B, MODE_C)
        tc = transfer_coefficients(splitter, SqueezerParams(), SqueezerParams(), phase, 0)
        assert abs(state.amplitudes[0, 1, 0] - tc.m1) <= 1e-13
        assert abs(state.amplitudes[0, 0, 1] - tc.m0) <= 1e-13

    def test_hand_transcription_at_two_photons(self):
        # the docstring's coefficients written out at n = 2, where the phase
        # is phi_l + 5 phi_n
        g1, th1, g2, th2, t, phi_l, phi_n = 0.7, 0.4, 1.3, 2.2, 0.3, 0.2, 0.15
        r, gain1, gain2 = 1.0 - t, math.sqrt(1.0 + g1 * g1), math.sqrt(1.0 + g2 * g2)
        ph = cmath.exp(1j * (phi_l + 5.0 * phi_n))
        m0, m1, m2 = math.sqrt(t * r) * (ph - 1.0), r + t * ph, r * ph + t
        want = {
            "m0": m0,
            "m1": m1,
            "m2": m2,
            "a": gain2 * gain1 + g2 * g1 * cmath.exp(1j * (th2 - th1)) * m1.conjugate(),
            "b": gain2 * g1 * cmath.exp(1j * th1)
            + gain1 * g2 * cmath.exp(1j * th2) * m1.conjugate(),
            "c": g2 * cmath.exp(1j * th2) * m0.conjugate(),
        }
        tc = transfer_coefficients(
            SplitterParams(t), SqueezerParams.from_g(g1, th1), SqueezerParams.from_g(g2, th2),
            PhaseShift(phi_l, phi_n), 2,
        )
        for name, value in want.items():
            assert abs(getattr(tc, name) - value) <= 1e-14 * abs(value), name

    def test_negative_photon_number_rejected(self):
        cfg = build_config()
        with pytest.raises(ValueError, match="photon number"):
            transfer_coefficients(cfg.splitter, cfg.nbs1, cfg.nbs2, cfg.phase, -1)

    @given(trans, st.floats(min_value=-math.pi, max_value=math.pi), small_phase(),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=300)
    def test_unitarity_property(self, t, phi_l, phi_n, n):
        cfg = build_config(transmissivity=t)
        tc = transfer_coefficients(
            cfg.splitter, cfg.nbs1, cfg.nbs2, PhaseShift(phi_l, phi_n), n
        )
        assert abs(abs(tc.m1) ** 2 + abs(tc.m0) ** 2 - 1.0) < 1e-12
        assert abs(abs(tc.m2) ** 2 + abs(tc.m0) ** 2 - 1.0) < 1e-12

    @given(g_amp, angle, g_amp, angle, trans, angle, small_phase(),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=300)
    def test_commutator_property(self, g1, th1, g2, th2, t, phi_l, phi_n, n):
        cfg = build_config(g1=g1, theta1=th1, g2=g2, theta2=th2, transmissivity=t)
        tc = transfer_coefficients(
            cfg.splitter, cfg.nbs1, cfg.nbs2, PhaseShift(phi_l, phi_n), n
        )
        assert abs(abs(tc.a) ** 2 - abs(tc.b) ** 2 - abs(tc.c) ** 2 - 1.0) < 1e-12


class TestSlopeAndNoise:
    def test_zero_gain_gives_zero_slope(self):
        assert slope_at_zero(build_config(alpha=10.0, g1=2.0, g2=0.0)) == 0.0

    def test_vacuum_pump_gives_zero_slope(self):
        assert slope_at_zero(build_config(alpha=0.0, g1=2.0, g2=4.0)) == 0.0

    def test_reference_slope_value(self):
        cfg = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25)
        expected = 2 * 4 * math.sqrt(0.1875) * 10 * 155
        assert slope_at_zero(cfg) == pytest.approx(expected, rel=1e-14)
        assert slope_at_zero(cfg) == pytest.approx(5369.357, rel=1e-6)

    def test_noise_balanced_is_vacuum_level(self):
        cfg = build_config(g1=1.7, g2=1.7)
        assert noise_at_zero(cfg) == pytest.approx(1.0, abs=1e-12)

    def test_noise_no_squeezing(self):
        assert noise_at_zero(build_config()) == pytest.approx(1.0)

    def test_reference_noise_value(self):
        cfg = build_config(g1=2.0, g2=4.0)
        assert noise_at_zero(cfg) == pytest.approx(297 - 32 * math.sqrt(85), rel=1e-12)
        assert noise_at_zero(cfg) == pytest.approx(1.97458, rel=1e-5)

    def test_noise_independent_of_splitter_and_pump(self):
        a = noise_at_zero(build_config(alpha=3.0, g1=1.0, g2=2.0, transmissivity=0.2))
        b = noise_at_zero(build_config(alpha=9.0, g1=1.0, g2=2.0, transmissivity=0.8))
        assert a == b


class TestSensitivity:
    def test_balanced_reference(self):
        cfg = build_config(alpha=10.0, g1=2.0, g2=2.0, transmissivity=0.25)
        rep = sensitivity(cfg)
        assert rep.term_lin == pytest.approx(8.6603, rel=1e-4)
        assert rep.term_nonlin == pytest.approx(1299.04, rel=1e-5)
        assert rep.term_nonlin_corr == pytest.approx(34.641, rel=1e-4)
        assert rep.delta_phi == pytest.approx(3.7248e-4, rel=1e-4)

    def test_unbalanced_reference(self):
        cfg = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25)
        rep = sensitivity(cfg)
        assert rep.delta_phi == pytest.approx(2.617e-4, rel=1e-3)
        assert rep.term_lin is None

    def test_zero_slope_raises(self):
        with pytest.raises(UndefinedSensitivityError):
            sensitivity(build_config(alpha=10.0, g1=2.0, g2=0.0))

    def test_delta_phi_consistent_with_parts(self):
        cfg = build_config(alpha=4.0, g1=1.0, g2=2.5, transmissivity=0.4)
        rep = sensitivity(cfg)
        assert rep.delta_phi == pytest.approx(
            math.sqrt(rep.noise) / rep.slope, rel=1e-15
        )

    @given(st.floats(min_value=0.3, max_value=6.0),
           st.floats(min_value=0.0, max_value=2.5),
           st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=200)
    def test_quantum_bound_respected(self, alpha, g1, g2, t):
        rep = sensitivity(build_config(alpha=alpha, g1=g1, g2=g2, transmissivity=t))
        assert rep.delta_phi >= rep.qcrb * (1 - 1e-12)

    @given(st.floats(min_value=0.5, max_value=8.0),
           st.floats(min_value=0.05, max_value=2.5),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=200)
    def test_balanced_decomposition_matches_slope(self, alpha, g, t):
        cfg = build_config(alpha=alpha, g1=g, g2=g, transmissivity=t)
        terms = balanced_terms(cfg)
        assert cfg.nbs1.g * sum(terms) == pytest.approx(
            slope_at_zero(cfg), rel=1e-12
        )

    def test_terms_absent_off_balance(self):
        assert balanced_terms(build_config(alpha=1.0, g1=0.5, g2=0.7)) is None

    def test_terms_present_with_pi_to_fourteen_digits(self):
        cfg = parse_config(
            "[nbs1]\ngain = 2.0\n[nbs2]\ngain = 2.0\nphase = 3.14159265358979\n"
            "[splitter]\ntransmissivity = 0.25\n[coherent]\nmagnitude = 10.0\n"
        )
        rep = sensitivity(cfg)
        assert None not in (rep.term_lin, rep.term_nonlin, rep.term_nonlin_corr)


class TestSql:
    def test_values(self):
        assert sql_nonlinear(1.0) == 1.0
        assert sql_nonlinear(4.0) == pytest.approx(0.125, rel=1e-15)
        assert sql_nonlinear(108.0) == pytest.approx(8.9098e-4, rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            sql_nonlinear(0.0)


class TestOptimalSplitRatio:
    def test_strong_pump_limit(self):
        assert optimal_split_ratio(1e6, 2.0) == pytest.approx(3.0, abs=1e-2)

    def test_reference_value(self):
        assert optimal_split_ratio(100.0, 2.0) == pytest.approx(2.777, abs=1e-3)

    def test_degenerate_point_agrees_with_argmax(self):
        # the formula gives R/T = 1 at (0, 0); the slope profile approaches
        # its n_alpha -> 0 shape, whose argmax is T = 1/2
        assert optimal_split_ratio(0.0, 0.0) == pytest.approx(1.0, rel=1e-12)
        t_numeric = argmax_slope_transmissivity(1e-12, 0.0)
        assert t_numeric == pytest.approx(0.5, abs=1e-6)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            optimal_split_ratio(-1.0, 0.0)

    @given(st.floats(min_value=1e-3, max_value=1e4),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=150, deadline=None)
    def test_formula_matches_numeric_argmax(self, n_alpha, g1):
        t_formula = optimal_transmissivity(n_alpha, g1)
        t_numeric = argmax_slope_transmissivity(n_alpha, g1)
        assert abs(t_formula - t_numeric) < 1e-4

    def test_linear_only_optimum_is_half(self):
        assert argmax_slope_transmissivity(0.0, 0.0) == pytest.approx(0.5, abs=1e-6)


class TestQfi:
    def test_vacuum_is_zero(self):
        q = qfi_nonlinear(0.0, 0.0, SplitterParams(0.5))
        assert q.f == 0.0
        assert q.s4 == 0.0

    def test_reference_coefficients(self):
        q = qfi_nonlinear(1.0, 8.0, SplitterParams(0.25))
        assert q.s1 == pytest.approx(20.25, rel=1e-14)
        assert q.s2 == pytest.approx(229.5, rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=20.0),
           trans)
    @settings(max_examples=300)
    def test_reassembly_identity(self, n_alpha, n_g, t):
        q = qfi_nonlinear(n_alpha, n_g, SplitterParams(t))
        total = n_alpha**3 * q.s1 + n_alpha**2 * q.s2 + n_alpha * q.s3 + q.s4
        assert q.f == pytest.approx(total, rel=1e-10, abs=1e-12)
        assert q.f >= 0.0

    def test_linear_special_case(self):
        for n_g in (0.5, 2.0, 8.0):
            direct = qfi_linear(0.0, n_g, SplitterParams(0.5))
            special = 0.25 * (n_g * (n_g + 2.0) + 2.0 * n_g)
            assert direct == pytest.approx(special, abs=1e-12)
        assert qfi_linear(0.0, 8.0, SplitterParams(0.5)) == pytest.approx(24.0)

    def test_linear_edge_cases(self):
        assert qfi_linear(0.0, 0.0, SplitterParams(0.5)) == 0.0
        n_g = 3.0
        full_t = qfi_linear(5.0, n_g, SplitterParams(1.0))
        assert full_t == pytest.approx(n_g**2 + 2 * n_g, rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=20.0),
           trans)
    @settings(max_examples=300)
    def test_linear_matches_arm_moments(self, n_alpha, n_g, t):
        sp = SplitterParams(t)
        assert qfi_linear(n_alpha, n_g, sp) == pytest.approx(
            qfi_linear_from_arm_moments(n_alpha, n_g, sp), rel=1e-12, abs=1e-12
        )


class TestQcrb:
    def test_values(self):
        assert qcrb(24.0) == pytest.approx(0.2041, abs=1e-4)
        assert qcrb(1.0) == 1.0
        assert qcrb(1.0, repeats=100) == pytest.approx(0.1, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            qcrb(0.0)
        with pytest.raises(ValueError):
            qcrb(1.0, repeats=0)


class TestLossyFormulas:
    def test_lossless_reduction_exact(self):
        cfg = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25)
        assert lossy_slope_at_zero(cfg) == pytest.approx(
            slope_at_zero(cfg), rel=1e-14
        )
        assert lossy_noise_at_zero(cfg) == pytest.approx(
            noise_at_zero(cfg), rel=1e-14
        )

    def test_slope_prefactor_scaling(self):
        base = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25)
        lossy = build_config(
            alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25, eta_d=0.5
        )
        assert lossy_slope_at_zero(lossy) == pytest.approx(
            slope_at_zero(base) * math.sqrt(0.5), rel=1e-14
        )
        dead = build_config(alpha=10.0, g1=2.0, g2=4.0, eta_d=0.0)
        assert lossy_slope_at_zero(dead) == 0.0

    def test_vacuum_noise_floor(self):
        # eta_a = 0 with an identity readout squeezer leaves pure vacuum noise
        cfg = build_config(alpha=1.0, g1=0.4, g2=0.0, eta_a=0.0)
        assert lossy_noise_at_zero(cfg) == pytest.approx(1.0, abs=1e-14)

    def test_reference_lossy_noise(self):
        cfg = build_config(
            alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25, eta_d=0.7
        )
        w = math.sqrt(0.7) * 0.25 + 0.75
        G1sq, G2sq = 5.0, 17.0
        expected = (
            G2sq * G1sq
            + 16 * 4 * w**2
            + G2sq * 4
            + 16 * G1sq * w**2
            + 16 * 0.25 * 0.75 * (math.sqrt(0.7) - 1.0) ** 2
            + (1 - 0.7) * 16 * 0.25
            - 4 * math.sqrt(G2sq * G1sq) * 8 * w
        )
        assert lossy_noise_at_zero(cfg) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_loss_never_helps_at_matched_readout(self, ea, eb, ec, ed):
        # holds at the matched operating point (g2 = 2 g1, phase matched);
        # away from it, attenuating a hot uncorrelated mode can genuinely
        # improve this fixed-quadrature estimator
        base = build_config(alpha=5.0, g1=1.0, g2=2.0, transmissivity=0.25)
        lossy = build_config(
            alpha=5.0, g1=1.0, g2=2.0, transmissivity=0.25,
            eta_a=ea, eta_b=eb, eta_c=ec, eta_d=ed,
        )
        try:
            worse = sensitivity(lossy).delta_phi
        except UndefinedSensitivityError:
            return
        assert worse >= sensitivity(base).delta_phi * (1 - 1e-12)


class TestDetectionLoss:
    def test_inverse_root_eta_penalty(self):
        import dataclasses

        base = build_config(alpha=10.0, g1=2.0, g2=2.0, transmissivity=0.25)
        dphi0 = sensitivity(base).delta_phi
        cfg = dataclasses.replace(
            base, loss=dataclasses.replace(base.loss, eta_det=0.64)
        )
        assert sensitivity(cfg).delta_phi == pytest.approx(dphi0 * 1.25, rel=1e-12)

    def test_identity_across_eta_grid(self):
        import dataclasses

        base = build_config(alpha=10.0, g1=2.0, g2=2.0, transmissivity=0.25)
        dphi0 = sensitivity(base).delta_phi
        for eta in np.linspace(0.1, 1.0, 10):
            cfg = dataclasses.replace(
                base, loss=dataclasses.replace(base.loss, eta_det=float(eta))
            )
            ratio = sensitivity(cfg).delta_phi * math.sqrt(eta) / dphi0
            assert abs(ratio - 1.0) < 1e-12

    def test_zero_efficiency_rejected(self):
        import dataclasses

        base = build_config(alpha=1.0, g1=0.5, g2=0.5)
        cfg = dataclasses.replace(
            base, loss=dataclasses.replace(base.loss, eta_det=0.0)
        )
        # construction allows it only via replace; the op must still refuse
        with pytest.raises(UndefinedSensitivityError):
            sensitivity(cfg)


MEDIUM = KerrMediumSpec(n0=1.45, intensity=1e12, wavenumber=7.85e6, length=0.01)


class TestChi3:
    def test_zero_maps_to_zero(self):
        assert chi3_phase(MEDIUM, 0.0) == 0.0
        assert chi3_uncertainty(MEDIUM, 0.0) == 0.0

    def test_linearity_in_length_and_input(self):
        import dataclasses

        doubled = dataclasses.replace(MEDIUM, length=2 * MEDIUM.length)
        assert chi3_phase(doubled, 1e-22) == pytest.approx(
            2 * chi3_phase(MEDIUM, 1e-22), rel=1e-15
        )
        assert chi3_uncertainty(doubled, 1e-6) == pytest.approx(
            0.5 * chi3_uncertainty(MEDIUM, 1e-6), rel=1e-15
        )
        assert chi3_uncertainty(MEDIUM, 2e-6) == pytest.approx(
            2 * chi3_uncertainty(MEDIUM, 1e-6), rel=1e-15
        )

    def test_round_trip(self):
        chi3 = 3.3e-22
        phi = chi3_phase(MEDIUM, chi3)
        assert chi3_uncertainty(MEDIUM, phi) == pytest.approx(chi3, rel=1e-12)

    def test_phase_factors_through_n2(self):
        # phi_n = n2 <I> k L with n2 the intensity-dependent index coefficient
        chi3 = 3.3e-22
        via_n2 = (
            nonlinear_index(MEDIUM, chi3)
            * MEDIUM.intensity * MEDIUM.wavenumber * MEDIUM.length
        )
        assert chi3_phase(MEDIUM, chi3) == pytest.approx(via_n2, rel=1e-15)

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(ValueError):
            chi3_uncertainty(MEDIUM, -1.0)

    def test_absolute_values_at_n0_off_one(self):
        # n2 = 3 chi3 / (4 n0^2 eps0 c) (Boyd, Nonlinear Optics, ch. 4) and
        # phi_n = n2 I k L, by hand at n0 = 1.5 with the SI eps0 and c
        medium = KerrMediumSpec(n0=1.5, intensity=1e12, wavenumber=7.85e6, length=0.01)
        scale = 4.0 * 2.25 * 8.8541878128e-12 * 299792458.0
        ikl = 1e12 * 7.85e6 * 0.01
        chi3, delta_phi = 3.3e-22, 1e-6
        assert nonlinear_index(medium, chi3) == pytest.approx(3.0 * chi3 / scale, rel=1e-15)
        assert chi3_phase(medium, chi3) == pytest.approx(3.0 * chi3 * ikl / scale, rel=1e-15)
        assert chi3_uncertainty(medium, delta_phi) == pytest.approx(
            scale * delta_phi / (3.0 * ikl), rel=1e-15
        )


class TestSlopeConsistency:
    @given(st.floats(min_value=0.0, max_value=3.0), trans)
    @settings(max_examples=200)
    def test_both_bookkeepings_agree(self, g1, t):
        # 4 T g1^2 in the lossless slope equals 2 T N_g in the lossy one
        n_g = 2.0 * g1 * g1
        assert 4.0 * t * g1 * g1 == pytest.approx(2.0 * t * n_g, rel=1e-15)

    @given(st.floats(min_value=0.1, max_value=6.0),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.05, max_value=0.95),
           angle, angle, angle)
    @settings(max_examples=200)
    def test_lossless_reduction_random_phases(self, alpha, g1, g2, t, tha, th1, th2):
        cfg = build_config(
            alpha=alpha, theta_alpha=tha, g1=g1, theta1=th1,
            g2=g2, theta2=th2, transmissivity=t,
        )
        assert lossy_slope_at_zero(cfg) == pytest.approx(
            slope_at_zero(cfg), rel=1e-14, abs=1e-300
        )
        assert lossy_noise_at_zero(cfg) == pytest.approx(
            noise_at_zero(cfg), rel=1e-14
        )


def _random_columns(rng, count):
    """Seeded columns of a lossless config; the gains through np.hypot."""
    return {
        "g1": np.hypot(1.0, rng.uniform(0.0, 3.0, count)),
        "theta1": rng.uniform(-math.pi, math.pi, count),
        "g2": np.hypot(1.0, rng.uniform(0.0, 4.0, count)),
        "theta2": rng.uniform(-math.pi, math.pi, count),
        "t": rng.uniform(0.0, 1.0, count),
        "alpha": rng.uniform(0.0, 12.0, count),
        "theta_alpha": rng.uniform(-math.pi, math.pi, count),
    }


def _config_of(cols):
    return InterferometerConfig(
        nbs1=SqueezerParams(cols["g1"], cols["theta1"]),
        nbs2=SqueezerParams(cols["g2"], cols["theta2"]),
        splitter=SplitterParams(cols["t"]),
        coherent=CoherentInput(cols["alpha"], cols["theta_alpha"]),
    )


def _cells(cols):
    """One dict of Python scalars per cell of the columns."""
    count = len(next(iter(cols.values())))
    return [{k: v[i].item() for k, v in cols.items()} for i in range(count)]


def _assert_same_bits(array, scalars):
    want = np.array([complex(v) if np.iscomplexobj(array) else float(v) for v in scalars])
    assert array.dtype == want.dtype and array.tobytes() == want.tobytes()


class TestArrayForms:
    """Each closed form called on arrays gives, cell for cell, the bits of
    its scalar call."""

    COUNT = 64

    @pytest.fixture
    def cols(self):
        return _random_columns(np.random.default_rng(7), self.COUNT)

    @pytest.mark.parametrize("form", [slope_at_zero, noise_at_zero])
    def test_config_forms(self, form, cols):
        got = form(validate(_config_of(cols)))
        assert got.shape == (self.COUNT,)
        _assert_same_bits(got, [form(validate(_config_of(c))) for c in _cells(cols)])

    def test_transfer_coefficients(self, cols):
        rng = np.random.default_rng(8)
        cols["phi_l"] = rng.uniform(-math.pi, math.pi, self.COUNT)
        cols["phi_n"] = rng.uniform(-0.5, 0.5, self.COUNT)
        cols["n"] = rng.integers(0, 40, self.COUNT)

        def coefficients(c):
            cfg = _config_of(c)
            return transfer_coefficients(
                cfg.splitter, cfg.nbs1, cfg.nbs2, PhaseShift(c["phi_l"], c["phi_n"]), c["n"]
            )

        got = coefficients(cols)
        want = [coefficients(c) for c in _cells(cols)]
        for name in ("m0", "m1", "m2", "a", "b", "c"):
            _assert_same_bits(getattr(got, name), [getattr(w, name) for w in want])

    def test_qfi_linear_and_optimal_split(self):
        rng = np.random.default_rng(9)
        n_alpha = rng.uniform(0.0, 1e4, self.COUNT)
        n_g = rng.uniform(0.0, 20.0, self.COUNT)
        g1 = rng.uniform(0.0, 5.0, self.COUNT)
        t = rng.uniform(0.0, 1.0, self.COUNT)
        cells = list(zip(n_alpha.tolist(), n_g.tolist(), g1.tolist(), t.tolist()))
        _assert_same_bits(
            qfi_linear(n_alpha, n_g, SplitterParams(t)),
            [qfi_linear(a, n, SplitterParams(s)) for a, n, _, s in cells],
        )
        _assert_same_bits(
            optimal_split_ratio(n_alpha, g1), [optimal_split_ratio(a, g) for a, _, g, _ in cells]
        )
        _assert_same_bits(
            optimal_transmissivity(n_alpha, g1),
            [optimal_transmissivity(a, g) for a, _, g, _ in cells],
        )

    def test_argmax_slope_transmissivity(self):
        rng = np.random.default_rng(10)
        n_alpha = rng.uniform(1e-3, 1e4, self.COUNT)
        g1 = rng.uniform(0.0, 5.0, self.COUNT)
        got = argmax_slope_transmissivity(n_alpha, g1)
        want = [argmax_slope_transmissivity(a, g) for a, g in zip(n_alpha.tolist(), g1.tolist())]
        # a scalar runs as a one-element array, so the bits agree, not only the bracket
        _assert_same_bits(got, want)
        assert isinstance(want[0], float)

    def test_balanced_terms(self):
        rng = np.random.default_rng(11)
        g = np.hypot(1.0, rng.uniform(0.05, 3.0, self.COUNT))
        cols = {
            "g1": g, "theta1": np.zeros(self.COUNT), "g2": g,
            "theta2": np.full(self.COUNT, math.pi), "t": rng.uniform(0.05, 0.95, self.COUNT),
            "alpha": rng.uniform(0.1, 10.0, self.COUNT), "theta_alpha": np.zeros(self.COUNT),
        }
        got = balanced_terms(_config_of(cols))
        want = [balanced_terms(_config_of(c)) for c in _cells(cols)]
        for k in range(3):
            _assert_same_bits(got[k], [w[k] for w in want])
        cols["theta2"] = cols["theta2"].copy()
        cols["theta2"][5] = 3.0
        assert balanced_terms(_config_of(cols)) is None

    def test_guards_raise_on_any_negative_element(self):
        cfg = build_config()
        with pytest.raises(ValueError, match="photon number"):
            transfer_coefficients(
                cfg.splitter, cfg.nbs1, cfg.nbs2, cfg.phase, np.array([0, 3, -1, 2])
            )
        one_negative = np.array([1.0, 2.0, -0.5, 3.0])
        ok = np.ones(4)
        for n_alpha, n_g in ((one_negative, ok), (ok, one_negative)):
            with pytest.raises(ValueError, match="must be >= 0"):
                qfi_linear(n_alpha, n_g, SplitterParams(0.5))
        for n_alpha, g1 in ((one_negative, ok), (ok, one_negative)):
            with pytest.raises(ValueError, match="must be >= 0"):
                optimal_split_ratio(n_alpha, g1)
