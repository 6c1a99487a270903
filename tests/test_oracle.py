import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from kerrmzi import analytic, oracle
from kerrmzi.config import build_config
from kerrmzi.oracle import (
    MODE_A,
    MODE_B,
    MODE_C,
    DensityOperator,
    FockState,
    TruncationError,
    apply_beam_splitter,
    apply_kerr,
    apply_loss,
    apply_two_mode_squeezer,
    coherent_product_state,
    kraus_completeness_defect,
    loss_kraus_operators,
    mean_amplitude,
    mean_photon,
    mode_populations,
    numeric_slope,
    oracle_qfi,
    prepare_input,
    quadrature_stats,
    reduced_density,
    simulate,
    to_density,
)

CANON = build_config(alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.25)
# At cutoff 10 and budget 1e-6 these pass the first squeezer, but mixing the
# pump with the squeezed arm parks 1.17e-6 (bs1) and 1.13e-6 (bs2) of the
# weight on the top Fock level of one splitter output.
_BS1_TRIP = build_config(alpha=0.8, g1=0.5, g2=0.0, transmissivity=0.25)
_BS2_TRIP = build_config(alpha=0.8, g1=0.5, g2=0.0, transmissivity=0.1, phi_l=3.14)
# At cutoff 10 and budget 1e-6 the first squeezer alone parks 9.78e-4 on
# the top Fock level of modes a and b, the squeezed vacuum's weight there.
_NBS1_TRIP = build_config(alpha=0.5, g1=1.0, g2=0.0, transmissivity=0.25)
# At cutoff 15 and budget 1e-6 the uncancelled readout squeezer parks
# 2.5e-5 on the top level at nbs2.
_NBS2_TRIP = build_config(alpha=1.0, g1=0.05, g2=1.0, transmissivity=0.25)


def _with_losses(cfg, **etas):
    return dataclasses.replace(cfg, loss=dataclasses.replace(cfg.loss, **etas))


def vacuum(cutoff=12):
    return coherent_product_state([0.0, 0.0, 0.0], cutoff)


def _kerr_output(cfg, cutoff, budget):
    """The pure state leaving the Kerr stage: the prefix from the one entry
    of the Fock pass times the Kerr phase."""
    psi = oracle._entering_kerr(cfg, cutoff, budget)
    return apply_kerr(psi, cfg.phase.linear, cfg.phase.nonlinear, MODE_B)


def _after_bs2(cfg, cutoff, budget):
    """(P, m): the Kraus branch stack of the Fock pass after the second
    splitter, rebuilt from the cached prefix stage by stage, and the common
    internal loss m = max(eta_c, eta_d) that the pass moves past bs2; only
    the residual min/m on the lower-eta mode is split into branches, and
    none when eta_c = eta_d."""
    loss = cfg.loss
    psi = _kerr_output(cfg, cutoff, budget)
    common = max(loss.eta_c, loss.eta_d)
    if loss.eta_c != loss.eta_d:
        lower = MODE_B if loss.eta_d < loss.eta_c else MODE_C
        psi = oracle._kraus_branches(psi, min(loss.eta_c, loss.eta_d) / common, lower)
    return apply_beam_splitter(psi, cfg.splitter.transmissivity, MODE_B, MODE_C), common


def _two_axis_branches(amps, eta_d, eta_c):
    """Both internal losses split into Kraus branches, one axis each, by
    einsum over the Kraus tables: sum_kl |K_k^b K_l^c psi><...| is
    L_eta_d on b and L_eta_c on c of |psi><psi|, with no loss moved past
    bs2."""
    c = amps.shape[0]
    ops_d, ops_c = loss_kraus_operators(eta_d, c), loss_kraus_operators(eta_c, c)
    return np.einsum("kmb,lnc,abc->amnkl", ops_d, ops_c, amps, optimize=True).reshape((c,) * 3 + (-1,))


def _three_mode_reference(cfg, cutoff, budget):
    """rho_ab of a lossy simulate by its definition on three modes: the
    branch stack after bs2 (_after_bs2) as a density, the common internal
    loss m on both b and c, the external losses, the readout squeezer and
    the detection loss, then Tr_c."""
    loss = cfg.loss
    branches, common = _after_bs2(cfg, cutoff, budget)
    ref = to_density(branches)
    ref = apply_loss(apply_loss(ref, common, MODE_B), common, MODE_C)
    ref = apply_loss(apply_loss(ref, loss.eta_a, MODE_A), loss.eta_b, MODE_B)
    nbs2 = oracle._squeezer_unitary(cfg.nbs2.gain, cfg.nbs2.phase, cutoff)
    ref = DensityOperator(oracle._sandwich(ref.tensor, nbs2, (0, 1), (3, 4)), cutoff)
    ref = apply_loss(ref, loss.eta_det, MODE_A)
    return np.einsum("abcdec->abde", ref.tensor)


def _canon_with_alpha(alpha):
    return build_config(alpha=alpha, g1=0.3, g2=0.6, transmissivity=0.25)


class TestPreparation:
    def test_vacuum_input(self):
        state = prepare_input(build_config(), cutoff=10)
        assert state.amplitudes[0, 0, 0] == 1.0
        assert state.norm_sq == pytest.approx(1.0)
        assert all(mean_photon(state, m) == 0.0 for m in range(3))

    def test_coherent_mean_photon(self):
        state = prepare_input(build_config(alpha=1.0), cutoff=15)
        assert mean_photon(state, MODE_C) == pytest.approx(1.0, abs=1e-8)

    def test_cutoff_too_small_for_alpha(self):
        with pytest.raises(TruncationError, match="prepare"):
            prepare_input(build_config(alpha=2.0), cutoff=8)

    def test_clipped_weight_is_poisson_tail(self):
        mu = 4.0
        tail = 1.0 - sum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(8))
        with pytest.raises(TruncationError, match=f"clipped weight {tail:.3e} > budget"):
            coherent_product_state([0.0, 2.0], cutoff=8)

    def test_cutoff_floor(self):
        with pytest.raises(ValueError, match="cutoff"):
            prepare_input(build_config(), cutoff=1)

    def test_coherent_phase_carried(self):
        state = coherent_product_state([0.0, 0.0, 0.5j], cutoff=12)
        assert mean_amplitude(state, MODE_C) == pytest.approx(0.5j, abs=1e-10)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_non_finite_amplitude_refused(self, alpha):
        # a NaN clipped weight passed the budget check, and the state came
        # back with a NaN norm and a numpy division warning
        with pytest.raises(ValueError, match="^coherent amplitudes must be finite"):
            coherent_product_state([0.0, alpha], cutoff=10)

    @pytest.mark.parametrize("alpha", [1e155, 1e200])
    @pytest.mark.parametrize("run", [
        lambda alpha: coherent_product_state([0.0, alpha], cutoff=10),
        lambda alpha: simulate(_canon_with_alpha(alpha), cutoff=10),
        lambda alpha: numeric_slope(_canon_with_alpha(alpha), cutoff=10),
        lambda alpha: oracle_qfi(_canon_with_alpha(alpha), cutoff=10),
    ], ids=["coherent_product_state", "simulate", "numeric_slope", "oracle_qfi"])
    def test_amplitude_whose_square_overflows_is_clipped(self, run, alpha):
        # |alpha|^2 past the float range raised a bare OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationError, match=r"^prepare: .*clipped weight 1\.000e\+00"):
                run(alpha)


class TestTwoModeSqueezer:
    def test_unit_gain_is_identity(self):
        state = vacuum()
        out = apply_two_mode_squeezer(state, 1.0, 0.3, MODE_A, MODE_B)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    def test_vacuum_occupancy_is_g_squared(self):
        g = 0.4
        out = apply_two_mode_squeezer(vacuum(), math.hypot(1, g), 0.0, MODE_A, MODE_B)
        assert mean_photon(out, MODE_A) == pytest.approx(g * g, abs=1e-10)
        assert mean_photon(out, MODE_B) == pytest.approx(g * g, abs=1e-10)
        assert out.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_bogoliubov_action_on_means(self):
        g, theta = 0.5, 0.8
        gain = math.hypot(1, g)
        seed_a, seed_b = 0.3 + 0.1j, 0.2 - 0.25j
        state = coherent_product_state([seed_a, seed_b, 0.0], cutoff=18)
        out = apply_two_mode_squeezer(state, gain, theta, MODE_A, MODE_B)
        expect_a = gain * seed_a + g * np.exp(1j * theta) * np.conj(seed_b)
        expect_b = gain * seed_b + g * np.exp(1j * theta) * np.conj(seed_a)
        assert mean_amplitude(out, MODE_A) == pytest.approx(expect_a, abs=1e-6)
        assert mean_amplitude(out, MODE_B) == pytest.approx(expect_b, abs=1e-6)

    def test_gain_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^squeezer gain must be >= 1 \(got 0.9\)$"):
            apply_two_mode_squeezer(vacuum(), 0.9, 0.0, MODE_A, MODE_B)

    @pytest.mark.parametrize(
        "gain, theta", [(math.nan, 0.0), (math.inf, 0.0), (1.5, math.nan)],
        ids=["nan-gain", "inf-gain", "nan-phase"],
    )
    def test_non_finite_gain_or_phase_refused_uncached(self, gain, theta):
        # a NaN gain passed the gain >= 1 check and left a NaN gate in the
        # cache
        oracle._squeezer_unitary.cache_clear()
        with pytest.raises(ValueError, match="^squeezer gain and phase must be finite"):
            apply_two_mode_squeezer(vacuum(), gain, theta, MODE_A, MODE_B)
        assert oracle._squeezer_unitary.cache_info().currsize == 0


class TestBeamSplitter:
    def test_full_transmission_passes_b_untouched(self):
        # T = 1 is the identity on the transmitted mode; the reflected port
        # carries the fixed mirror-phase convention (c -> -c), which cancels
        # on the second pass
        state = coherent_product_state([0.0, 0.4, 0.2j], cutoff=12)
        out = apply_beam_splitter(state, 1.0, MODE_B, MODE_C)
        assert mean_amplitude(out, MODE_B) == pytest.approx(
            mean_amplitude(state, MODE_B), abs=1e-12
        )
        assert mean_amplitude(out, MODE_C) == pytest.approx(
            -mean_amplitude(state, MODE_C), abs=1e-12
        )
        again = apply_beam_splitter(out, 1.0, MODE_B, MODE_C)
        assert np.allclose(again.amplitudes, state.amplitudes, atol=1e-12)

    def test_double_pass_at_zero_phase_is_identity(self):
        state = coherent_product_state([0.0, 0.3, 0.5], cutoff=12)
        out = apply_beam_splitter(state, 0.3, MODE_B, MODE_C)
        out = apply_beam_splitter(out, 0.3, MODE_B, MODE_C)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_coherent_means_follow_matrix(self):
        t = 0.3
        seed_b, seed_c = 0.4 + 0.2j, -0.3 + 0.1j
        state = coherent_product_state([0.0, seed_b, seed_c], cutoff=14)
        out = apply_beam_splitter(state, t, MODE_B, MODE_C)
        rt, rr = math.sqrt(t), math.sqrt(1 - t)
        assert mean_amplitude(out, MODE_B) == pytest.approx(
            rt * seed_b + rr * seed_c, abs=1e-8
        )
        assert mean_amplitude(out, MODE_C) == pytest.approx(
            rr * seed_b - rt * seed_c, abs=1e-8
        )

    def test_out_of_range_transmissivity(self):
        with pytest.raises(ValueError):
            apply_beam_splitter(vacuum(), 1.5, MODE_B, MODE_C)

    def test_photon_number_conserved(self):
        state = coherent_product_state([0.0, 0.6, 0.8], cutoff=14)
        before = mean_photon(state, MODE_B) + mean_photon(state, MODE_C)
        out = apply_beam_splitter(state, 0.37, MODE_B, MODE_C)
        after = mean_photon(out, MODE_B) + mean_photon(out, MODE_C)
        assert after == pytest.approx(before, abs=1e-12)


class TestKerr:
    def test_zero_phase_is_identity(self):
        state = coherent_product_state([0.0, 0.4, 0.0], cutoff=10)
        out = apply_kerr(state, 0.0, 0.0, MODE_B)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("shape", [(7, 7, 7), (7, 7, 7, 5)], ids=["pure", "branch-stack"])
    def test_zero_phase_returns_its_input(self, shape):
        # at the operating point the Kerr stage copies nothing
        amps = np.ones(shape, dtype=complex)
        amps.flags.writeable = False
        state = FockState(amps, 7)
        assert apply_kerr(state, 0.0, 0.0, MODE_B) is state

    @pytest.mark.parametrize("phi_l, phi_n", [(math.nan, 0.0), (0.0, math.inf), (0.1, math.nan)])
    def test_non_finite_phase_refused(self, phi_l, phi_n):
        with pytest.raises(ValueError, match="^Kerr phases must be finite"):
            apply_kerr(vacuum(8), phi_l, phi_n, MODE_B)

    def test_single_photon_phase(self):
        state = vacuum(8)
        amps = np.zeros_like(state.amplitudes)
        amps[0, 1, 0] = 1.0
        state.amplitudes = amps
        out = apply_kerr(state, 0.2, 0.05, MODE_B)
        assert out.amplitudes[0, 1, 0] == pytest.approx(np.exp(1j * 0.25), abs=1e-14)

    def test_norm_exactly_preserved(self):
        state = coherent_product_state([0.0, 0.8, 0.0], cutoff=14)
        out = apply_kerr(state, 0.3, 0.11, MODE_B)
        assert out.norm_sq == pytest.approx(state.norm_sq, abs=1e-15)

    @pytest.mark.parametrize(
        "shape, modes", [((7, 7), 2), ((7, 7, 7, 5), 3)], ids=["two-mode", "branch-stack"]
    )
    def test_phase_lands_on_named_axis(self, shape, modes):
        # mode 1 of a two-mode state and of a (c, c, c, branches) stack
        c, phi_l, phi_n = 7, 0.3, 0.11
        rng = np.random.default_rng(4)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = apply_kerr(FockState(amps, c, modes=modes), phi_l, phi_n, MODE_B)
        n = np.arange(c)
        diag = np.diag(np.exp(1j * (phi_l * n + phi_n * n**2)))
        ref = np.moveaxis(np.tensordot(diag, amps, axes=(1, MODE_B)), 0, MODE_B)
        assert out.amplitudes.shape == shape and out.modes == modes
        np.testing.assert_allclose(out.amplitudes, ref, rtol=0, atol=1e-14)

    def test_rejects_density(self):
        rho = to_density(coherent_product_state([0.0, 0.4, 0.0], cutoff=8))
        with pytest.raises(TypeError, match="FockState"):
            apply_kerr(rho, 0.2, 0.05, MODE_B)

    def test_heisenberg_matrix_element(self):
        # the annihilator matrix element from the two-photon level picks up
        # e^{i(phi_l + 3 phi_n)}, the n = 1 value of e^{i(phi_l + phi_n(2n+1))}
        phi_l, phi_n = 0.4, 0.13
        c = 6
        u = np.diag(np.exp(1j * (phi_l * np.arange(c) + phi_n * np.arange(c) ** 2)))
        a = np.diag(np.sqrt(np.arange(1, c)), k=1)
        evolved = u.conj().T @ a @ u
        assert evolved[1, 2] == pytest.approx(
            a[1, 2] * np.exp(1j * (phi_l + 3 * phi_n)), abs=1e-14
        )


class TestLossChannel:
    def test_eta_one_is_identity(self):
        rho = to_density(coherent_product_state([0.0, 0.5, 0.0], cutoff=10))
        out = apply_loss(rho, 1.0, MODE_B)
        assert np.array_equal(out.tensor, rho.tensor)

    def test_kraus_completeness(self):
        for eta in (0.0, 0.25, 0.8, 1.0):
            assert kraus_completeness_defect(eta, 12) < 1e-12

    def test_coherent_stays_coherent(self):
        eta, alpha = 0.6, 0.8
        rho = to_density(coherent_product_state([0.0, 0.0, alpha], cutoff=14))
        out = apply_loss(rho, eta, MODE_C)
        assert mean_amplitude(out, MODE_C) == pytest.approx(
            math.sqrt(eta) * alpha, abs=1e-9
        )
        assert mean_photon(out, MODE_C) == pytest.approx(eta * alpha**2, abs=1e-9)
        assert out.trace == pytest.approx(1.0, abs=1e-12)

    def test_thermal_occupancy_scales(self):
        g = 0.5
        state = apply_two_mode_squeezer(
            vacuum(14), math.hypot(1, g), 0.0, MODE_A, MODE_B
        )
        rho = apply_loss(to_density(state), 0.4, MODE_B)
        assert mean_photon(rho, MODE_B) == pytest.approx(0.4 * g * g, abs=1e-9)

    def test_eta_zero_empties_the_mode(self):
        rho = to_density(coherent_product_state([0.0, 0.7, 0.0], cutoff=10))
        out = apply_loss(rho, 0.0, MODE_B)
        assert mean_photon(out, MODE_B) == pytest.approx(0.0, abs=1e-12)

    def test_oversized_density_refused_before_allocation(self):
        # 16 * 30^6 B = 10.9 GiB; the pure state itself is 432 KB
        with pytest.raises(ValueError, match="cutoff 30"):
            to_density(coherent_product_state([0.0, 0.0, 0.5], cutoff=30))

    def test_rejects_pure_state(self):
        with pytest.raises(TypeError):
            apply_loss(vacuum(), 0.5, MODE_B)

    def test_superoperator_matches_kraus_sum(self):
        lossy = build_config(
            alpha=0.8, g1=0.25, g2=0.5, transmissivity=0.25, eta_c=0.7, eta_d=0.6
        )
        # the mixed three-mode state after bs2, and the two-mode (a, b)
        # density a lossy simulate ends with
        branches, _ = _after_bs2(lossy, 8, 5e-4)
        for rho in (to_density(branches), simulate(lossy, cutoff=8, budget=5e-4)):
            n = rho.modes
            for eta in (0.0, 0.35, 0.8):
                for mode in range(n):
                    ref = np.zeros_like(rho.tensor)
                    for k in loss_kraus_operators(eta, rho.cutoff):
                        term = np.moveaxis(np.tensordot(k, rho.tensor, (1, mode)), 0, mode)
                        term = np.tensordot(k.conj(), term, (1, mode + n))
                        ref += np.moveaxis(term, 0, mode + n)
                    out = apply_loss(rho, eta, mode)
                    assert np.max(np.abs(out.tensor - ref)) <= 1e-14
        assert [to_density(branches).modes, rho.modes] == [3, 2]

    def test_kraus_matrix_elements(self):
        eta = 0.49
        ops = loss_kraus_operators(eta, 6)
        assert ops.dtype == np.float64 and ops.shape == (6, 6, 6)
        k1 = ops[1]
        assert k1[2, 3] == pytest.approx(
            math.sqrt(3 * eta**2 * (1 - eta)), abs=1e-14
        )

    @pytest.mark.parametrize("cutoff", [2, 3, 8, 15, 30])
    def test_kraus_operators_pinned_to_formula(self, cutoff):
        # the table sqrt(C(n,k) eta^{n-k} (1-eta)^k), evaluated in this
        # order, placed at K_k[n - k, n]: bit for bit
        k, n = np.indices((cutoff, cutoff))
        binomials = np.array([[float(math.comb(m, j)) for m in range(cutoff)] for j in range(cutoff)])
        for eta in (0.0, 1e-3, 0.37, 0.999, 1.0):
            amps = np.sqrt(binomials * eta ** np.maximum(n - k, 0) * (1.0 - eta) ** k)
            ref = np.zeros((cutoff,) * 3)
            ref[k, (n - k) % cutoff, n] = amps
            assert np.array_equal(loss_kraus_operators(eta, cutoff), ref), eta


def _dense_expms(h, strengths):
    """exp(-i s h) for each strength s, from one eigendecomposition of the
    whole Hermitian matrix h, ignoring its block structure."""
    w, v = np.linalg.eigh(h)
    return [(v * np.exp(-1j * s * w)) @ v.conj().T for s in strengths]


def _ladder(cutoff):
    a = np.diag(np.sqrt(np.arange(1, cutoff)), k=1).astype(complex)
    return a, a.conj().T


def _dense(gate):
    """The (cutoff^2, cutoff^2) matrix of a packed gate, d S conj(d) row by
    row when it carries a phase d."""
    i, j = gate.pairs
    c = len(i)
    flat = i * c + j
    rows = gate.stack
    if gate.phase is not None:
        rows = gate.phase[:, :, None] * rows * gate.phase.conj()[:, None, :]
    out = np.zeros((c * c, c * c), dtype=complex)
    out[flat[:, :, None], flat[:, None, :]] = rows
    return out


def _assert_gate_matches(u, ref, cutoff, case):
    assert np.max(np.abs(u - ref)) <= 1e-13, case
    assert np.max(np.abs(u.conj().T @ u - np.eye(cutoff**2))) <= 1e-13, case


class TestBlockedGates:
    # each grid holds its kind's identity end, gain 1 or T = 1.  The phase
    # only enters as the diagonal e^{i theta n_a}, so cutoff 30 takes one
    # nonzero phase and spares three dense 900 x 900 eigendecompositions.
    @pytest.mark.parametrize("cutoff", [8, 15, 30])
    def test_squeezer_matches_dense_reference(self, cutoff):
        a, ad = _ladder(cutoff)
        gains = [1.0, math.sqrt(1.09), math.sqrt(5)]
        for theta in [0.0, 0.9, math.pi, -2.0] if cutoff < 30 else [0.9]:
            h = 1j * (np.exp(1j * theta) * np.kron(ad, ad) - np.exp(-1j * theta) * np.kron(a, a))
            refs = _dense_expms(h, [math.acosh(gain) for gain in gains])
            for gain, ref in zip(gains, refs):
                u = _dense(oracle._squeezer_unitary(gain, theta, cutoff))
                _assert_gate_matches(u, ref, cutoff, (gain, theta))

    @pytest.mark.parametrize("cutoff", [8, 15, 30])
    def test_splitter_matches_dense_reference(self, cutoff):
        a, ad = _ladder(cutoff)
        ts = [0.0, 0.3, 1.0]
        h = 1j * (np.kron(ad, a) - np.kron(a, ad))
        rots = _dense_expms(h, [math.acos(math.sqrt(t)) for t in ts])
        # the diagonal of 1 (x) (-1)^n_c, applied as a row scaling
        flip = np.tile((-1.0) ** np.arange(cutoff), cutoff)[:, None]
        for t, rot in zip(ts, rots):
            u = _dense(oracle._beam_splitter_unitary(t, cutoff))
            _assert_gate_matches(u, flip * rot, cutoff, t)

    @pytest.mark.parametrize("cutoff", [2, 3, 8, 10, 15, 30])
    def test_loss_superoperator_matches_kron_sum(self, cutoff):
        # each entry is the one product of amplitudes that the packed sum of
        # the c Kronecker products K_k (x) K_k adds to zeros, so the two are
        # bit-identical; at small cutoffs the dense kron sum is too
        pairs = oracle._packed_pairs(cutoff, 1)
        for eta in (0.0, 1e-3, 0.37, 0.999):
            kraus = loss_kraus_operators(eta, cutoff)
            ref = oracle._packed_kron_sum(((1, k, k) for k in kraus), pairs)
            superop = oracle._loss_superoperator(eta, cutoff)
            assert superop.stack.dtype == np.float64 and superop.phase is None
            assert np.array_equal(superop.stack, ref), eta
            assert all(np.array_equal(p, q) for p, q in zip(superop.pairs, pairs))
            if cutoff <= 10:
                dense = sum(np.kron(k, k.conj()) for k in kraus)
                assert np.array_equal(_dense(superop), dense), eta

    @pytest.mark.parametrize(
        "build, args",
        [
            (oracle._squeezer_unitary, (math.hypot(1, 0.7), 0.9)),
            (oracle._beam_splitter_unitary, (0.3,)),
            (oracle._loss_superoperator, (0.37,)),
            (oracle._squeezer_unitary, (math.hypot(1, 0.7), 0.0)),
        ],
        ids=["squeezer", "splitter", "loss", "squeezer-theta-0"],
    )
    def test_cached_gate_holds_cube_of_cutoff(self, build, args):
        # the dense c^2 x c^2 matrix at cutoff 30 took 12.96 MB and the
        # complex stack 432 000 B; the real stack takes 216 000 B, the pairs
        # 14 400 and a squeezer's phase e^{i theta n_a} 14 400, none at theta = 0
        gate = build(*args, 30)
        assert gate.stack.shape == (30, 30, 30) and gate.stack.dtype == np.float64
        assert (gate.phase is None) == (build is not oracle._squeezer_unitary or args[1] == 0.0)
        phase = 0 if gate.phase is None else gate.phase.nbytes
        assert gate.stack.nbytes + sum(p.nbytes for p in gate.pairs) + phase < 0.25e6

    def test_real_valued_state_is_promoted(self):
        # the real matmul views its input as float pairs, so a gate, a Kraus
        # split or a loss given real amplitudes must act as on complex ones
        real = np.zeros((8, 8, 8))
        real[0, 1, 2] = 0.6
        real[1, 2, 0] = 0.8
        runs = [
            lambda s: apply_two_mode_squeezer(s, 1.2, 0.9, MODE_A, MODE_B).amplitudes,
            lambda s: apply_beam_splitter(s, 0.3, MODE_B, MODE_C).amplitudes,
            lambda s: oracle._kraus_branches(s, 0.6, MODE_B).amplitudes,
            lambda s: apply_loss(to_density(s), 0.7, MODE_A).tensor,
        ]
        for run in runs:
            out = run(FockState(real, 8))
            assert out.dtype == complex
            assert np.array_equal(out, run(FockState(real.astype(complex), 8)))


def _random_amplitudes(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _moveaxis_apply(tensor, gate, axes):
    """_apply_on_axes with its gather and scatter views taken by np.moveaxis:
    the same gather, _real_matmul and scatter on the same bytes."""
    i, j = gate.pairs
    c = len(i)
    work = np.moveaxis(tensor, axes, (0, 1))[i, j].astype(complex, copy=False)
    rest = work.shape[2:]
    work = work.reshape(c, c, -1)
    if gate.phase is not None:
        work *= gate.phase.conj()[:, :, None]
    work = oracle._real_matmul(gate.stack, work)
    if gate.phase is not None:
        work *= gate.phase[:, :, None]
    out = np.empty(tensor.shape, dtype=work.dtype)
    np.moveaxis(out, axes, (0, 1))[i, j] = work.reshape((c, c) + rest)
    return out


class TestAxisPlan:
    # _apply_on_axes, _kraus_branches and reduced_density permute axes with
    # transpose and swapaxes.  Each must take the views np.moveaxis took, so
    # every gather, matmul block and result is bit-identical to it
    _GATES = {
        "splitter": lambda c: oracle._beam_splitter_unitary(0.3, c),
        "phased-squeezer": lambda c: oracle._squeezer_unitary(math.hypot(1, 0.7), 0.9, c),
        "loss": lambda c: oracle._loss_superoperator(0.7, c),
    }

    @pytest.mark.parametrize("ndim", [3, 4])
    @pytest.mark.parametrize("kind", _GATES)
    def test_apply_on_every_axis_pair(self, monkeypatch, kind, ndim):
        # on four axes, (0, 2) and (1, 3) are the (ket, bra) pairs of a
        # two-mode density, where apply_loss runs the loss superoperator
        c = 5
        gate = self._GATES[kind](c)
        rng = np.random.default_rng(ndim)
        matmul, blocks = oracle._real_matmul, []

        def recording(mats, work):
            blocks.append(work.copy())
            return matmul(mats, work)

        monkeypatch.setattr(oracle, "_real_matmul", recording)
        for axes in itertools.permutations(range(ndim), 2):
            tensor = _random_amplitudes(rng, (c,) * ndim)
            ref = _moveaxis_apply(tensor, gate, axes)
            out = oracle._apply_on_axes(tensor.copy(), gate, axes)
            assert np.array_equal(blocks[-1], blocks[-2]), axes
            assert np.array_equal(out, ref), axes

    def test_kraus_branches_on_every_mode(self):
        c = 5
        rng = np.random.default_rng(5)
        kraus = loss_kraus_operators(0.6, c).swapaxes(0, 1).reshape(c * c, c)
        for mode in range(3):
            amps = _random_amplitudes(rng, (c,) * 3)
            psi = amps.reshape(c**mode, c, -1)
            branches = oracle._real_matmul(kraus, psi).reshape(c**mode, c, c, -1)
            ref = np.moveaxis(branches, 2, 3).reshape((c,) * 4)
            out = oracle._kraus_branches(FockState(amps, c), 0.6, mode).amplitudes
            assert np.array_equal(out, ref), mode

    @pytest.mark.parametrize("ndim", [3, 4], ids=["state", "branch-stack"])
    def test_reduced_density_on_every_mode(self, ndim):
        c = 5
        amps = _random_amplitudes(np.random.default_rng(ndim), (c,) * ndim)
        for mode in range(3):
            psi = np.moveaxis(amps, mode, 0).reshape(c, -1)
            ref = psi @ psi.conj().T
            assert np.array_equal(reduced_density(FockState(amps, c), mode), ref), mode


class TestQuadratureStats:
    def test_vacuum_convention(self):
        mean, var = quadrature_stats(vacuum(), MODE_A)
        assert mean == pytest.approx(0.0, abs=1e-14)
        assert var == pytest.approx(1.0, abs=1e-12)

    def test_coherent_mean(self):
        theta = 0.7
        alpha = 0.9 * np.exp(1j * theta)
        state = coherent_product_state([alpha, 0.0, 0.0], cutoff=15)
        mean, _ = quadrature_stats(state, MODE_A)
        assert mean == pytest.approx(2 * 0.9 * math.sin(theta), abs=1e-8)

    def test_single_squeezer_variance_matches_closed_form(self):
        # g2 = 0 readout: the variance reduces to the one-squeezer combination
        cfg = build_config(alpha=0.5, g1=0.4, g2=0.0, transmissivity=0.25)
        state = simulate(cfg, cutoff=14)
        _, var = quadrature_stats(state, MODE_A)
        assert var == pytest.approx(analytic.noise_at_zero(cfg), abs=1e-8)


class TestSimulate:
    def test_identity_pipeline_returns_vacuum(self):
        cfg = build_config(alpha=0.0, g1=0.0, g2=0.0)
        state = simulate(cfg, cutoff=8)
        assert abs(state.amplitudes[0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_arm_occupancy_after_first_splitter(self):
        cfg = build_config(alpha=1.0, g1=0.3, transmissivity=0.25)
        state = prepare_input(cfg, cutoff=15)
        state = apply_two_mode_squeezer(
            state, cfg.nbs1.gain, cfg.nbs1.phase, MODE_A, MODE_B
        )
        state = apply_beam_splitter(state, 0.25, MODE_B, MODE_C)
        expected = 0.25 * 0.09 + 0.75 * 1.0
        assert mean_photon(state, MODE_B) == pytest.approx(expected, abs=1e-8)

    def test_variance_matches_closed_form(self):
        state = simulate(CANON, cutoff=15)
        _, var = quadrature_stats(state, MODE_A)
        assert var == pytest.approx(analytic.noise_at_zero(CANON), abs=1e-4)

    def test_lossless_returns_pure_lossy_returns_density(self):
        from kerrmzi.oracle import DensityOperator, FockState

        assert isinstance(simulate(CANON, cutoff=12, budget=1e-6), FockState)
        lossy = build_config(
            alpha=0.5, g1=0.2, g2=0.3, transmissivity=0.25, eta_d=0.8
        )
        assert isinstance(simulate(lossy, cutoff=8, budget=1e-4), DensityOperator)

    def test_density_is_physical(self):
        lossy = build_config(
            alpha=0.8, g1=0.25, g2=0.5, transmissivity=0.25,
            eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6,
        )
        rho = simulate(lossy, cutoff=8, budget=5e-4)
        assert rho.trace == pytest.approx(1.0, abs=1e-10)
        assert rho.hermiticity_defect() < 1e-10
        assert rho.min_eigenvalue() > -1e-8

    def test_lossy_peak_memory(self):
        # the one Kraus axis of the residual internal loss makes the branch
        # stack at bs2 a (cutoff,)*4 tensor, the size of the tail's
        # densities: the pass holds at most the four of its account
        # (measured 3.2 at cutoff 8)
        lossy = build_config(
            alpha=0.8, g1=0.25, g2=0.5, transmissivity=0.25,
            eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6, eta_det=0.9,
        )
        simulate(lossy, cutoff=8, budget=5e-4)
        tracemalloc.start()
        try:
            simulate(lossy, cutoff=8, budget=5e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= oracle._pass_bytes(8, True) == 4 * 16 * 8**4

    def test_lossy_is_trace_over_c_of_three_mode_reference(self):
        # the residual Kraus branches through bs2 as a three-mode density,
        # the common internal loss m on both b and c, the external losses,
        # the readout squeezer and the detection loss, then Tr_c
        lossy = build_config(
            alpha=0.8, g1=0.25, g2=0.5, transmissivity=0.25, phi_n=0.05,
            eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6, eta_det=0.85,
        )
        rho = simulate(lossy, cutoff=8, budget=5e-4)
        assert rho.tensor.shape == (8,) * 4
        assert np.max(np.abs(rho.tensor - _three_mode_reference(lossy, 8, 5e-4))) <= 1e-14

    @pytest.mark.parametrize(
        "etas",
        [dict(eta_c=0.6, eta_d=0.7), dict(eta_c=0.7, eta_d=0.7), dict(eta_c=0.0, eta_d=0.5)],
        ids=["c-lower", "equal", "c-zero"],
    )
    def test_internal_loss_patterns_match_three_mode_reference(self, etas):
        lossy = _with_losses(_LOSSY_PHI, **etas)
        rho = simulate(lossy, cutoff=8, budget=5e-4)
        assert np.max(np.abs(rho.tensor - _three_mode_reference(lossy, 8, 5e-4))) <= 1e-14

    @pytest.mark.parametrize("eta", [0.7, 0.0])
    def test_equal_internal_losses_split_no_branch(self, monkeypatch, eta):
        # eta_c = eta_d = eta is L_eta on both modes, all of it moved past
        # bs2: no Kraus split, and the pure (c, c, c) state meets bs2 and
        # folds into rho_ab with c as its only branch index
        splits = _calls(monkeypatch, "_kraus_branches")
        folds = _calls(monkeypatch, "to_density")
        rho = simulate(_with_losses(_LOSSY_PHI, eta_c=eta, eta_d=eta), cutoff=8, budget=5e-4)
        assert splits == [] and len(folds) == 1
        assert folds[0][0].amplitudes.shape == (8, 8, 8)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)

    def test_both_internal_losses_lost_leave_b_in_vacuum(self):
        # eta_c = eta_d = 0: nothing of the arms reaches bs2, so rho_ab is
        # the reduced state of a beside vacuum on b, then the later stages
        lossy = _with_losses(_LOSSY_PHI, eta_c=0.0, eta_d=0.0)
        psi = _kerr_output(lossy, 8, 5e-4).amplitudes
        ref = np.zeros((8,) * 4, dtype=complex)
        ref[:, 0, :, 0] = np.einsum("abc,dbc->ad", psi, psi.conj())
        ref = apply_loss(DensityOperator(ref, 8), lossy.loss.eta_a, MODE_A)
        ref = apply_two_mode_squeezer(ref, lossy.nbs2.gain, lossy.nbs2.phase, MODE_A, MODE_B)
        ref = apply_loss(ref, lossy.loss.eta_det, MODE_A)
        rho = simulate(lossy, cutoff=8, budget=5e-4)
        assert np.max(np.abs(rho.tensor - ref.tensor)) <= 1e-14

    @pytest.mark.parametrize(
        "eta_d, eta_c",
        [(0.6, 0.7), (0.7, 0.6), (0.5, 0.5), (0.0, 0.0), (0.0, 0.8), (1.0, 0.35)],
    )
    def test_one_kraus_axis_is_exact_on_whole_blocks(self, monkeypatch, eta_d, eta_c):
        # random three-mode states whose (b, c) support lies in whole bs2
        # blocks, n_b + n_c <= cutoff - 1: there the truncated bs2 is the
        # untruncated one, so moving the common loss past it is exact, and
        # the old tail with one Kraus axis per internal loss agrees with the
        # new one to rounding
        c = 7
        rng = np.random.default_rng(c)
        psi = rng.normal(size=(c,) * 3) + 1j * rng.normal(size=(c,) * 3)
        psi[:, np.add.outer(np.arange(c), np.arange(c)) >= c] = 0.0
        psi /= np.linalg.norm(psi)
        cfg = _with_losses(_LOSSY_PHI, eta_c=eta_c, eta_d=eta_d)
        monkeypatch.setattr(oracle, "apply_kerr", lambda *args: FockState(psi, c))
        rho = simulate(cfg, cutoff=c, budget=1.0)
        loss = cfg.loss
        stack = _two_axis_branches(psi, eta_d, eta_c)
        stack = apply_beam_splitter(FockState(stack, c), cfg.splitter.transmissivity, MODE_B, MODE_C)
        ref = to_density(FockState(stack.amplitudes.reshape(c, c, -1), c, modes=2))
        ref = apply_loss(apply_loss(ref, loss.eta_a, MODE_A), loss.eta_b, MODE_B)
        ref = apply_two_mode_squeezer(ref, cfg.nbs2.gain, cfg.nbs2.phase, MODE_A, MODE_B)
        ref = apply_loss(ref, loss.eta_det, MODE_A)
        assert np.max(np.abs(rho.tensor - ref.tensor)) <= 1e-14

    def test_external_losses_only_run_at_cutoff_30(self):
        # one branch: the (30,)*4 density holds 13 MB, where the (30,)*6
        # one would need 10.9 GiB
        cfg = _with_losses(CANON, eta_a=0.8, eta_b=0.7)
        rho = simulate(cfg, cutoff=30)
        assert rho.tensor.nbytes == 16 * 30**4
        _, var = quadrature_stats(rho, MODE_A)
        assert var == pytest.approx(analytic.lossy_noise_at_zero(cfg), rel=1e-12)

    def test_both_internal_losses_run_at_cutoff_30(self):
        # one Kraus axis: the branch stack at bs2 and rho_ab are (30,)*4
        # tensors, where the two-axis stack would take 4 * 16 * 30^5 B =
        # 1.45 GiB; the density's variance meets the moment readout
        # (measured 1.1e-15)
        cfg = _with_losses(CANON, eta_c=0.9, eta_d=0.8)
        rho = simulate(cfg, cutoff=30)
        _, var = quadrature_stats(rho, MODE_A)
        assert var == pytest.approx(numeric_slope(cfg, cutoff=30).variance, rel=1e-12)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        assert rho.hermiticity_defect() < 1e-14

    def test_truncation_budget_names_stage(self):
        cfg = build_config(alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.25)
        with pytest.raises(TruncationError, match="prepare"):
            simulate(cfg, cutoff=8, budget=1e-8)

    def test_detection_loss_scales_slope(self):
        lossy = _with_losses(CANON, eta_det=0.5)
        est_full = numeric_slope(CANON, cutoff=12, budget=1e-6)
        est_half = numeric_slope(lossy, cutoff=12, budget=1e-6)
        assert est_half.value == pytest.approx(
            est_full.value * math.sqrt(0.5), rel=1e-6
        )


# the per-parameter gate caches and the per-cutoff loss structure; a loss
# superoperator itself is rebuilt for every eta
_CACHES = (
    oracle._squeezer_unitary,
    oracle._beam_splitter_unitary,
    oracle._loss_entries,
)


def _calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call of oracle.<name> from now on; with
    _squeeze_vacuum, one entry per prefix build."""
    calls = []
    run = getattr(oracle, name)

    def counting(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(oracle, name, counting)
    return calls


class TestGateCaches:
    def test_caches_stay_bounded(self, monkeypatch):
        # every run draws new gains, T and losses at a new cutoff, so every
        # gate and the loss structure miss on every run
        for cache in _CACHES:
            cache.cache_clear()
        oracle._PREFIXES.clear()
        builds = _calls(monkeypatch, "_squeeze_vacuum")
        runs = max(cache.cache_info().maxsize for cache in _CACHES) + 2
        for i in range(runs):
            x = i / runs
            cfg = build_config(
                alpha=0.3, g1=0.1 + 0.1 * x, g2=0.2 + 0.1 * x,
                transmissivity=0.2 + 0.5 * x, eta_a=0.9 - 0.1 * x, eta_b=0.8 - 0.1 * x,
                eta_c=0.7 - 0.1 * x, eta_d=0.6 - 0.1 * x, eta_det=0.95 - 0.1 * x,
            )
            simulate(cfg, cutoff=6 + i, budget=1e-2)
        for cache in _CACHES:
            info = cache.cache_info()
            assert info.misses > info.maxsize
            assert info.currsize <= info.maxsize
        assert len(builds) > 2 and len(oracle._PREFIXES) <= 2

    def test_per_cutoff_tables_stay_bounded(self):
        # the ladder, quadrature and binomial tables take one entry per
        # cutoff; a scan over twice as many cutoffs as they hold keeps each
        # within its bound
        tables = (oracle._annihilator, oracle._quadrature_y, oracle._loss_terms)
        for table in tables:
            table.cache_clear()
        for cutoff in range(2, 2 + 2 * oracle._CACHE_SIZE):
            oracle._quadrature_y(cutoff)
            oracle._loss_terms(cutoff)
            assert [table.cache_info().currsize for table in tables] == (
                [min(cutoff - 1, oracle._CACHE_SIZE)] * 3
            )

    def test_new_gates_need_no_eigendecomposition(self, monkeypatch):
        # a new gain, phase or T only rescales the cached eigenphases
        cutoff = 9
        for cache in (oracle._generator_eigenbasis, *_CACHES):
            cache.cache_clear()
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(args)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        oracle._squeezer_unitary(1.05, 0.0, cutoff)
        oracle._beam_splitter_unitary(0.45, cutoff)
        assert len(calls) == 2
        for k in range(10):
            oracle._squeezer_unitary(1.1 + 0.1 * k, 0.3 * k - 1.0, cutoff)
            oracle._beam_splitter_unitary(0.05 + 0.09 * k, cutoff)
            # and a new eta only regathers the cached loss structure
            oracle._loss_superoperator(0.1 * k, cutoff)
        assert len(calls) == 2
        assert oracle._loss_entries.cache_info().misses == 1

    def test_eigenbasis_cache_stays_bounded(self):
        # one entry per (kind, cutoff); more cutoffs than it holds
        basis = oracle._generator_eigenbasis
        for cache in (basis, *_CACHES):
            cache.cache_clear()
        cutoffs = range(4, 5 + basis.cache_info().maxsize)
        for cutoff in cutoffs:
            oracle._squeezer_unitary(1.3, 0.4, cutoff)
            oracle._beam_splitter_unitary(0.35, cutoff)
        info = basis.cache_info()
        assert info.misses == 2 * len(cutoffs)
        assert info.currsize <= info.maxsize
        # the complex eigenvectors v, one (cutoff, cutoff) matrix per row
        v = basis("squeezer", cutoffs[-1])[1]
        assert v.dtype == complex and v.nbytes == 16 * cutoffs[-1] ** 3

    def test_numeric_slope_builds_each_gate_once(self, monkeypatch):
        # a lossy slope stops at the Kerr stage, so it builds only the
        # prefix's splitter (bs1); simulate then builds nbs2, and only
        # eta_a, eta_b and eta_det build a loss superoperator, all three
        # from one loss structure, since the internal losses (eta_c, eta_d)
        # use Kraus operators and the first squeezer meets vacuum; after
        # it, neither slope, lossy or lossless, builds a gate or a loss
        # superoperator
        for cache in _CACHES:
            cache.cache_clear()
        oracle._PREFIXES.clear()
        builds = _calls(monkeypatch, "_squeeze_vacuum")
        losses = _calls(monkeypatch, "_loss_superoperator")
        cfg = build_config(
            alpha=0.3, g1=0.2, g2=0.4, transmissivity=0.25,
            eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6, eta_det=0.5,
        )

        def built():
            return [cache.cache_info().misses for cache in _CACHES] + [len(losses), len(builds)]

        numeric_slope(cfg, cutoff=6, budget=1e-2)
        assert built() == [0, 1, 0, 0, 1]
        simulate(cfg, cutoff=6, budget=1e-2)
        assert built() == [1, 1, 1, 3, 1]
        numeric_slope(cfg, cutoff=6, budget=1e-2)
        numeric_slope(_with_losses(cfg, eta_a=1.0, eta_b=1.0, eta_c=1.0, eta_d=1.0, eta_det=1.0),
                      cutoff=6, budget=1e-2)
        assert built() == [1, 1, 1, 3, 1]


_FIVE_LOSS_ETAS = dict(eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6, eta_det=0.5)
_FIVE_LOSS_ARGS = dict(alpha=0.3, g1=0.2, g2=0.4, transmissivity=0.25, **_FIVE_LOSS_ETAS)
_FIVE_LOSSES = build_config(**_FIVE_LOSS_ARGS)


class TestSlopeWorkCount:
    # a warm slope reads its pure prefix from the cache and its slope from
    # one overlap at the Kerr stage.  Lossless, only the state runs the tail,
    # one contraction per gate, through the module-level gate functions that
    # the benchmark tracer wraps; the central difference took 16.  Lossy, it
    # stops at the Kerr stage, contracts nothing and forms no density.
    @pytest.mark.parametrize(
        "cfg, cutoff, budget, limit",
        [(CANON, 12, 1e-6, 2), (_FIVE_LOSSES, 6, 1e-2, 0)],
        ids=["lossless", "five-losses"],
    )
    def test_contractions_per_warm_slope(self, monkeypatch, cfg, cutoff, budget, limit):
        numeric_slope(cfg, cutoff=cutoff, budget=budget)
        splitters = _calls(monkeypatch, "apply_beam_splitter")
        squeezers = _calls(monkeypatch, "apply_two_mode_squeezer")
        sizes = []
        contract = oracle._apply_on_axes

        def counting(tensor, *args):
            sizes.append(tensor.size)
            return contract(tensor, *args)

        densities = []

        def two_mode_density(state, *args):
            assert state.modes == 2, "numeric_slope formed a three-mode density"
            densities.append(state.modes)
            return to_density(state, *args)

        monkeypatch.setattr(oracle, "_apply_on_axes", counting)
        monkeypatch.setattr(oracle, "to_density", two_mode_density)
        numeric_slope(cfg, cutoff=cutoff, budget=budget)
        assert len(sizes) <= limit
        assert all(size < cutoff**6 for size in sizes)
        assert densities == []
        assert len(splitters) == len(squeezers) == (1 if limit else 0)

    def test_one_norm_read_per_checked_stage(self, monkeypatch):
        # a warm lossless slope checks bs2 and nbs2, and each check reads
        # the norm of the stage output it is handed, and of nothing else
        numeric_slope(CANON, cutoff=12, budget=1e-6)
        checks = _calls(monkeypatch, "_check")
        reads = []
        norm_sq = FockState.norm_sq.fget
        monkeypatch.setattr(FockState, "norm_sq", property(lambda s: reads.append(s) or norm_sq(s)))
        numeric_slope(CANON, cutoff=12, budget=1e-6)
        checked = [args[0] for args in checks]
        assert len(checked) == 2
        assert len(reads) == 2 and all(r is c for r, c in zip(reads, checked))


def _outputs(cfg, cutoff, budget, cold):
    """simulate's state, numeric_slope's estimate and, lossless, oracle_qfi,
    each call on a cleared prefix cache when cold."""
    def call(run):
        if cold:
            oracle._PREFIXES.clear()
        return run(cfg, cutoff=cutoff, budget=budget)

    def tensor(state):
        return state.amplitudes if isinstance(state, FockState) else state.tensor

    slope = call(numeric_slope)
    qfi = call(oracle_qfi) if cfg.loss.is_lossless() else None
    return tensor(call(simulate)), slope, qfi


class TestPrefixCache:
    def test_one_build_serves_simulate_slope_and_qfi(self, monkeypatch):
        oracle._PREFIXES.clear()
        builds = _calls(monkeypatch, "_squeeze_vacuum")
        simulate(CANON, cutoff=12, budget=1e-6)
        numeric_slope(CANON, cutoff=12, budget=1e-6)
        oracle_qfi(CANON, cutoff=12, budget=1e-6)
        assert (len(builds), len(oracle._PREFIXES)) == (1, 1)

    @pytest.mark.parametrize(
        "cfg, cutoff, budget",
        [(CANON, 15, 1e-8), (_FIVE_LOSSES, 8, 1e-2)],
        ids=["lossless", "five-losses"],
    )
    def test_warm_results_are_bit_identical_to_cold(self, monkeypatch, cfg, cutoff, budget):
        cold = _outputs(cfg, cutoff, budget, cold=True)
        oracle._PREFIXES.clear()
        builds = _calls(monkeypatch, "_squeeze_vacuum")
        warm = _outputs(cfg, cutoff, budget, cold=False)
        assert len(builds) == 1
        state, slope, qfi = warm
        assert np.array_equal(state, cold[0])
        assert slope == cold[1] and qfi == cold[2]

    @pytest.mark.parametrize(
        "change, hit",
        [
            (dict(phi_l=0.3), True),
            (dict(phi_n=0.02), True),
            (dict(g2=0.5), True),
            (dict(theta2=1.0), True),
            (dict(eta_a=1.0), True),
            (dict(eta_c=0.9), True),
            (dict(eta_det=0.7), True),
            (dict(alpha=0.35), False),
            (dict(theta_alpha=0.5), False),
            (dict(g1=0.25), False),
            (dict(theta1=0.4), False),
            (dict(transmissivity=0.3), False),
            (dict(cutoff=7), False),
            (dict(budget=2e-2), False),
        ],
    )
    def test_key_holds_what_the_prefix_reads(self, monkeypatch, change, hit):
        run = dict(cutoff=6, budget=1e-2)
        args = dict(_FIVE_LOSS_ARGS)
        for name, value in change.items():
            (run if name in run else args)[name] = value
        oracle._PREFIXES.clear()
        builds = _calls(monkeypatch, "_squeeze_vacuum")
        simulate(_FIVE_LOSSES, cutoff=6, budget=1e-2)
        simulate(build_config(**args), **run)
        assert len(builds) == (1 if hit else 2)

    @pytest.mark.parametrize("cutoff", [8, 12, 20])
    @pytest.mark.parametrize(
        "cfg", [CANON, _with_losses(CANON, **_FIVE_LOSS_ETAS), _with_losses(CANON, eta_d=0.8)],
        ids=["lossless", "five-losses", "one-internal-loss"],
    )
    def test_zero_phase_outputs_match_explicit_unit_phases(self, monkeypatch, cfg, cutoff):
        # at phi = 0 the Kerr stage hands on the cached prefix itself; the
        # reference multiplies it by the unit phases e^{i 0}, and every
        # output agrees bit for bit
        def unit_phase_kerr(state, phi_l, phi_n, mode):
            n = np.arange(state.cutoff)
            shape = [1] * state.amplitudes.ndim
            shape[mode] = state.cutoff
            phases = np.exp(1j * (phi_l * n + phi_n * n.astype(float) ** 2)).reshape(shape)
            return FockState(state.amplitudes * phases, state.cutoff, state.modes)

        free = _outputs(cfg, cutoff, 1e-2, cold=False)
        monkeypatch.setattr(oracle, "apply_kerr", unit_phase_kerr)
        ref = _outputs(cfg, cutoff, 1e-2, cold=False)
        assert free[0].tobytes() == ref[0].tobytes()
        assert np.array(free[1]).tobytes() == np.array(ref[1]).tobytes()
        assert free[2] == ref[2]

    @pytest.mark.parametrize("cfg", [CANON, _FIVE_LOSSES], ids=["lossless", "five-losses"])
    def test_passes_leave_the_prefix_untouched(self, cfg):
        prefix = oracle._entering_kerr(cfg, 12, 1e-2)
        before = prefix.amplitudes.tobytes()
        _outputs(cfg, 12, 1e-2, cold=False)
        assert oracle._entering_kerr(cfg, 12, 1e-2) is prefix
        assert prefix.amplitudes.tobytes() == before
        assert not prefix.amplitudes.flags.writeable

    def test_cached_amplitudes_refuse_writes(self):
        state = oracle._entering_kerr(CANON, 12, 1e-6)
        assert oracle._entering_kerr(CANON, 12, 1e-6) is state
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0, 0, 0] = 0.0

    @pytest.mark.parametrize(
        "cfg, cutoff, budget, stage",
        [(CANON, 8, 1e-8, "prepare"), (_BS1_TRIP, 10, 1e-6, "bs1")],
    )
    def test_refused_prefix_raises_on_every_call(self, monkeypatch, cfg, cutoff, budget, stage):
        oracle._PREFIXES.clear()
        # prepare trips before the first squeezer, so count the pump builds
        builds = _calls(monkeypatch, "coherent_product_state")
        messages = []
        for _ in range(2):
            with pytest.raises(TruncationError, match=stage) as exc:
                simulate(cfg, cutoff=cutoff, budget=budget)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert (len(builds), len(oracle._PREFIXES)) == (2, 0)

    def test_room_counts_the_held_prefix(self, monkeypatch):
        # the 1 GiB limits by the account's arithmetic: lossless, a pass and
        # one cached prefix fit up to cutoff 237, and two prefixes (100, 200)
        # fit beside a pass at 200 but not the one at 200 beside a pass at
        # 237; the pass alone fits up to 256.  Lossy, a pass and its prefix
        # fit up to cutoff 63, the pass alone up to 64
        cap = oracle._DENSITY_GIB_CAP * 2**30

        def fits(cutoff, lossy, *held):
            prefixes = 16 * sum(c**3 for c in (cutoff, *held))
            return oracle._pass_bytes(cutoff, lossy) + prefixes <= cap

        assert fits(200, False, 100) and not fits(237, False, 200)
        assert fits(237, False) and not fits(238, False) and oracle._pass_bytes(256, False) <= cap
        assert fits(63, True) and not fits(64, True) and oracle._pass_bytes(64, True) <= cap
        # the rule itself, on prefixes the entry builds at small cutoffs:
        # under a cap that a lossless pass at 13 fills alone, the prefixes
        # at 6 and 10 fit beside the pass at 10, only its own beside the
        # pass at 12, and none beside the pass at 13; under one that a lossy
        # pass at 7 fills alone, a lossy pass at 6 keeps its prefix
        cfg = build_config(alpha=0.3, g1=0.2, g2=0.4, transmissivity=0.25)

        def held_after(cutoff, lossy=False):
            oracle._entering_kerr(cfg, cutoff, 1e-2, lossy)
            return len(oracle._PREFIXES)

        oracle._PREFIXES.clear()
        try:
            monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", oracle._pass_bytes(13, False) / 2**30)
            assert [held_after(6), held_after(10), held_after(12), held_after(13)] == [1, 2, 1, 0]
            monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", oracle._pass_bytes(7, True) / 2**30)
            assert [held_after(6, lossy=True), held_after(7, lossy=True)] == [1, 0]
        finally:
            oracle._PREFIXES.clear()

    def test_run_without_room_builds_its_prefix_uncached(self, monkeypatch):
        # at cutoff 15 the four branch tensors take 216 000 B and the prefix
        # 54 000 B; a 250 000 B cap admits the run but not its prefix beside
        # it, and drops the prefix an earlier run left
        expected = simulate(CANON, cutoff=15, budget=1e-8).amplitudes
        oracle._PREFIXES.clear()
        builds = _calls(monkeypatch, "_squeeze_vacuum")
        oracle_qfi(CANON, cutoff=12, budget=1e-6)
        monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", 250_000 / 2**30)
        for _ in range(2):
            assert np.array_equal(simulate(CANON, cutoff=15, budget=1e-8).amplitudes, expected)
        assert (len(builds), len(oracle._PREFIXES)) == (3, 0)
        # oracle_qfi is sized like a lossless run: at 100 000 B its state
        # would fit, but no run's four tensors do, so it builds nothing
        monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", 100_000 / 2**30)
        with pytest.raises(ValueError, match="^a lossless pass at cutoff 15 needs"):
            oracle_qfi(CANON, cutoff=15, budget=1e-8)
        assert (len(builds), len(oracle._PREFIXES)) == (3, 0)


# losses, and the largest cutoff their simulate pass account admits under
# the 1 GiB cap: lossless 16 * 4 c^3 bytes, every lossy pattern 16 * 4 c^4,
# since the internal losses leave one Kraus axis.  numeric_slope, which
# stops at the Kerr stage when lossy, takes the lossless account for every
# pattern, and so does oracle_qfi, which runs lossless configs only.
_LOSS_PATTERNS = dict(
    lossless=({}, 256),
    eta_d=(dict(eta_d=0.6), 64),
    eta_c=(dict(eta_c=0.7), 64),
    internal=(dict(eta_c=0.7, eta_d=0.6), 64),
    external=(dict(eta_a=0.9, eta_b=0.8), 64),
    five_losses=(dict(eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6, eta_det=0.5), 64),
)


def _pass_account(pattern: str, cutoff: int, run=simulate, phi_n=0.0):
    """The config of a loss pattern and the account of its run's pass at
    cutoff."""
    etas, _ = _LOSS_PATTERNS[pattern]
    base = build_config(alpha=0.3, g1=0.2, g2=0.4, transmissivity=0.25, phi_n=phi_n)
    cfg = _with_losses(base, **etas)
    return cfg, oracle._pass_bytes(cutoff, run is simulate and not cfg.loss.is_lossless())


class TestMemoryAccount:
    # oracle._pass_bytes(cutoff, lossy) sizes every simulate and
    # numeric_slope pass: the bytes it holds at its peak beside the cached
    # prefixes.  At phi_n = 0 the Kerr stage returns its input; at 0.05 it
    # makes a copy, which the peak must hold as well
    @pytest.mark.parametrize("pattern, run, phi_n", [
        pytest.param(pattern, run, phi_n,
                     id=f"{pattern}-{run.__name__}" + (f"-phi_n={phi_n}" if phi_n else ""))
        for phi_n in (0.0, 0.05) for run in (simulate, numeric_slope) for pattern in _LOSS_PATTERNS
    ])
    def test_warm_peak_within_account(self, pattern, run, phi_n):
        cutoff = 12
        cfg, account = _pass_account(pattern, cutoff, run, phi_n)
        oracle._PREFIXES.clear()  # no prefix an earlier test left behind
        run(cfg, cutoff=cutoff, budget=1e-2)
        held = sum(state.amplitudes.nbytes for state in oracle._PREFIXES.values())
        tracemalloc.start()
        try:
            run(cfg, cutoff=cutoff, budget=1e-2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held == 16 * cutoff**3
        assert peak <= 1.05 * (account + held)

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    def test_warm_lossless_slope_holds_three_tensors(self, monkeypatch, cached):
        # the state and a gate's gather and matmul, T = 16 c^3 bytes each;
        # the prefix or the Kerr output held through bs2 would make four
        cutoff = 20
        numeric_slope(CANON, cutoff=cutoff, budget=1e-6)
        if not cached:  # room for the pass, but not for its prefix beside it
            cap = oracle._pass_bytes(cutoff, False) + 8 * cutoff**3
            monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", cap / 2**30)
            oracle._PREFIXES.clear()
        tracemalloc.start()
        try:
            numeric_slope(CANON, cutoff=cutoff, budget=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 3 * 16 * cutoff**3

    @pytest.mark.parametrize("pattern", _LOSS_PATTERNS)
    def test_pass_limits(self, pattern):
        # estimator only, then a refused pass above the limit, which raises
        # before it allocates a single (cutoff,)*3 state: simulate at its
        # pattern's limit, numeric_slope and, lossless, oracle_qfi at 256
        cap = oracle._DENSITY_GIB_CAP * 2**30
        runs = [(simulate, _LOSS_PATTERNS[pattern][1]), (numeric_slope, 256)]
        if pattern == "lossless":
            runs.append((oracle_qfi, 256))
        for run, limit in runs:
            assert _pass_account(pattern, limit, run)[1] <= cap
            cfg, account = _pass_account(pattern, limit + 1, run)
            assert account > cap
            kind = "lossy" if run is simulate and pattern != "lossless" else "lossless"
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"^a {kind} pass at cutoff {limit + 1} needs"):
                    run(cfg, cutoff=limit + 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * (limit + 1) ** 3

    def test_lossy_tail_account_admits_cutoff_64(self):
        # estimator only: the four (64,)*4 tensors of a lossy pass, the
        # branch stack at bs2 or the tail's densities, are exactly the 1 GiB
        # cap for every loss pattern; test_pass_limits refuses simulate at
        # cutoff 65 before it allocates
        assert oracle._pass_bytes(64, True) == 2**30
        assert oracle._pass_bytes(65, True) > 2**30


_VACUUM_SQUEEZED = build_config(alpha=0.8, theta_alpha=0.7, g1=0.25, theta1=1.1, transmissivity=0.3)


class TestVacuumSqueezer:
    # slots a and b enter the first squeezer in vacuum, so the prefix builds
    # its output from the closed form of the two-mode squeezed vacuum; the
    # full gate applied to the three-mode input is the reference
    @pytest.mark.parametrize("cutoff", [6, 7, 8, 15])
    def test_vacuum_matches_wide_gate(self, cutoff):
        # the gate at three times the cutoff, restricted to the box and
        # renormalized (measured <= 2.3e-16); the gate at the cutoff itself
        # parks extra weight on its top levels (7.6e-6 at cutoff 7)
        cfg = _VACUUM_SQUEEZED
        wide = apply_two_mode_squeezer(
            prepare_input(cfg, 3 * cutoff, 1e-2), cfg.nbs1.gain, cfg.nbs1.phase, MODE_A, MODE_B
        )
        ref = wide.amplitudes[:cutoff, :cutoff, :cutoff]
        pump = coherent_product_state([cfg.coherent.amplitude], cutoff, 1e-2)
        squeezed = oracle._squeeze_vacuum(pump, cfg.nbs1.gain, cfg.nbs1.phase)
        assert np.max(np.abs(squeezed.amplitudes - ref / np.linalg.norm(ref))) <= 1e-15

    @pytest.mark.parametrize("cutoff", [30])
    def test_prefix_matches_full_gate(self, cutoff):
        # at cutoff 30 the gate path, prepare_input and the two gates, holds
        # no weight near its top levels and meets the entry's prefix
        cfg = _VACUUM_SQUEEZED
        ref = apply_two_mode_squeezer(
            prepare_input(cfg, cutoff, 1e-2), cfg.nbs1.gain, cfg.nbs1.phase, MODE_A, MODE_B
        )
        pump = coherent_product_state([cfg.coherent.amplitude], cutoff, 1e-2)
        squeezed = oracle._squeeze_vacuum(pump, cfg.nbs1.gain, cfg.nbs1.phase)
        assert np.max(np.abs(squeezed.amplitudes - ref.amplitudes)) <= 1e-15
        ref = apply_beam_splitter(ref, cfg.splitter.transmissivity, MODE_B, MODE_C)
        oracle._PREFIXES.clear()
        state = oracle._entering_kerr(cfg, cutoff, 1e-2)
        assert np.max(np.abs(state.amplitudes - ref.amplitudes)) <= 1e-15

    def test_over_large_gain_trips_nbs1(self):
        oracle._PREFIXES.clear()
        with pytest.raises(TruncationError) as exc:
            simulate(_NBS1_TRIP, cutoff=10, budget=1e-6)
        assert str(exc.value) == (
            "nbs1: top-Fock-level occupancy 9.775e-04 exceeds truncation "
            "budget 1.000e-06; increase the cutoff"
        )

    def test_norm_drift_is_checked(self, monkeypatch):
        # squeezer eigenvectors scaled by 1 + 1e-7 scale the readout
        # squeezer's output norm by about 1 + 4e-7, far above the drift
        # guard and far below the top-level budget; the corrupt gates are
        # dropped from the caches when the test ends
        basis = oracle._generator_eigenbasis

        def scaled(kind, cutoff):
            w, v, pairs = basis(kind, cutoff)
            return w, v * (1 + 1e-7) if kind == "squeezer" else v, pairs

        gates = (oracle._squeezer_unitary, oracle._beam_splitter_unitary)
        monkeypatch.setattr(oracle, "_generator_eigenbasis", scaled)
        for cache in gates:
            cache.cache_clear()
        try:
            with pytest.raises(TruncationError, match=r"^nbs2: norm/trace drifted by 4\.\d+e-07$"):
                simulate(CANON, cutoff=12, budget=1e-6)
        finally:
            for cache in gates:
                cache.cache_clear()

    def test_nan_inside_a_pass_is_checked(self, monkeypatch):
        # one NaN entry in the squeezer eigenvectors makes a NaN readout
        # squeezer; its output's norm is NaN, which the drift guard refuses
        # where a plain "drift > guard" let the NaN state through
        basis = oracle._generator_eigenbasis

        def corrupted(kind, cutoff):
            w, v, pairs = basis(kind, cutoff)
            if kind == "squeezer":
                v = v.copy()
                v[0, 0, 0] = np.nan
            return w, v, pairs

        gates = (oracle._squeezer_unitary, oracle._beam_splitter_unitary)
        monkeypatch.setattr(oracle, "_generator_eigenbasis", corrupted)
        for cache in gates:
            cache.cache_clear()
        try:
            for run in (simulate, numeric_slope):
                with pytest.raises(TruncationError, match=r"^nbs2: norm/trace drifted by nan$"):
                    run(CANON, cutoff=12, budget=1e-6)
        finally:
            for cache in gates:
                cache.cache_clear()

    def test_prefix_builds_no_squeezer_eigenbasis(self, monkeypatch):
        # the vacuum squeezer reads no eigenbasis, so a cold lossy slope and
        # a cold QFI diagonalize the splitter generator (bs1) alone: one
        # eigendecomposition each
        basis = oracle._generator_eigenbasis
        kinds = _calls(monkeypatch, "_generator_eigenbasis")
        for run, cfg in ((numeric_slope, _LOSSY_PHI), (oracle_qfi, CANON)):
            for cache in (basis, *_CACHES):
                cache.cache_clear()
            oracle._PREFIXES.clear()
            run(cfg, cutoff=9, budget=1e-2)
            assert basis.cache_info().misses == 1
        assert {args[0] for args in kinds} == {"splitter"}


_LOSSY_PHI = build_config(
    alpha=0.8, g1=0.25, g2=0.5, transmissivity=0.25, phi_n=0.05,
    eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6, eta_det=0.85,
)


def _kerr_tangent(cfg, cutoff, budget):
    """The Kerr output psi of the pass's own prefix and its phi_n-tangent
    dpsi = i n_b^2 psi."""
    psi = _kerr_output(cfg, cutoff, budget).amplitudes
    return psi, 1j * (np.arange(cutoff) ** 2)[None, :, None] * psi


def _density_tangent_slope(cfg, cutoff, budget):
    """Tr(Y_a d rho), with the phi_n-tangent d rho = |dpsi><psi| + |psi><dpsi|
    of the Kerr output pushed as a density through every later stage,
    losses included."""
    loss = cfg.loss
    psi, dpsi = _kerr_tangent(cfg, cutoff, budget)
    drho = DensityOperator(
        tensor=np.multiply.outer(dpsi, psi.conj()) + np.multiply.outer(psi, dpsi.conj()),
        cutoff=cutoff,
    )
    drho = apply_loss(apply_loss(drho, loss.eta_d, MODE_B), loss.eta_c, MODE_C)
    drho = apply_beam_splitter(drho, cfg.splitter.transmissivity, MODE_B, MODE_C)
    drho = apply_loss(apply_loss(drho, loss.eta_a, MODE_A), loss.eta_b, MODE_B)
    drho = apply_two_mode_squeezer(drho, cfg.nbs2.gain, cfg.nbs2.phase, MODE_A, MODE_B)
    drho = apply_loss(drho, loss.eta_det, MODE_A)
    a, ad = _ladder(cutoff)
    return float(np.trace(-1j * (a - ad) @ reduced_density(drho, MODE_A)).real)


def _padded_tangent_slope(cfg, cutoff, budget, readout_cutoff):
    """Tr(Y_a d rho) for the tangent of the Kerr output at ``cutoff``, with
    no further truncation up to nbs2: padded to 2 cutoff - 1 levels, every
    (b, c) photon-number block the second splitter meets is whole, so the
    Kraus branches of the b and c losses and that splitter are exact; mode c
    is traced there and the two-mode (a, b) tangent is padded to
    ``readout_cutoff`` for the last losses and nbs2."""
    loss = cfg.loss
    p, q = 2 * cutoff - 1, readout_cutoff
    stacks = []
    for amps in _kerr_tangent(cfg, cutoff, budget):
        padded = np.pad(amps, [(0, p - cutoff)] * 3)
        state = FockState(_two_axis_branches(padded, loss.eta_d, loss.eta_c), p)
        state = apply_beam_splitter(state, cfg.splitter.transmissivity, MODE_B, MODE_C)
        stacks.append(state.amplitudes.reshape(p * p, -1))
    psi, dpsi = stacks
    half = dpsi @ psi.conj().T
    drho = DensityOperator(
        tensor=np.pad((half + half.conj().T).reshape((p,) * 4), [(0, q - p)] * 4), cutoff=q
    )
    drho = apply_loss(apply_loss(drho, loss.eta_a, MODE_A), loss.eta_b, MODE_B)
    drho = apply_two_mode_squeezer(drho, cfg.nbs2.gain, cfg.nbs2.phase, MODE_A, MODE_B)
    drho = apply_loss(drho, loss.eta_det, MODE_A)
    a, ad = _ladder(q)
    return float(np.trace(-1j * (a - ad) @ reduced_density(drho, MODE_A)).real)


def _fock_tangent_slope(cfg, cutoff, budget):
    """2 Re<dpsi|Y_a psi> at the readout, with the lossless Kerr output and
    its phi_n-tangent pushed through bs2 and nbs2 at the same cutoff."""
    readout = []
    for amps in _kerr_tangent(cfg, cutoff, budget):
        state = apply_beam_splitter(FockState(amps, cutoff), cfg.splitter.transmissivity, MODE_B, MODE_C)
        state = apply_two_mode_squeezer(state, cfg.nbs2.gain, cfg.nbs2.phase, MODE_A, MODE_B)
        readout.append(state.amplitudes)
    psi, dpsi = readout
    a, ad = _ladder(cutoff)
    return 2.0 * np.vdot(dpsi, np.tensordot(-1j * (a - ad), psi, axes=(1, 0))).real


class TestNumericSlope:
    @pytest.mark.parametrize(
        "cfg, cutoff, budget",
        [(CANON, 15, 1e-8), (_FIVE_LOSSES, 14, 1e-5)],
        ids=["lossless", "five-losses"],
    )
    def test_state_is_simulate_result(self, cfg, cutoff, budget):
        # the mean and variance numeric_slope reads are those of simulate's
        # state: lossless, its pass ends on that very state; lossy, it reads
        # the moments of the post-Kerr state, 8.2e-16 from the density's
        # variance here
        est = numeric_slope(cfg, cutoff=cutoff, budget=budget)
        ref = simulate(cfg, cutoff=cutoff, budget=budget)
        if isinstance(ref, FockState):
            state = oracle._readout_pair(cfg, cutoff, budget, oracle._readout_pullback(cfg)[0])[0]
            assert np.array_equal(state.amplitudes, ref.amplitudes)
        mean, variance = quadrature_stats(ref, MODE_A)
        assert est.mean == pytest.approx(mean, rel=1e-13, abs=1e-15)
        assert est.variance == pytest.approx(variance, rel=1e-13)
        assert est.value != 0.0

    def test_matches_closed_form(self):
        est = numeric_slope(CANON, cutoff=15)
        assert abs(est.value) == pytest.approx(
            analytic.slope_at_zero(CANON), rel=1e-6
        )
        assert abs(est.value) == pytest.approx(1.34580, abs=2e-5)

    def test_exact_at_cutoff_30(self):
        est = numeric_slope(CANON, cutoff=30)
        assert abs(est.value) == pytest.approx(
            analytic.slope_at_zero(CANON), rel=1e-12
        )

    @pytest.mark.parametrize(
        "cfg, cutoff, budget",
        [
            (CANON, 12, 1e-6),
            (_LOSSY_PHI, 8, 5e-4),
        ],
        ids=["pure", "lossy"],
    )
    def test_matches_central_difference(self, cfg, cutoff, budget):
        delta = 1e-4
        base = cfg.phase.nonlinear

        def mean_y(phi):
            shifted = dataclasses.replace(
                cfg, phase=dataclasses.replace(cfg.phase, nonlinear=phi)
            )
            return numeric_slope(shifted, cutoff=cutoff, budget=budget).mean

        central = (mean_y(base + delta) - mean_y(base - delta)) / (2 * delta)
        est = numeric_slope(cfg, cutoff=cutoff, budget=budget)
        assert est.value == pytest.approx(central, rel=1e-6)

    @pytest.mark.parametrize(
        "cfg, cutoff, budget, stage",
        [
            (CANON, 8, 1e-8, "prepare"),
            (_BS1_TRIP, 10, 1e-6, "bs1"),
            (_BS2_TRIP, 10, 1e-6, "bs2"),
            (_NBS2_TRIP, 15, 1e-6, "nbs2"),
            # lossy: bs2 reads the Kraus branch stack and nbs2 the two-mode
            # density rho_ab; the last case parks more on b than on a, the
            # one before on a
            (_with_losses(_BS2_TRIP, eta_c=0.99, eta_d=0.99), 10, 1e-6, "bs2"),
            (_with_losses(_NBS2_TRIP, eta_a=0.95, eta_b=0.9, eta_c=0.9, eta_d=0.9), 12, 1e-6, "nbs2"),
            (_with_losses(_NBS2_TRIP, eta_a=0.5, eta_b=0.99, eta_c=0.9, eta_d=0.9), 12, 1e-6, "nbs2"),
        ],
    )
    def test_truncation_names_same_stage_as_simulate(self, cfg, cutoff, budget, stage):
        with pytest.raises(TruncationError, match=stage) as sim:
            simulate(cfg, cutoff=cutoff, budget=budget)
        if not cfg.loss.is_lossless() and stage in ("bs2", "nbs2"):
            # a lossy slope stops at the Kerr stage, so it has no such stage
            assert math.isfinite(numeric_slope(cfg, cutoff=cutoff, budget=budget).value)
            return
        with pytest.raises(TruncationError) as slope:
            numeric_slope(cfg, cutoff=cutoff, budget=budget)
        assert str(slope.value) == str(sim.value)

    def test_lossy_moments_match_density_path(self):
        # five losses: the post-Kerr moments against simulate's density at
        # cutoff 16 (measured 1.4e-15 on the mean, 1.2e-14 on the
        # variance), and the slope against the density tangent, which
        # converges more slowly, at cutoff 12 (1.8e-9)
        est = numeric_slope(_LOSSY_PHI, cutoff=16, budget=1e-5)
        mean, variance = quadrature_stats(simulate(_LOSSY_PHI, cutoff=16, budget=1e-5), MODE_A)
        assert est.mean == pytest.approx(mean, abs=1e-13)
        assert est.variance == pytest.approx(variance, rel=1e-12)
        assert est.value == pytest.approx(_density_tangent_slope(_LOSSY_PHI, 12, 1e-2), rel=1e-8)

    @pytest.mark.parametrize("cutoff, budget", [(6, 5e-2), (8, 5e-4)])
    def test_lossy_matches_density_tangent_reference(self, cutoff, budget):
        # the moment slope reads the Kerr output at this cutoff with nothing
        # truncated after it; so does the reference, whose only truncation
        # later on is nbs2 at 36 levels (measured 1e-16 from the slope,
        # 1.5e-12 at 24 levels)
        est = numeric_slope(_LOSSY_PHI, cutoff=cutoff, budget=budget)
        ref = _padded_tangent_slope(_LOSSY_PHI, cutoff, budget, readout_cutoff=36)
        assert est.value == pytest.approx(ref, rel=1e-12)

    def test_pullback_matches_fock_tail(self):
        # lossless with every phase nonzero: the readout pulled back to the
        # Kerr stage against the Fock pass through bs2 and nbs2, which
        # truncates there; the slope against the tangent pushed through the
        # same Fock tail (measured 3.7e-10 on the slope and 1.2e-11 on the
        # variance at cutoff 20, 0 on the slope against the tail at 40)
        cfg = build_config(
            alpha=0.8, theta_alpha=-0.4, g1=0.25, theta1=0.7, g2=0.4, theta2=2.1,
            transmissivity=0.3, phi_l=0.3, phi_n=0.05,
        )
        psi = _kerr_output(cfg, 20, 1e-6)
        mean, variance = oracle._moment_readout(psi.amplitudes, *oracle._readout_pullback(cfg))
        est = numeric_slope(cfg, cutoff=20, budget=1e-6)
        assert est.value == pytest.approx(_fock_tangent_slope(cfg, 20, 1e-6), rel=1e-9)
        assert mean == pytest.approx(est.mean, abs=1e-11)
        assert variance == pytest.approx(est.variance, rel=1e-10)
        assert est.value == pytest.approx(_fock_tangent_slope(cfg, 40, 1e-6), rel=1e-13)

    @pytest.mark.parametrize("cutoff", [2, 3, 8, 15])
    def test_kerr_slope_is_the_tangent_overlap(self, cutoff):
        # 2 Re<i n_b^2 psi | Y psi> = i<[Y, n_b^2]> on random states whose
        # top levels are filled, so the truncated commutator is exercised;
        # u_b = 0 leaves only modes a and c, which commute with n_b^2.  The
        # tangent sum cancels to 9e-5 of its terms at cutoff 15, where its
        # float64 value is off by 1.4e-13, so it is taken in long double
        # (measured 5.9e-15 from the overlap)
        rng = np.random.default_rng(cutoff)
        psi = rng.normal(size=(cutoff,) * 3) + 1j * rng.normal(size=(cutoff,) * 3)
        wide = psi.astype(np.clongdouble)
        dpsi = 1j * (np.arange(cutoff) ** 2)[None, :, None] * wide
        for u in [(0.3 - 0.7j, -0.45 + 0.2j, 0.6 + 0.1j), (0.3 - 0.7j, 0j, 0.6 + 0.1j)]:
            ref = float(2.0 * np.vdot(dpsi, oracle._apply_readout(wide, u)).real)
            if u[MODE_B]:
                assert oracle._kerr_slope(psi, u) == pytest.approx(ref, rel=1e-13)
            else:
                assert oracle._kerr_slope(psi, u) == 0.0

    def test_lossy_slope_at_paper_cutoff(self):
        # both internal losses at cutoff 60, and at 65, which simulate
        # refuses: the moment pass holds four (cutoff,)*3 tensors and
        # matches the closed forms (measured 5e-16)
        cfg = _with_losses(CANON, eta_c=0.9, eta_d=0.9)
        with pytest.raises(ValueError, match="at cutoff 65 needs"):
            simulate(cfg, cutoff=65)
        assert math.isfinite(numeric_slope(cfg, cutoff=65, budget=1e-6).value)
        numeric_slope(cfg, cutoff=60)
        tracemalloc.start()
        try:
            est = numeric_slope(cfg, cutoff=60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * oracle._pass_bytes(60, False)
        report = analytic.sensitivity(cfg)
        assert abs(est.value) == pytest.approx(report.slope, rel=1e-12)
        assert est.variance == pytest.approx(report.noise, rel=1e-12)

    def test_lossy_slope_reads_past_nbs2(self):
        # simulate refuses this lossy config at nbs2 (2.9e-5 on the top
        # level); the moment pass has no stage after the Kerr element and
        # matches the closed forms (measured 4.0e-11 and 1.8e-13)
        cfg = _with_losses(_NBS2_TRIP, eta_a=0.95, eta_b=0.9, eta_c=0.9, eta_d=0.9)
        with pytest.raises(TruncationError, match="^nbs2"):
            simulate(cfg, cutoff=15, budget=1e-6)
        est = numeric_slope(cfg, cutoff=15, budget=1e-6)
        report = analytic.sensitivity(cfg)
        assert abs(est.value) == pytest.approx(report.slope, rel=1e-9)
        assert est.variance == pytest.approx(report.noise, rel=1e-9)

    def test_moment_variance_uses_the_untruncated_commutator(self):
        # on the Fock state |c-1, 2, c-1>, Var(X + X^dag) is
        # sum_k |u_k|^2 (2 n_k + 1) in the full space; the truncated
        # quadrature lacks the cutoff |u_k|^2 on each top-filled mode
        c, n = 6, np.array([5, 2, 5])
        u = (0.3 - 0.4j, 0.5j, -0.2 + 0j)
        psi = np.zeros((c, c, c), dtype=complex)
        psi[tuple(n)] = 1.0
        mean, variance = oracle._moment_readout(psi, u, 0.25)
        weights = np.abs(u) ** 2
        assert mean == 0.0 and oracle._kerr_slope(psi, u) == 0.0
        assert variance == pytest.approx(weights @ (2 * n + 1) + 0.25, rel=1e-15)

    def test_lossy_peak_memory(self):
        # a warm lossy slope holds the Kerr output and the work tensors of
        # its readout, within the lossless account of four (cutoff,)*3
        # tensors
        numeric_slope(_LOSSY_PHI, cutoff=8, budget=5e-4)
        tracemalloc.start()
        try:
            numeric_slope(_LOSSY_PHI, cutoff=8, budget=5e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * oracle._pass_bytes(8, False)

    def test_lossy_cutoff_65_refused_before_allocation(self):
        # both internal losses: the four (65,)*4 tensors of simulate take
        # 4 * 16 * 65^4 B = 1.06 GiB; refused before even one pure state
        # (16 * 65^3 B) is built.  numeric_slope runs there
        # (test_lossy_slope_at_paper_cutoff)
        cfg = _with_losses(CANON, eta_c=0.9, eta_d=0.9)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cutoff 65"):
                simulate(cfg, cutoff=65)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 65**3

    @pytest.mark.parametrize(
        "etas, cutoff, budget",
        [
            ({}, 15, 1e-6),
            (dict(eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6, eta_det=0.85), 14, 1e-5),
        ],
        ids=["lossless", "five-losses"],
    )
    def test_generic_phases_match_closed_form(self, etas, cutoff, budget):
        # every phase off the {0, pi} grid verify and the benchmark use, so
        # the squeezers' diagonal phases e^{i theta n_a} act on both sides
        cfg = build_config(
            alpha=0.8, theta_alpha=-0.4, g1=0.25, theta1=0.7, g2=0.4, theta2=2.1,
            transmissivity=0.3, **etas,
        )
        est = numeric_slope(cfg, cutoff=cutoff, budget=budget)
        report = analytic.sensitivity(cfg)
        assert abs(est.value) == pytest.approx(report.slope, rel=1e-6)
        assert est.variance == pytest.approx(report.noise, rel=1e-6)

    def test_loss_on_mode_a_lowers_delta_phi_at_mismatched_readout(self):
        # delta_phi is not monotone in loss: away from g2 = 2 g1 the readout
        # leaves amplified idler noise on mode a, and loss there takes some
        # of it away; the Fock pass reads both points as the closed form does
        dphi = []
        for eta_a, printed in ((1.0, 7.3092), (0.5, 7.1237)):
            cfg = build_config(alpha=0.8, g1=0.3, g2=0.1, transmissivity=0.25, eta_a=eta_a)
            closed = analytic.sensitivity(cfg).delta_phi
            est = numeric_slope(cfg, cutoff=15, budget=1e-6)
            assert closed == pytest.approx(printed, abs=5e-5)
            assert math.sqrt(est.variance) / abs(est.value) == pytest.approx(closed, rel=1e-10)
            dphi.append(closed)
        assert dphi[1] < dphi[0]

    def test_zero_readout_gain_gives_zero(self):
        cfg = build_config(alpha=1.0, g1=0.3, g2=0.0, transmissivity=0.25)
        est = numeric_slope(cfg, cutoff=12, budget=1e-6)
        assert abs(est.value) < 1e-10

    def test_sign_flips_with_pump_phase(self):
        # rotating theta_alpha by pi flips cos(theta2 - theta_alpha) and with
        # it the slope sign, leaving the magnitude untouched
        flipped = build_config(
            alpha=1.0, theta_alpha=math.pi, g1=0.3, g2=0.6, transmissivity=0.25
        )
        a = numeric_slope(CANON, cutoff=12, budget=1e-6)
        b = numeric_slope(flipped, cutoff=12, budget=1e-6)
        assert b.value == pytest.approx(-a.value, rel=1e-9)


class TestOracleQfi:
    def test_vacuum_is_zero(self):
        cfg = build_config(alpha=0.0, g1=0.0)
        assert oracle_qfi(cfg, cutoff=8) == pytest.approx(0.0, abs=1e-12)

    def test_matches_polynomial(self):
        f = oracle_qfi(CANON, cutoff=15)
        poly = analytic.qfi_nonlinear(1.0, 0.18, CANON.splitter).f
        assert f == pytest.approx(poly, rel=1e-3)

    def test_full_transmission_keeps_arm_dark(self):
        cfg = build_config(alpha=1.0, g1=0.0, transmissivity=1.0)
        assert oracle_qfi(cfg, cutoff=12) == pytest.approx(0.0, abs=1e-10)

    def test_lossy_config_rejected(self):
        cfg = build_config(alpha=0.5, g1=0.2, eta_c=0.9)
        with pytest.raises(ValueError, match="lossless"):
            oracle_qfi(cfg, cutoff=8)


class TestLosslessMemoryCap:
    # at cutoff 15 a pure three-mode state takes 16 * 15^3 B = 54 KB and
    # the four branch tensors of a lossless run 216 KB; each cap sits below
    # one of them, so nothing near the cap is ever allocated
    BELOW_STATE_GIB = 4e-5
    BELOW_BRANCHES_GIB = 1e-4

    @pytest.mark.parametrize("run", [simulate, numeric_slope, oracle_qfi])
    def test_run_refused_below_state_size(self, run, monkeypatch):
        run(CANON, cutoff=15)  # a warm prefix must not skip the lowered cap
        monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", self.BELOW_STATE_GIB)
        with pytest.raises(ValueError, match=r"at cutoff 15 needs .* GiB, above the 4e-05 GiB cap"):
            run(CANON, cutoff=15)

    def test_pure_state_refused_before_allocation(self, monkeypatch):
        monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", self.BELOW_STATE_GIB)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="a pure state at cutoff 15 needs"):
                coherent_product_state([0.0, 0.0, 1.0], 15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 15**3

    @pytest.mark.parametrize("run", [simulate, numeric_slope])
    def test_branch_tensors_capped_without_loss(self, run, monkeypatch):
        monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", self.BELOW_BRANCHES_GIB)
        with pytest.raises(ValueError) as exc:
            run(CANON, cutoff=15)
        assert str(exc.value).startswith("a lossless pass at cutoff 15 needs")
        # the pure state alone would fit, but oracle_qfi enters by the same
        # door and is sized like a lossless pass
        with pytest.raises(ValueError, match="^a lossless pass at cutoff 15 needs"):
            oracle_qfi(CANON, cutoff=15)


# At budget 1e-6 the pump of alpha = 3 needs more than 5 levels (prepare
# refuses it); a budget that turned the checks off would pass it.
_ALPHA3 = build_config(alpha=3.0, g1=0.3, g2=0.6, transmissivity=0.25)


class TestEntry:
    # _entering_kerr is the one way into the Fock pass: every reader
    # refuses a budget or cutoff it cannot honour before it builds anything
    @pytest.mark.parametrize("run", [simulate, numeric_slope, oracle_qfi])
    @pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1e-6, 2.0])
    def test_budget_outside_unit_interval_refused(self, monkeypatch, run, budget):
        builds = _calls(monkeypatch, "coherent_product_state")
        with pytest.raises(ValueError, match=r"^truncation budget must lie in \(0, 1\]"):
            run(_ALPHA3, cutoff=5, budget=budget)
        assert builds == []
        with pytest.raises(TruncationError, match="^prepare"):
            run(_ALPHA3, cutoff=5, budget=1e-6)

    @pytest.mark.parametrize("run", [simulate, numeric_slope, oracle_qfi])
    @pytest.mark.parametrize("cutoff", [1, 3.5])
    def test_cutoff_not_an_integer_above_one_refused(self, monkeypatch, run, cutoff):
        builds = _calls(monkeypatch, "coherent_product_state")
        with pytest.raises(ValueError, match=r"^cutoff must be an integer >= 2"):
            run(CANON, cutoff=cutoff, budget=1e-2)
        assert builds == []

    @pytest.mark.parametrize("run", [simulate, numeric_slope, oracle_qfi])
    @pytest.mark.parametrize(
        "field, arg",
        [("coherent.magnitude", "alpha"), ("nbs1.gain", "g1"), ("loss.eta_a", "eta_a")],
    )
    def test_array_field_refused_by_name(self, monkeypatch, run, field, arg):
        # build_config takes arrays, but a Fock pass runs one configuration;
        # the refusal names the field before any arithmetic, numeric_slope's
        # readout pullback included, reads it
        pullbacks = _calls(monkeypatch, "_readout_pullback")
        cfg = build_config(**{"alpha": 1.0, "g1": 0.3, "g2": 0.6, arg: np.array([0.5, 0.9])})
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} is an array of shape \(2,\)"):
            run(cfg, cutoff=8)
        assert pullbacks == []

    @pytest.mark.parametrize(
        "cutoff, budget, match",
        [(5, math.nan, r"^truncation budget must lie in \(0, 1\]"),
         (5, 2.0, r"^truncation budget must lie in \(0, 1\]"),
         (4.0, 1e-2, r"^cutoff must be an integer >= 2"),
         (1, 1e-2, r"^cutoff must be an integer >= 2")],
    )
    def test_state_builders_share_the_entry_rule(self, cutoff, budget, match):
        # a NaN budget turned the clipped-weight check off, and a float
        # cutoff reached numpy's TypeError
        with pytest.raises(ValueError, match=match):
            coherent_product_state([0.0, 3.0], cutoff, budget)
        with pytest.raises(ValueError, match=match):
            prepare_input(_ALPHA3, cutoff, budget)


class TestReducedDensity:
    def test_pure_and_density_paths_agree(self):
        state = simulate(CANON, cutoff=12, budget=1e-6)
        rho = to_density(state)
        for mode in range(3):
            np.testing.assert_allclose(
                reduced_density(state, mode),
                reduced_density(rho, mode),
                atol=1e-12,
            )

    def test_populations_are_reduced_diagonal(self):
        state = simulate(CANON, cutoff=10, budget=1e-4)
        for s in (state, to_density(state)):
            for mode in range(3):
                np.testing.assert_allclose(
                    mode_populations(s, mode),
                    np.diag(reduced_density(s, mode)).real,
                    rtol=0, atol=1e-15,
                )

    def test_populations_sum_to_one(self):
        state = simulate(CANON, cutoff=12, budget=1e-6)
        for mode in range(3):
            assert mode_populations(state, mode).sum() == pytest.approx(
                1.0, abs=1e-10
            )


class TestTwoModeDensity:
    # a lossy simulate ends on the two-mode (a, b) density; folding mode c
    # into the branch axis traces it out
    LOSSY = build_config(
        alpha=0.8, g1=0.25, g2=0.5, transmissivity=0.25,
        eta_a=0.9, eta_b=0.8, eta_c=0.7, eta_d=0.6,
    )

    def test_helpers_match_three_mode_reference(self):
        rho = simulate(self.LOSSY, cutoff=8, budget=5e-4)
        branches, _ = _after_bs2(self.LOSSY, 8, 5e-4)
        folded = FockState(branches.amplitudes.reshape(8, 8, -1), 8, modes=2)
        # the reference: the three-mode density with no loss or gate after bs2
        ref = to_density(branches)
        plain = to_density(folded)
        assert (rho.modes, plain.modes, ref.modes) == (2, 2, 3)
        assert plain.trace == pytest.approx(ref.trace, abs=1e-14)
        assert plain.matrix().shape == (64, 64)
        for mode in (MODE_A, MODE_B):
            np.testing.assert_allclose(
                mode_populations(plain, mode), mode_populations(ref, mode), rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(
                reduced_density(plain, mode), reduced_density(ref, mode), rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(
                reduced_density(folded, mode), reduced_density(ref, mode), rtol=0, atol=1e-15
            )
        traced = np.einsum("abcdec->abde", ref.tensor).reshape(64, 64)
        assert plain.min_eigenvalue() == pytest.approx(np.linalg.eigvalsh(traced)[0], abs=1e-15)
        assert rho.trace == pytest.approx(1.0, abs=1e-10)
        assert rho.hermiticity_defect() < 1e-15
        assert rho.min_eigenvalue() > -1e-15

    def test_folded_stack_is_not_a_three_mode_state(self):
        # a (c, c, c) tensor entangled across (b, c): folding c leaves
        # vacuum on a and (up to truncation) a thermal state of mean g^2 on b
        g = 0.3
        state = apply_two_mode_squeezer(vacuum(8), math.hypot(1.0, g), 0.0, MODE_B, MODE_C)
        pure = to_density(state)
        rho = to_density(FockState(state.amplitudes, 8, modes=2))
        assert pure.tensor.shape == (8,) * 6 and rho.tensor.shape == (8,) * 4
        assert pure.min_eigenvalue() == pytest.approx(0.0, abs=1e-12)
        assert rho.min_eigenvalue() == pytest.approx(0.0, abs=1e-12)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        n = np.arange(8)
        thermal = g ** (2 * n) / (1 + g * g) ** (n + 1)
        np.testing.assert_allclose(mode_populations(rho, MODE_B), thermal, rtol=0, atol=1e-8)
        np.testing.assert_allclose(
            reduced_density(rho, MODE_B), np.diag(thermal), rtol=0, atol=1e-8
        )
        assert mode_populations(rho, MODE_A)[0] == pytest.approx(1.0, abs=1e-12)
        # rho_ab is mixed with the thermal state's purity; the three-mode state is pure
        purity = np.trace(rho.matrix() @ rho.matrix()).real
        assert purity == pytest.approx(np.sum(thermal**2), abs=1e-8)
        assert np.trace(pure.matrix() @ pure.matrix()).real == pytest.approx(1.0, abs=1e-12)
