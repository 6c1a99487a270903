"""Brute-force verification engine in a truncated three-mode Fock space.

Slots are fixed: a = 0 (readout / correlation partner), b = 1 (carries the
sensing arm between the two linear splitters), c = 2 (pump input).  Pure
states are kept as a (C, C, C) amplitude tensor; once any loss channel is
applied the state is promoted to a density operator stored as a
(C,)*6 tensor with ket axes 0..2 and bra axes 3..5.

Unitaries are built by exponentiating the generator restricted to the
truncated space.  A principal submatrix of an anti-Hermitian generator is
again anti-Hermitian, so these truncated gates are exactly unitary and the
truncation error shows up as population parked near the cutoff, not as
norm loss; the occupancy of the top Fock level is therefore the leakage
monitor, with a norm/trace drift guard for numerical accidents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import InterferometerConfig

MODE_A, MODE_B, MODE_C = 0, 1, 2
_NORM_DRIFT_GUARD = 1e-9
# Entries per gate and loss cache: simulate uses two squeezers, one splitter
# and up to five loss channels, so numeric_slope never rebuilds a gate.
_CACHE_SIZE = 5


class TruncationError(RuntimeError):
    """Truncation budget exceeded; the message names the pipeline stage."""


class ConvergenceError(RuntimeError):
    """A numerical estimate failed its internal consistency check."""


@dataclass
class FockState:
    """Pure three-mode state; ``amplitudes`` has shape (cutoff,)*3."""

    amplitudes: np.ndarray
    cutoff: int

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass
class DensityOperator:
    """Mixed three-mode state; ``tensor`` has shape (cutoff,)*6."""

    tensor: np.ndarray
    cutoff: int

    @property
    def trace(self) -> float:
        return float(np.einsum("abcabc->", self.tensor).real)

    def matrix(self) -> np.ndarray:
        d = self.cutoff**3
        return self.tensor.reshape(d, d)

    def hermiticity_defect(self) -> float:
        m = self.matrix()
        return float(np.max(np.abs(m - m.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix())[0])


def to_density(state: FockState) -> DensityOperator:
    psi = state.amplitudes
    tensor = np.multiply.outer(psi, psi.conj())
    return DensityOperator(tensor=tensor, cutoff=state.cutoff)


# --- single-mode building blocks -------------------------------------------


@lru_cache(maxsize=None)
def _annihilator(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        a[n - 1, n] = math.sqrt(n)
    return a


@lru_cache(maxsize=None)
def _quadrature_y(cutoff: int) -> np.ndarray:
    a = _annihilator(cutoff)
    return -1j * (a - a.conj().T)


def _expm_conserving(h: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """exp(-i h) for a Hermitian h that commutes with diag(labels): one
    eigendecomposition per block of equal labels."""
    out = np.zeros(h.shape, dtype=complex)
    for label in np.unique(labels):
        idx = np.ix_(labels == label, labels == label)
        w, v = np.linalg.eigh(h[idx])
        out[idx] = (v * np.exp(-1j * w)) @ v.conj().T
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def _squeezer_unitary(gain: float, theta: float, cutoff: int) -> np.ndarray:
    """exp(xi adag bdag - xi* a b) with xi = arccosh(G) e^{i theta}, on the
    (cutoff^2, cutoff^2) two-mode space; conserves n_a - n_b."""
    a = _annihilator(cutoff)
    ad = a.conj().T
    xi = math.acosh(gain) * cmath.exp(1j * theta)
    gen = xi * np.kron(ad, ad) - np.conjugate(xi) * np.kron(a, a)
    n = np.arange(cutoff)
    return _expm_conserving(1j * gen, np.subtract.outer(n, n).ravel())


@lru_cache(maxsize=_CACHE_SIZE)
def _beam_splitter_unitary(transmissivity: float, cutoff: int) -> np.ndarray:
    """Unitary sending (b, c) to (sqrt(T) b + sqrt(R) c, sqrt(R) b - sqrt(T) c):
    a mode rotation by arccos(sqrt(T)) followed by a pi phase on the second
    mode.  The zero-phase double pass of the interferometer composes to the
    identity with this sign choice.  Conserves n_b + n_c."""
    a = _annihilator(cutoff)
    ad = a.conj().T
    angle = math.acos(min(1.0, max(0.0, math.sqrt(transmissivity))))
    gen = angle * (np.kron(ad, a) - np.kron(a, ad))
    n = np.arange(cutoff)
    rot = _expm_conserving(1j * gen, np.add.outer(n, n).ravel())
    return np.tile((-1.0) ** n, cutoff)[:, None] * rot


def loss_kraus_operators(eta: float, cutoff: int):
    """Photon-loss Kraus family: K_k maps |n> to |n-k> with amplitude
    sqrt(C(n,k) eta^{n-k} (1-eta)^k)."""
    ops = []
    for k in range(cutoff):
        mat = np.zeros((cutoff, cutoff), dtype=complex)
        for n in range(k, cutoff):
            mat[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
        ops.append(mat)
    return tuple(ops)


@lru_cache(maxsize=_CACHE_SIZE)
def _loss_superoperator(eta: float, cutoff: int) -> np.ndarray:
    """(cutoff^2, cutoff^2) matrix sum_k K_k (x) conj(K_k) acting on the
    flattened (ket, bra) index pair of one mode."""
    return sum(np.kron(k, k.conj()) for k in loss_kraus_operators(eta, cutoff))


def kraus_completeness_defect(eta: float, cutoff: int) -> float:
    """Max-norm distance of sum K^dag K from the identity on the retained
    subspace (any deviation quantifies truncation of the Kraus family)."""
    total = sum(k.conj().T @ k for k in loss_kraus_operators(eta, cutoff))
    return float(np.max(np.abs(total - np.eye(cutoff))))


# --- tensor application helpers ---------------------------------------------


def _apply_on_axes(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """Contract a (C^k, C^k) matrix with the given k tensor axes."""
    k = len(axes)
    c = tensor.shape[axes[0]]
    rest = [ax for ax in range(tensor.ndim) if ax not in axes]
    perm = list(axes) + rest
    work = np.transpose(tensor, perm).reshape(c**k, -1)
    work = mat @ work
    work = work.reshape((c,) * k + tuple(tensor.shape[ax] for ax in rest))
    return np.transpose(work, np.argsort(perm))


def _apply_unitary(state, mat: np.ndarray, modes):
    if isinstance(state, FockState):
        amps = _apply_on_axes(state.amplitudes, mat, modes)
        return FockState(amplitudes=amps, cutoff=state.cutoff)
    ket_axes = tuple(modes)
    bra_axes = tuple(m + 3 for m in modes)
    tensor = _apply_on_axes(state.tensor, mat, ket_axes)
    tensor = _apply_on_axes(tensor, mat.conj(), bra_axes)
    return DensityOperator(tensor=tensor, cutoff=state.cutoff)


def mode_populations(state, mode: int) -> np.ndarray:
    """Photon-number distribution of one mode (diagonal of its reduced
    state)."""
    return np.real(np.diag(reduced_density(state, mode)))


def reduced_density(state, mode: int) -> np.ndarray:
    """(C, C) reduced density matrix of one mode."""
    if isinstance(state, FockState):
        psi = state.amplitudes
        if mode == 0:
            return np.einsum("ijk,ljk->il", psi, psi.conj())
        if mode == 1:
            return np.einsum("ijk,ilk->jl", psi, psi.conj())
        return np.einsum("ijk,ijl->kl", psi, psi.conj())
    rho = state.tensor
    if mode == 0:
        return np.einsum("abcdbc->ad", rho)
    if mode == 1:
        return np.einsum("abcaec->be", rho)
    return np.einsum("abcabf->cf", rho)


def mean_photon(state, mode: int) -> float:
    pops = mode_populations(state, mode)
    return float(np.dot(pops, np.arange(len(pops))))


def mean_amplitude(state, mode: int) -> complex:
    """<a_mode> of the state."""
    rho = reduced_density(state, mode)
    a = _annihilator(rho.shape[0])
    return complex(np.trace(rho @ a))


def quadrature_stats(state, mode: int):
    """Mean and variance of Y = -i (a - adag) on one mode; the vacuum
    variance is 1 in this convention."""
    rho = reduced_density(state, mode)
    y = _quadrature_y(rho.shape[0])
    mean = float(np.trace(rho @ y).real)
    second = float(np.trace(rho @ y @ y).real)
    return mean, second - mean**2


def _total_weight(state) -> float:
    if isinstance(state, FockState):
        return state.norm_sq
    return state.trace


def _top_level_weight(state, mode: int) -> float:
    return float(mode_populations(state, mode)[-1])


def _check_stage(state, stage: str, budget: float, prev_weight: float) -> float:
    weight = _total_weight(state)
    if abs(weight - prev_weight) > _NORM_DRIFT_GUARD:
        raise TruncationError(
            f"{stage}: norm/trace drifted by {abs(weight - prev_weight):.3e}"
        )
    worst = max(_top_level_weight(state, m) for m in range(3))
    if worst > budget:
        raise TruncationError(
            f"{stage}: top-Fock-level occupancy {worst:.3e} exceeds "
            f"truncation budget {budget:.3e}; increase the cutoff"
        )
    return weight


# --- state preparation and gates --------------------------------------------


def coherent_product_state(amplitudes, cutoff: int, budget: float = 1e-8) -> FockState:
    """Product of coherent states, one complex amplitude per slot."""
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2 (got {cutoff})")
    vecs = []
    for alpha in amplitudes:
        mu = abs(alpha) ** 2
        tail = _poisson_tail(mu, cutoff)
        if tail > budget:
            raise TruncationError(
                f"prepare: coherent amplitude |alpha|={abs(alpha):.4g} needs "
                f"more than {cutoff} levels (clipped weight {tail:.3e} > "
                f"budget {budget:.3e})"
            )
        n = np.arange(cutoff)
        logfact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff)))))
        if alpha == 0:
            vec = np.zeros(cutoff, dtype=complex)
            vec[0] = 1.0
        else:
            vec = np.exp(
                -mu / 2.0 + n * np.log(complex(alpha)) - logfact / 2.0
            )
        vec = vec / np.linalg.norm(vec)
        vecs.append(vec)
    amps = np.einsum("i,j,k->ijk", *vecs)
    return FockState(amplitudes=amps, cutoff=cutoff)


def _poisson_tail(mu: float, cutoff: int) -> float:
    """Probability mass of a Poisson(mu) at or above the cutoff."""
    if mu == 0.0:
        return 0.0
    term = math.exp(-mu)
    acc = term
    for n in range(1, cutoff):
        term *= mu / n
        acc += term
    return max(0.0, 1.0 - acc)


def prepare_input(
    config: InterferometerConfig, cutoff: int, budget: float = 1e-8
) -> FockState:
    """Vacuum in slots a and b, the coherent pump in slot c."""
    alpha = config.coherent.amplitude
    return coherent_product_state([0.0, 0.0, alpha], cutoff, budget)


def apply_two_mode_squeezer(state, gain: float, theta: float, mode_i: int, mode_j: int):
    """Two-mode squeezer sending a -> G a + g e^{i theta} bdag on the pair
    (mode_i, mode_j)."""
    if gain < 1.0:
        raise ValueError(f"squeezer gain must be >= 1 (got {gain})")
    u = _squeezer_unitary(gain, theta, state.cutoff)
    return _apply_unitary(state, u, (mode_i, mode_j))


def apply_beam_splitter(state, transmissivity: float, mode_i: int, mode_j: int):
    """Beam splitter with outputs (sqrt(T) i + sqrt(R) j, sqrt(R) i - sqrt(T) j);
    photon-number conserving on the pair."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity outside [0,1] (got {transmissivity})")
    u = _beam_splitter_unitary(transmissivity, state.cutoff)
    return _apply_unitary(state, u, (mode_i, mode_j))


def apply_kerr(state, phi_l: float, phi_n: float, mode: int):
    """Diagonal phase e^{i(phi_l n + phi_n n^2)} on one mode; exactly norm
    preserving."""
    c = state.cutoff
    n = np.arange(c)
    phases = np.exp(1j * (phi_l * n + phi_n * n.astype(float) ** 2))
    if isinstance(state, FockState):
        shape = [1, 1, 1]
        shape[mode] = c
        return FockState(
            amplitudes=state.amplitudes * phases.reshape(shape), cutoff=c
        )
    ket = [1] * 6
    ket[mode] = c
    bra = [1] * 6
    bra[mode + 3] = c
    tensor = state.tensor * phases.reshape(ket) * phases.conj().reshape(bra)
    return DensityOperator(tensor=tensor, cutoff=c)


def apply_loss(rho: DensityOperator, eta: float, mode: int) -> DensityOperator:
    """Photon-loss channel of transmission eta on one mode of a density
    operator; trace preserving up to truncation, identity at eta = 1."""
    if not isinstance(rho, DensityOperator):
        raise TypeError("apply_loss acts on a DensityOperator; promote with to_density")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta outside [0,1] (got {eta})")
    if eta == 1.0:
        return rho
    superop = _loss_superoperator(eta, rho.cutoff)
    tensor = _apply_on_axes(rho.tensor, superop, (mode, mode + 3))
    return DensityOperator(tensor=tensor, cutoff=rho.cutoff)


# --- full pipeline -----------------------------------------------------------


def simulate(
    config: InterferometerConfig,
    phi_n: float | None = None,
    cutoff: int = 15,
    budget: float = 1e-8,
):
    """Run the full interferometer.

    Stage order: prepare, first squeezer on (a, b), first splitter on
    (b, c), Kerr phase on b, internal losses (eta_d on b, eta_c on c),
    second splitter on (b, c), external losses (eta_a on a, eta_b on b),
    readout squeezer on (a, b), detection loss (eta_det on a).  Lossless
    configurations stay on the pure-state fast path; the state is promoted
    to a density operator just before the first lossy element.

    phi_n overrides the configured nonlinear phase (the knob finite
    differences turn).  Raises TruncationError naming the stage whose
    top-level occupancy exceeds the budget.
    """
    loss = config.loss
    phases = config.phase
    nonlin = phases.nonlinear if phi_n is None else phi_n
    t = config.splitter.transmissivity

    state = prepare_input(config, cutoff, budget)
    weight = _total_weight(state)

    state = apply_two_mode_squeezer(
        state, config.nbs1.gain, config.nbs1.phase, MODE_A, MODE_B
    )
    weight = _check_stage(state, "nbs1", budget, weight)

    state = apply_beam_splitter(state, t, MODE_B, MODE_C)
    state = apply_kerr(state, phases.linear, nonlin, MODE_B)

    if loss.eta_d < 1.0 or loss.eta_c < 1.0:
        if isinstance(state, FockState):
            state = to_density(state)
        state = apply_loss(state, loss.eta_d, MODE_B)
        state = apply_loss(state, loss.eta_c, MODE_C)

    state = apply_beam_splitter(state, t, MODE_B, MODE_C)

    if loss.eta_a < 1.0 or loss.eta_b < 1.0:
        if isinstance(state, FockState):
            state = to_density(state)
        state = apply_loss(state, loss.eta_a, MODE_A)
        state = apply_loss(state, loss.eta_b, MODE_B)

    weight = _total_weight(state)
    state = apply_two_mode_squeezer(
        state, config.nbs2.gain, config.nbs2.phase, MODE_A, MODE_B
    )
    weight = _check_stage(state, "nbs2", budget, weight)

    if loss.eta_det < 1.0:
        if isinstance(state, FockState):
            state = to_density(state)
        state = apply_loss(state, loss.eta_det, MODE_A)

    return state


class SlopeEstimate(NamedTuple):
    value: float
    error: float


def numeric_slope(
    config: InterferometerConfig,
    delta: float = 1e-4,
    cutoff: int = 15,
    budget: float = 1e-8,
    rel_tol: float = 1e-3,
    abs_tol: float = 1e-8,
) -> SlopeEstimate:
    """Central-difference slope of <Y_a> with respect to the nonlinear
    phase around its configured value.

    Evaluated at steps delta and delta/2; the discrepancy /3 is the
    reported discretization error (the leading error is O(delta^2)).
    Raises ConvergenceError when the two estimates disagree beyond
    rel_tol/abs_tol.
    """

    def mean_y(phi: float) -> float:
        state = simulate(config, phi_n=phi, cutoff=cutoff, budget=budget)
        return quadrature_stats(state, MODE_A)[0]

    base = config.phase.nonlinear

    def central(step: float) -> float:
        return (mean_y(base + step) - mean_y(base - step)) / (2.0 * step)

    coarse = central(delta)
    fine = central(delta / 2.0)
    err = abs(fine - coarse) / 3.0
    if err > max(rel_tol * abs(fine), abs_tol):
        raise ConvergenceError(
            f"finite-difference slope not converged: delta={delta} gives "
            f"{coarse}, delta/2 gives {fine} (error estimate {err:.3e})"
        )
    return SlopeEstimate(value=fine, error=err)


def oracle_qfi(
    config: InterferometerConfig, cutoff: int = 15, budget: float = 1e-8
) -> float:
    """Fisher information 4 (<n^4> - <n^2>^2) of the sensing-arm photon
    number, taken on the state entering the Kerr element.

    Only defined here for lossless configurations (the pure-state
    variance form); lossy configurations are rejected.
    """
    if not config.loss.is_lossless():
        raise ValueError(
            "oracle_qfi supports lossless configurations only "
            "(mixed-state Fisher information is out of scope)"
        )
    state = prepare_input(config, cutoff, budget)
    state = apply_two_mode_squeezer(
        state, config.nbs1.gain, config.nbs1.phase, MODE_A, MODE_B
    )
    _check_stage(state, "nbs1", budget, 1.0)
    state = apply_beam_splitter(
        state, config.splitter.transmissivity, MODE_B, MODE_C
    )
    pops = mode_populations(state, MODE_B)
    n = np.arange(state.cutoff, dtype=float)
    m2 = float(np.dot(pops, n**2))
    m4 = float(np.dot(pops, n**4))
    return 4.0 * (m4 - m2 * m2)
