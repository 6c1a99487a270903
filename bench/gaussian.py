"""Gaussian covariance-matrix reference for the readout variance at phi = 0.

At the operating point the Kerr element is the identity, so every stage of
the interferometer (two-mode squeezers, beam splitters, photon loss) is a
Gaussian channel and the readout variance follows from propagating the
3-mode covariance matrix.  The coherent pump only displaces the state and
does not enter the variance.  This is independent of both the closed forms
in ``kerrmzi.analytic`` and the truncated-Fock engine in ``kerrmzi.oracle``,
and it has no truncation, so it holds at paper scale (pump amplitude 10).

Conventions match ``kerrmzi``: X = a + a^dag, Y = -i (a - a^dag), vacuum
variance 1; slots a = 0, b = 1, c = 2; quadrature order
(x_a, x_b, x_c, y_a, y_b, y_c).
"""

from __future__ import annotations

import math

import numpy as np

N_MODES = 3
MODE_A, MODE_B, MODE_C = 0, 1, 2

_EYE = np.eye(N_MODES)
# (x; y) = OMEGA (a; a^dag)
_OMEGA = np.block([[_EYE, _EYE], [-1j * _EYE, 1j * _EYE]])
_OMEGA_INV = np.linalg.inv(_OMEGA)


def vacuum() -> np.ndarray:
    return np.eye(2 * N_MODES)


def _bogoliubov(cov: np.ndarray, a_mat: np.ndarray, b_mat: np.ndarray) -> np.ndarray:
    """Apply the gate whose Heisenberg action is a -> A a + B a^dag."""
    t = np.block([[a_mat, b_mat], [b_mat.conj(), a_mat.conj()]])
    m = (_OMEGA @ t @ _OMEGA_INV).real
    return m @ cov @ m.T


def two_mode_squeezer(cov, gain: float, theta: float, i: int, j: int):
    """a_i -> G a_i + g e^{i theta} a_j^dag and symmetrically for a_j."""
    g = math.sqrt(gain * gain - 1.0)
    a_mat = np.eye(N_MODES, dtype=complex)
    a_mat[i, i] = a_mat[j, j] = gain
    b_mat = np.zeros((N_MODES, N_MODES), dtype=complex)
    b_mat[i, j] = b_mat[j, i] = g * complex(math.cos(theta), math.sin(theta))
    return _bogoliubov(cov, a_mat, b_mat)


def beam_splitter(cov, transmissivity: float, i: int, j: int):
    """(a_i, a_j) -> (sqrt(T) a_i + sqrt(R) a_j, sqrt(R) a_i - sqrt(T) a_j)."""
    st = math.sqrt(transmissivity)
    sr = math.sqrt(1.0 - transmissivity)
    a_mat = np.eye(N_MODES, dtype=complex)
    a_mat[i, i], a_mat[i, j], a_mat[j, i], a_mat[j, j] = st, sr, sr, -st
    return _bogoliubov(cov, a_mat, np.zeros((N_MODES, N_MODES), dtype=complex))


def loss(cov, eta: float, mode: int):
    """Photon loss of transmission eta: V -> eta V + (1 - eta) I on the mode,
    cross terms with the other modes scaled by sqrt(eta)."""
    scale = np.ones(2 * N_MODES)
    scale[[mode, mode + N_MODES]] = math.sqrt(eta)
    out = cov * np.outer(scale, scale)
    out[mode, mode] += 1.0 - eta
    out[mode + N_MODES, mode + N_MODES] += 1.0 - eta
    return out


def readout_covariance(config) -> np.ndarray:
    """Covariance matrix at the detector, in the stage order of
    ``kerrmzi.oracle.simulate``; defined only at phi = 0."""
    if config.phase.linear != 0.0 or config.phase.nonlinear != 0.0:
        raise ValueError("the Gaussian reference holds at phi = 0 only")
    t = config.splitter.transmissivity
    loss_ = config.loss
    cov = vacuum()
    cov = two_mode_squeezer(cov, config.nbs1.gain, config.nbs1.phase, MODE_A, MODE_B)
    cov = beam_splitter(cov, t, MODE_B, MODE_C)
    cov = loss(cov, loss_.eta_d, MODE_B)
    cov = loss(cov, loss_.eta_c, MODE_C)
    cov = beam_splitter(cov, t, MODE_B, MODE_C)
    cov = loss(cov, loss_.eta_a, MODE_A)
    cov = loss(cov, loss_.eta_b, MODE_B)
    cov = two_mode_squeezer(cov, config.nbs2.gain, config.nbs2.phase, MODE_A, MODE_B)
    cov = loss(cov, loss_.eta_det, MODE_A)
    return cov


def readout_variance(config) -> float:
    """Var(Y_a) at phi = 0."""
    return float(readout_covariance(config)[MODE_A + N_MODES, MODE_A + N_MODES])
