"""Closed-form sensitivity, Fisher-information, and loss expressions.

Everything here is evaluated at the phi = 0 operating point of the
interferometer; behaviour away from that point is the job of the Fock
simulator in :mod:`kerrmzi.oracle`.  All functions are pure.

The interferometer's closed forms use numpy ufuncs and products
(``x * x``, never ``**``), and their guards raise if any element fails:
on a config (or arguments) whose fields are arrays they give, cell for
cell, the bits of the scalar call.  A sweep and each randomized family of
the analytic suite are one such call.  The Kerr-medium conversions at the
end stay scalar.

Notation: G_i, g_i are the squeezer gain pairs (G^2 - g^2 = 1), T and
R = 1 - T the splitter coefficients, N_alpha = |alpha|^2 the pump photon
number and N_g = 2 g1^2 the photon number spontaneously emitted by the
first squeezer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    InterferometerConfig,
    KerrMediumSpec,
    SensitivityReport,
    SplitterParams,
    SqueezerParams,
    PhaseShift,
)


class UndefinedSensitivityError(ArithmeticError):
    """Raised when the homodyne slope vanishes and delta_phi is undefined."""


@dataclass(frozen=True)
class TransferCoefficients:
    """Input-output coefficients of the interferometer at a fixed photon
    number n of the sensing arm (arrays over array arguments).

    m1, m0, m2 describe the inner two-port stage; a, b, c describe the
    readout-port combination of the full three-port network.  They satisfy
    |m1|^2 + |m0|^2 = 1 and |a|^2 - |b|^2 - |c|^2 = 1.
    """

    m0: complex
    m1: complex
    m2: complex
    a: complex
    b: complex
    c: complex


@dataclass(frozen=True)
class QfiBreakdown:
    """Quantum Fisher information for the nonlinear phase, as the cubic
    polynomial f = N_alpha^3 s1 + N_alpha^2 s2 + N_alpha s3 + s4."""

    s1: float
    s2: float
    s3: float
    s4: float
    f: float


def transfer_coefficients(
    splitter: SplitterParams,
    nbs1: SqueezerParams,
    nbs2: SqueezerParams,
    phase: PhaseShift,
    n: int,
) -> TransferCoefficients:
    """Evaluate the transfer coefficients with the sensing-arm photon
    number operator replaced by the scalar n >= 0.

    The accumulated phase is phi_l + phi_n (2n + 1), so the two-port stage
    reduces to m1 = R + T e^{i phi}, m0 = sqrt(TR) (e^{i phi} - 1),
    m2 = R e^{i phi} + T, and the readout combination is
    a = G2 G1 + g2 g1 e^{i(th2 - th1)} m1*, b = G2 g1 e^{i th1}
    + G1 g2 e^{i th2} m1*, c = g2 e^{i th2} m0*.
    """
    if np.any(n < 0):
        raise ValueError(f"photon number n must be >= 0 (got {n})")
    t = splitter.transmissivity
    r = splitter.reflectivity
    ph = np.exp(1j * (phase.linear + phase.nonlinear * (2 * n + 1)))
    m0 = np.sqrt(t * r) * (ph - 1.0)
    m1 = r + t * ph
    m2 = r * ph + t
    e1 = np.exp(1j * nbs1.phase)
    e2 = np.exp(1j * nbs2.phase)
    g1, g2 = nbs1.g, nbs2.g
    # complex products through the ufunc: on numpy complex scalars ``*``
    # rounds differently from the (fused multiply-add) array loop
    mul = np.multiply
    a = nbs2.gain * nbs1.gain + mul(mul(g2 * g1 * e2, np.conj(e1)), np.conj(m1))
    b = nbs2.gain * g1 * e1 + mul(nbs1.gain * g2 * e2, np.conj(m1))
    c = mul(g2 * e2, np.conj(m0))
    return TransferCoefficients(m0=m0, m1=m1, m2=m2, a=a, b=b, c=c)


def slope_at_zero(config: InterferometerConfig) -> float:
    """Magnitude of the homodyne-quadrature slope d<Y>/dphi at phi = 0:

        2 g2 sqrt(TR) N_alpha^{1/2} (1 + 2 R N_alpha + 4 T g1^2)
            * |cos(theta2 - theta_alpha)|
    """
    t = config.splitter.transmissivity
    r = config.splitter.reflectivity
    n_alpha = config.coherent.n_alpha
    g1, g2 = config.nbs1.g, config.nbs2.g
    cosm = np.abs(np.cos(config.nbs2.phase - config.coherent.phase))
    return (
        2.0
        * g2
        * np.sqrt(t * r)
        * np.sqrt(n_alpha)
        * (1.0 + 2.0 * r * n_alpha + 4.0 * t * (g1 * g1))
        * cosm
    )


def noise_at_zero(config: InterferometerConfig) -> float:
    """Quadrature variance <D^2 Y> at phi = 0 (vacuum level is 1):

        G2^2 G1^2 + g1^2 g2^2 + G2^2 g1^2 + G1^2 g2^2
            + 4 G2 G1 g1 g2 cos(theta2 - theta1)

    Independent of the splitter and of the pump.
    """
    G1, g1 = config.nbs1.gain, config.nbs1.g
    G2, g2 = config.nbs2.gain, config.nbs2.g
    G1s, g1s, G2s, g2s = G1 * G1, g1 * g1, G2 * G2, g2 * g2
    cos21 = np.cos(config.nbs2.phase - config.nbs1.phase)
    return (
        G2s * G1s
        + g1s * g2s
        + G2s * g1s
        + G1s * g2s
        + 4.0 * G2 * G1 * g1 * g2 * cos21
    )


def linear_only_slope(config: InterferometerConfig) -> float:
    """Slope with the nonlinear contribution dropped:
    2 g2 sqrt(TR) N_alpha^{1/2} |cos(theta2 - theta_alpha)|.  Its optimum
    over T sits at T = 1/2."""
    t = config.splitter.transmissivity
    r = config.splitter.reflectivity
    cosm = np.abs(np.cos(config.nbs2.phase - config.coherent.phase))
    return 2.0 * config.nbs2.g * np.sqrt(t * r) * config.coherent.magnitude * cosm


def lossy_slope_at_zero(config: InterferometerConfig) -> float:
    """Slope at phi = 0 with internal (eta_d on the sensing arm, eta_c on
    the other) and external (eta_a, eta_b) transmissions:

        2 g2 sqrt(eta_b eta_d T R) N_alpha^{1/2} (1 + 2 R N_alpha + 2 T N_g)
            * |cos(theta2 - theta_alpha)|

    Reduces to the lossless slope at all eta = 1 (2 T N_g = 4 T g1^2).
    """
    t = config.splitter.transmissivity
    r = config.splitter.reflectivity
    n_alpha = config.coherent.n_alpha
    cosm = abs(np.cos(config.nbs2.phase - config.coherent.phase))
    eta_b, eta_d = config.loss.eta_b, config.loss.eta_d
    gain = 1.0 + 2.0 * r * n_alpha + 2.0 * t * config.n_g
    return 2.0 * config.nbs2.g * np.sqrt(eta_b * eta_d * t * r) * np.sqrt(n_alpha) * gain * cosm


def lossy_noise_at_zero(config: InterferometerConfig) -> float:
    """Quadrature variance at phi = 0 with internal and external losses.

    Vacuum admixture terms (1 - eta) enter with unit variance; the
    correlated cross term is weighted by sqrt(eta_d) T + sqrt(eta_c) R.
    Reduces to the lossless variance at all eta = 1.
    """
    t = config.splitter.transmissivity
    r = config.splitter.reflectivity
    G1, g1 = config.nbs1.gain, config.nbs1.g
    G2, g2 = config.nbs2.gain, config.nbs2.g
    G1s, g1s, G2s, g2s = G1 * G1, g1 * g1, G2 * G2, g2 * g2
    cos21 = np.cos(config.nbs2.phase - config.nbs1.phase)
    ea, eb = config.loss.eta_a, config.loss.eta_b
    ec, ed = config.loss.eta_c, config.loss.eta_d
    root_c, root_d = np.sqrt(ec), np.sqrt(ed)
    w = root_d * t + root_c * r
    ws = w * w
    skew = root_d - root_c
    return (
        ea * G2s * G1s
        + eb * g2s * g1s * ws
        + ea * G2s * g1s
        + eb * g2s * G1s * ws
        + eb * g2s * t * r * (skew * skew)
        + (1.0 - ea) * G2s
        + (1.0 - eb) * g2s
        + eb * (1.0 - ec) * g2s * r
        + eb * (1.0 - ed) * g2s * t
        + 4.0 * np.sqrt(ea * eb) * G2 * G1 * g1 * g2 * w * cos21
    )


def _sql(n_ps):
    return 1.0 / (n_ps * np.sqrt(n_ps))


def sql_nonlinear(n_ps: float) -> float:
    """Standard quantum limit for a photon-number-squared phase:
    N_ps^{-3/2}."""
    if n_ps <= 0:
        raise ValueError(f"n_ps must be positive (got {n_ps})")
    return float(_sql(n_ps))


def optimal_split_ratio(n_alpha: float, g1: float) -> float:
    """Closed-form optimum of slope_at_zero over the split ratio:

        R/T = [3 N_a - 6 g1^2
               + sqrt(9 N_a^2 - 28 N_a g1^2 + 2 N_a + 36 g1^4 + 4 g1^2 + 1)]
              / (2 N_a + 1)

    Approaches 3 for strong pumping.  Independent of g2.
    """
    if (np.minimum(n_alpha, g1) < 0).any():
        raise ValueError("n_alpha and g1 must be >= 0")
    g1s = g1 * g1
    disc = (
        9.0 * (n_alpha * n_alpha)
        - 28.0 * n_alpha * g1s
        + 2.0 * n_alpha
        + 36.0 * (g1s * g1s)
        + 4.0 * g1s
        + 1.0
    )
    if np.any(disc < 0):
        raise ValueError(
            f"negative discriminant for n_alpha={n_alpha}, g1={g1} ({disc})"
        )
    return (3.0 * n_alpha - 6.0 * g1s + np.sqrt(disc)) / (2.0 * n_alpha + 1.0)


def optimal_transmissivity(n_alpha: float, g1: float) -> float:
    """The closed-form optimum expressed as T = 1 / (1 + R/T)."""
    return 1.0 / (1.0 + optimal_split_ratio(n_alpha, g1))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_argmax(f, lo: float, hi: float, xtol: float = 1e-10) -> float:
    """Abscissa of the maximum of a unimodal f on [lo, hi] by golden-section
    search, to within xtol.

    Elementwise where f returns an array (a family of profiles) or the
    bounds are arrays: each element keeps its own bracket and stops when
    that bracket is within xtol, so it ends on the bits a one-element
    search of it ends on.  A 0-d search returns a float.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while (active := hi - lo > xtol).any():
        # keep [x1, hi] where right, else [lo, x2]; a finished element keeps both
        right = np.less(f1, f2)
        lo, hi = np.where(active & right, x1, lo), np.where(active & ~right, x2, hi)
        x = np.where(right, lo + _INV_GOLDEN * (hi - lo), hi - _INV_GOLDEN * (hi - lo))
        fx = f(x)
        x1, f1, x2, f2 = (
            np.where(right, x2, x),
            np.where(right, f2, fx),
            np.where(right, x, x1),
            np.where(right, fx, f1),
        )
    mid = 0.5 * (lo + hi)
    return mid if np.ndim(mid) else float(mid)


def argmax_slope_transmissivity(n_alpha: float, g1: float, xtol: float = 1e-10) -> float:
    """Numeric argmax over T of the slope profile sqrt(T(1-T)) *
    (1 + 2(1-T) N_a + 4 T g1^2) -- a regression guard for the closed form.

    The T-independent prefactors of the slope do not move the argmax, so
    they are dropped.  The profile is strictly log-concave on (0, 1),
    hence unimodal and safe for golden-section search.
    """

    g1s = g1 * g1

    def profile(t):
        return np.sqrt(t * (1.0 - t)) * (1.0 + 2.0 * (1.0 - t) * n_alpha + 4.0 * t * g1s)

    return golden_section_argmax(profile, 0.0, 1.0, xtol)


def argmax_linear_slope_transmissivity(xtol: float = 1e-10) -> float:
    """Numeric argmax over T of the linear-only slope, which is maximal
    where sqrt(T(1-T)) is, i.e. at T = 1/2: the slope profile at
    N_a = g1 = 0."""
    return argmax_slope_transmissivity(0.0, 0.0, xtol)


def qfi_nonlinear(n_alpha: float, n_g: float, splitter: SplitterParams) -> QfiBreakdown:
    """Quantum Fisher information 4 [<n^4> - <n^2>^2] of the sensing arm
    for the photon-number-squared phase, as a cubic in N_alpha."""
    if (np.minimum(n_alpha, n_g) < 0).any():
        raise ValueError("n_alpha and n_g must be >= 0")
    r = splitter.reflectivity
    t = splitter.transmissivity
    r2, t2, n2 = r * r, t * t, n_g * n_g
    r3, t3, n3 = r2 * r, t2 * t, n2 * n_g
    r4, t4, n4 = r2 * r2, t2 * t2, n2 * n2
    s1 = 16.0 * r4 + 16.0 * r3 * t * (n_g + 1.0)
    s2 = (
        24.0 * r4
        + r3 * t * (88.0 * n_g + 48.0)
        + r2 * t2 * (52.0 * n2 + 88.0 * n_g + 24.0)
    )
    s3 = (
        4.0 * r4
        + r3 * t * (52.0 * n_g + 12.0)
        + r2 * t2 * (96.0 * n2 + 104.0 * n_g + 12.0)
        + r * t3 * (40.0 * n3 + 96.0 * n2 + 52.0 * n_g + 4.0)
    )
    s4 = (
        t4 * (5.0 * n4 + 16.0 * n3 + 13.0 * n2 + 2.0 * n_g)
        + t3 * r * (16.0 * n3 + 26.0 * n2 + 6.0 * n_g)
        + t2 * r2 * (13.0 * n2 + 6.0 * n_g)
        + 2.0 * t * r3 * n_g
    )
    a2 = n_alpha * n_alpha
    f = a2 * n_alpha * s1 + a2 * s2 + n_alpha * s3 + s4
    return QfiBreakdown(s1=s1, s2=s2, s3=s3, s4=s4, f=f)


def qfi_linear(n_alpha: float, n_g: float, splitter: SplitterParams) -> float:
    """Fisher information 4 <D^2 n> of the sensing arm for a linear phase:

        N_alpha [4 R^2 + 4 R T (N_g + 1)] + N_g [T^2 N_g + 2 T R] + 2 T^2 N_g
    """
    if (np.minimum(n_alpha, n_g) < 0).any():
        raise ValueError("n_alpha and n_g must be >= 0")
    r = splitter.reflectivity
    t = splitter.transmissivity
    t2 = t * t
    return (
        n_alpha * (4.0 * (r * r) + 4.0 * r * t * (n_g + 1.0))
        + n_g * (t2 * n_g + 2.0 * t * r)
        + 2.0 * t2 * n_g
    )


def qfi_linear_from_arm_moments(
    n_alpha: float, n_g: float, splitter: SplitterParams
) -> float:
    """Independent re-derivation of the linear-phase Fisher information.

    The sensing arm carries a displaced thermal state with coherent part
    x = R N_alpha and thermal occupancy t = T N_g / 2, for which
    Var(n) = x (2t + 1) + t (t + 1); the information is 4 Var(n).
    """
    x = splitter.reflectivity * n_alpha
    th = splitter.transmissivity * n_g / 2.0
    return 4.0 * (x * (2.0 * th + 1.0) + th * (th + 1.0))


def _qcrb(f, repeats):
    return 1.0 / np.sqrt(repeats * f)


def qcrb(f: float, repeats: int = 1) -> float:
    """Cramer-Rao sensitivity floor 1 / sqrt(m f) for m independent runs."""
    if f <= 0:
        raise ValueError(f"Fisher information must be positive (got {f})")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1 (got {repeats})")
    return float(_qcrb(f, repeats))


def is_balanced(config: InterferometerConfig) -> bool:
    """True for the balanced readout configuration G1 = G2,
    theta_alpha = 0, theta1 = 0, theta2 = pi, the phases within an
    absolute 1e-12 (a config file may spell pi with fewer digits); on an
    array config, True when every cell is balanced."""
    balanced = (
        (config.nbs1.gain == config.nbs2.gain)
        & (abs(config.coherent.phase) <= 1e-12)
        & (abs(config.nbs1.phase) <= 1e-12)
        & (abs(config.nbs2.phase - math.pi) <= 1e-12)
    )
    return bool(balanced.all() if isinstance(balanced, np.ndarray) else balanced)


def balanced_terms(config: InterferometerConfig):
    """The three slope contributions of the balanced configuration:

        T_lin         = 2 sqrt(TR) N_alpha^{1/2}
        T_nonlin      = 4 R sqrt(TR) N_alpha^{3/2}
        T_nonlin_corr = 4 T sqrt(TR) N_alpha^{1/2} N_g

    with g * (sum of terms) equal to the slope.  None when the
    configuration (any cell of an array config) is not balanced.
    """
    if not is_balanced(config):
        return None
    t = config.splitter.transmissivity
    r = config.splitter.reflectivity
    n_alpha = config.coherent.n_alpha
    root = np.sqrt(t * r) * np.sqrt(n_alpha)
    return (
        2.0 * root,
        4.0 * r * root * n_alpha,
        4.0 * t * root * config.n_g,
    )


def evaluate(config: InterferometerConfig, repeats: int = 1) -> SensitivityReport:
    """Slope, variance, delta_phi, SQL and QCRB at phi = 0, elementwise
    over a config whose fields may be broadcastable numpy arrays; the
    report holds arrays then, and no balanced terms.

    Internal/external losses enter through the lossy slope and variance
    (which reduce to the lossless forms at eta = 1); detection loss mixes
    in vacuum, scaling the slope by sqrt(eta_det) and the variance to
    eta_det * var + (1 - eta_det), exactly the lossless values at
    eta_det = 1.  The sensitivity is defined where the slope is positive;
    elsewhere delta_phi is inf and qcrb nan.  A vanishing N_ps or Fisher
    information gives an infinite sql or qcrb.
    """
    eta = config.loss.eta_det
    slope = lossy_slope_at_zero(config) * np.sqrt(eta)
    noise = eta * lossy_noise_at_zero(config) + (1.0 - eta)
    fisher = qfi_nonlinear(config.coherent.n_alpha, config.n_g, config.splitter).f
    defined = slope > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_phi = np.where(defined, np.sqrt(noise) / slope, np.inf)
        bound = np.where(defined, _qcrb(fisher, repeats), np.nan)
        sql = _sql(config.n_ps)
    return SensitivityReport(slope, noise, delta_phi, sql, bound)


def sensitivity(config: InterferometerConfig, repeats: int = 1) -> SensitivityReport:
    """Full sensitivity report at phi = 0 of a scalar config: ``evaluate``
    plus the balanced-configuration terms.  Raises
    UndefinedSensitivityError when the slope vanishes.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1 (got {repeats})")
    report = evaluate(config, repeats)
    if not report.slope > 0.0:
        raise UndefinedSensitivityError(
            "undefined sensitivity: homodyne slope is zero "
            "(g2 = 0, alpha = 0, eta_b*eta_d = 0, or cos(theta2 - theta_alpha) = 0)"
        )
    terms = balanced_terms(config) if config.loss.is_lossless() else None
    return SensitivityReport(
        *(float(v) for v in report.to_dict().values()),
        *(map(float, terms) if terms else (None,) * 3),
    )


def nonlinear_index(medium: KerrMediumSpec, chi3: float) -> float:
    """Intensity-dependent refractive-index coefficient n2 = 3 chi3 /
    (4 n0^2 eps0 c), so that n = n0 + n2 <I>."""
    return 3.0 * chi3 / (4.0 * medium.n0**2 * medium.epsilon0 * medium.c)


def chi3_phase(medium: KerrMediumSpec, chi3: float) -> float:
    """Nonlinear phase produced by a third-order susceptibility:
    phi_n = 3 chi3 <I> k L / (4 n0^2 eps0 c)."""
    return (
        3.0
        * chi3
        * medium.intensity
        * medium.wavenumber
        * medium.length
        / (4.0 * medium.n0**2 * medium.epsilon0 * medium.c)
    )


def chi3_uncertainty(medium: KerrMediumSpec, delta_phi_n: float) -> float:
    """Susceptibility uncertainty reached by a phase measurement of
    uncertainty delta_phi_n: the inverse slope of chi3_phase,
    4 n0^2 eps0 c / (3 <I> k L) * delta_phi_n."""
    if delta_phi_n < 0:
        raise ValueError(f"delta_phi_n must be >= 0 (got {delta_phi_n})")
    return (
        4.0
        * medium.n0**2
        * medium.epsilon0
        * medium.c
        / (3.0 * medium.intensity * medium.wavenumber * medium.length)
        * delta_phi_n
    )
