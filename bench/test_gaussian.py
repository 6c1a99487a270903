"""Textbook checks of the Gaussian covariance reference.

Run from the repository root:  PYTHONPATH=src python -m pytest -q bench
"""

import math

import numpy as np
import pytest

import gaussian
from kerrmzi import analytic, build_config

X_A, X_B, Y_A, Y_B = 0, 1, 3, 4


def test_vacuum_variance_is_one():
    assert gaussian.readout_variance(build_config()) == 1.0
    np.testing.assert_array_equal(gaussian.vacuum(), np.eye(6))


@pytest.mark.parametrize("g", [0.3, 1.0, 2.0])
def test_two_mode_squeezed_vacuum(g):
    gain = math.hypot(1.0, g)
    cov = gaussian.two_mode_squeezer(gaussian.vacuum(), gain, 0.0, 0, 1)
    # single-mode variance 2 g^2 + 1 = cosh 2r, correlations +-2 g G = sinh 2r
    for q in (X_A, X_B, Y_A, Y_B):
        assert cov[q, q] == pytest.approx(2 * g * g + 1, rel=1e-14)
    assert cov[X_A, X_B] == pytest.approx(2 * g * gain, rel=1e-14)
    assert cov[Y_A, Y_B] == pytest.approx(-2 * g * gain, rel=1e-14)
    # through the whole interferometer with an identity readout squeezer
    assert gaussian.readout_variance(build_config(g1=g)) == pytest.approx(2 * g * g + 1, rel=1e-14)


def test_loss_mixes_in_vacuum():
    thermal = 5.0 * np.eye(6)
    out = gaussian.loss(thermal, 0.3, 0)
    assert out[X_A, X_A] == pytest.approx(0.3 * 5.0 + 0.7)
    assert out[X_B, X_B] == 5.0
    np.testing.assert_allclose(gaussian.loss(gaussian.vacuum(), 0.3, 2), np.eye(6))


def test_double_pass_splitter_is_identity():
    cov = gaussian.two_mode_squeezer(gaussian.vacuum(), 1.5, 0.4, 0, 1)
    twice = gaussian.beam_splitter(gaussian.beam_splitter(cov, 0.3, 1, 2), 0.3, 1, 2)
    np.testing.assert_allclose(twice, cov, atol=1e-13)


def test_matches_lossy_closed_form_at_paper_scale():
    rng = np.random.default_rng(7)
    for _ in range(200):
        etas = rng.uniform(0.0, 1.0, size=4)
        cfg = build_config(
            alpha=10.0, g1=rng.uniform(0.0, 3.0), theta1=rng.uniform(-3, 3),
            g2=rng.uniform(0.0, 6.0), theta2=rng.uniform(-3, 3),
            transmissivity=rng.uniform(0.0, 1.0),
            eta_a=etas[0], eta_b=etas[1], eta_c=etas[2], eta_d=etas[3],
        )
        assert gaussian.readout_variance(cfg) == pytest.approx(
            analytic.lossy_noise_at_zero(cfg), rel=1e-12
        )


def test_rejects_nonzero_phase():
    with pytest.raises(ValueError):
        gaussian.readout_variance(build_config(phi_l=0.1))
