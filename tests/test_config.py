import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrmzi.config import (
    CoherentInput,
    ConfigFileError,
    InterferometerConfig,
    InvalidConfigError,
    KerrMediumSpec,
    LossParams,
    PhaseShift,
    SensitivityReport,
    SplitterParams,
    SqueezerParams,
    build_config,
    config_digest,
    field_errors,
    parse_config,
    parse_medium,
    validate,
)


class TestSqueezerParams:
    def test_identity_squeezer_is_valid(self):
        sq = SqueezerParams(gain=1.0)
        assert field_errors(InterferometerConfig(nbs1=sq)) == []
        assert sq.g == 0.0

    def test_gain_below_one_rejected(self):
        errs = field_errors(InterferometerConfig(nbs1=SqueezerParams(gain=0.5)))
        assert any("nbs1.gain" in e for e in errs)

    def test_from_g_round_trip(self):
        sq = SqueezerParams.from_g(2.0)
        assert sq.gain == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert sq.g == pytest.approx(2.0, rel=1e-15)

    # gain sampled log-uniformly over [1, 1e3]
    @given(st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=300)
    def test_hyperbolic_identity_within_4_ulp(self, exponent):
        gain = 10.0**exponent
        g = SqueezerParams(gain=gain).g
        lhs = gain * gain - g * g
        assert abs(lhs - 1.0) <= 4 * math.ulp(max(gain * gain, 1.0))


class TestSplitterParams:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_r_plus_t_is_exactly_one(self, t):
        sp = SplitterParams(t)
        assert sp.reflectivity + sp.transmissivity == 1.0

    def test_transmissivity_out_of_range(self):
        errs = field_errors(InterferometerConfig(splitter=SplitterParams(1.2)))
        assert errs and "transmissivity outside [0,1]" in errs[0]


class TestValidate:
    def test_fig2_scale_config_is_valid(self):
        cfg = InterferometerConfig(
            nbs1=SqueezerParams.from_g(2.0),
            nbs2=SqueezerParams.from_g(4.0, math.pi),
            splitter=SplitterParams(0.25),
            coherent=CoherentInput(10.0, 0.0),
        )
        assert validate(cfg) is cfg

    def test_all_violations_reported(self):
        cfg = InterferometerConfig(
            nbs1=SqueezerParams(gain=0.5),
            splitter=SplitterParams(1.2),
            coherent=CoherentInput(-1.0),
            loss=LossParams(eta_a=2.0, eta_det=0.0),
        )
        with pytest.raises(InvalidConfigError) as exc:
            validate(cfg)
        messages = exc.value.errors
        assert len(messages) == 5
        joined = " | ".join(messages)
        assert "nbs1.gain" in joined
        assert "transmissivity outside [0,1]" in joined
        assert "coherent.magnitude" in joined
        assert "loss.eta_a" in joined
        assert "loss.eta_det" in joined

    def test_scalar_messages_unchanged(self):
        cfg = InterferometerConfig(
            nbs1=SqueezerParams(gain=0.5),
            nbs2=SqueezerParams(phase=math.nan),
            splitter=SplitterParams(1.2),
            coherent=CoherentInput(-1.0),
            loss=LossParams(eta_a=2.0, eta_c=-0.25, eta_det=0.0),
        )
        assert field_errors(cfg) == [
            "nbs1.gain below 1 (got 0.5)",
            "nbs2.phase not finite",
            "transmissivity outside [0,1] (got 1.2)",
            "coherent.magnitude negative (got -1.0)",
            "loss.eta_a outside [0,1] (got 2.0)",
            "loss.eta_c outside [0,1] (got -0.25)",
            "loss.eta_det outside (0,1] (got 0.0)",
        ]

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (
                InterferometerConfig(nbs1=SqueezerParams(gain=np.array([1.0, 2.0, 0.5, 0.25]))),
                "nbs1.gain below 1 (got 0.5)",
            ),
            (
                InterferometerConfig(splitter=SplitterParams(np.array([[0.2, 0.3], [1.5, 0.4]]))),
                "transmissivity outside [0,1] (got 1.5)",
            ),
            (
                InterferometerConfig(coherent=CoherentInput(np.array([1.0, -2.0]))),
                "coherent.magnitude negative (got -2.0)",
            ),
            (
                InterferometerConfig(loss=LossParams(eta_det=np.array([1.0, 0.5, 0.0]))),
                "loss.eta_det outside (0,1] (got 0.0)",
            ),
            (
                InterferometerConfig(phase=PhaseShift(nonlinear=np.array([0.1, np.nan]))),
                "phase.nonlinear not finite",
            ),
        ],
    )
    def test_array_config_with_one_bad_cell_fails(self, cfg, message):
        with pytest.raises(InvalidConfigError) as exc:
            validate(cfg)
        assert exc.value.errors == [message]

    def test_valid_array_config_passes(self):
        cfg = InterferometerConfig(
            nbs1=SqueezerParams(np.array([1.0, 2.0]), np.array([0.0, 1.0])),
            loss=LossParams(eta_a=np.linspace(0.0, 1.0, 5), eta_det=np.array([1e-9, 1.0])),
        )
        assert validate(cfg) is cfg

    def test_non_finite_rejected(self):
        cfg = InterferometerConfig(phase=PhaseShift(linear=math.inf))
        assert field_errors(cfg) == ["phase.linear not finite"]

    @pytest.mark.parametrize(
        "value", [np.float32(0.5), np.float16(0.5), np.int64(1), np.uint8(1)],
        ids=["float32", "float16", "int64", "uint8"],
    )
    def test_finite_numpy_scalars_accepted(self, value):
        cfg = build_config(transmissivity=value)
        assert cfg.splitter.transmissivity == value

    @pytest.mark.parametrize(
        "value",
        [0.5 + 0j, np.complex64(0.5), np.complex128(0.5), np.float32(np.inf), np.float64(np.nan)],
        ids=["complex", "complex64", "complex128", "float32-inf", "float64-nan"],
    )
    def test_complex_and_non_finite_scalars_rejected(self, value):
        cfg = InterferometerConfig(splitter=SplitterParams(value))
        assert field_errors(cfg) == ["splitter.transmissivity not finite"]

    def test_validate_is_idempotent(self):
        cfg = build_config(alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.25)
        assert validate(validate(cfg)) is validate(cfg)


class TestPhaseSensingPhotons:
    def test_fig2_values(self):
        cfg = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25)
        assert cfg.n_ps == pytest.approx(108.0, rel=1e-14)

    def test_vacuum(self):
        assert build_config().n_ps == 0.0

    def test_small_example(self):
        cfg = build_config(alpha=1.0, g1=0.3)
        assert cfg.n_ps == pytest.approx(1.18, rel=1e-14)


class TestReportSerialization:
    def test_flat_record_and_csv_row(self):
        rep = SensitivityReport(
            slope=2.0, noise=1.0, delta_phi=0.5, sql=0.7, qcrb=0.3,
            term_lin=1.0, term_nonlin=2.0, term_nonlin_corr=3.0,
        )
        rec = rep.to_dict()
        assert rec["delta_phi"] == 0.5
        assert rec["term_nonlin"] == 2.0
        row = rep.csv_row()
        assert row.split(",")[0] == "2"
        assert len(row.split(",")) == len(SensitivityReport.csv_header().split(","))

    def test_terms_omitted_when_absent(self):
        rep = SensitivityReport(2.0, 1.0, 0.5, 0.7, 0.3)
        assert "term_lin" not in rep.to_dict()
        assert rep.csv_row().endswith(",,,")


GOOD_CONFIG = """
[nbs1]
gain = 2.2360679774997896
phase = 0.0

[nbs2]
gain = 4.123105625617661
phase = 3.141592653589793

[splitter]
transmissivity = 0.25

[coherent]
magnitude = 10.0
phase = 0.0

[phase]
linear = 0.0
nonlinear = 0.0

[loss]
eta_a = 1.0
eta_b = 1.0
eta_c = 1.0
eta_d = 1.0
eta_det = 1.0
"""


class TestConfigFile:
    def test_good_file_round_trip(self):
        cfg = parse_config(GOOD_CONFIG)
        assert cfg.splitter.transmissivity == 0.25
        assert cfg.coherent.magnitude == 10.0
        assert cfg.nbs2.phase == pytest.approx(math.pi)

    def test_missing_sections_use_defaults(self):
        cfg = parse_config("[coherent]\nmagnitude = 2.0\n")
        assert cfg.nbs1.gain == 1.0
        assert cfg.loss.is_lossless()

    def test_unknown_key_cites_key_and_line(self):
        text = "[loss]\neta_a = 1.0\neta_x = 0.5\n"
        with pytest.raises(ConfigFileError, match=r"eta_x.*line 3"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigFileError, match=r"unknown section \[mirror\]"):
            parse_config("[mirror]\nangle = 1\n")

    def test_bad_number_cites_key(self):
        with pytest.raises(ConfigFileError, match="magnitude.*not a number"):
            parse_config("[coherent]\nmagnitude = ten\n")

    def test_syntax_error_cites_line(self):
        with pytest.raises(ConfigFileError, match="line"):
            parse_config("[coherent\nmagnitude = 1\n")

    def test_out_of_range_value_fails_validation(self):
        with pytest.raises(InvalidConfigError, match=r"transmissivity outside \[0,1\]"):
            parse_config("[splitter]\ntransmissivity = 1.2\n")

    def test_medium_section(self):
        text = "[medium]\nn0 = 1.45\nintensity = 1e12\nwavenumber = 7.85e6\nlength = 0.01\n"
        med = parse_medium(text)
        assert med.n0 == 1.45
        assert med.epsilon0 == pytest.approx(8.8541878128e-12)

    def test_medium_missing_key(self):
        with pytest.raises(ConfigFileError, match="missing key 'length'"):
            parse_medium("[medium]\nn0 = 1.0\nintensity = 1.0\nwavenumber = 1.0\n")

    def test_medium_positivity(self):
        with pytest.raises(InvalidConfigError, match="medium.n0"):
            parse_medium(
                "[medium]\nn0 = -1\nintensity = 1\nwavenumber = 1\nlength = 1\n"
            )


class TestDigest:
    def test_digest_stable_and_distinguishing(self):
        a = build_config(alpha=1.0, g1=0.3, g2=0.6)
        b = build_config(alpha=1.0, g1=0.3, g2=0.6)
        c = build_config(alpha=1.1, g1=0.3, g2=0.6)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)

    def test_digest_ignores_number_type(self):
        # equal configs share a digest, whether a field holds an int, a float
        # or a numpy float64 (what set_parameter stores for a derived axis)
        import numpy as np

        from kerrmzi.sweep import set_parameter

        a = build_config(alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.5)
        b = build_config(alpha=1, g1=0.3, g2=0.6, transmissivity=np.float64(0.5))
        c = set_parameter(a, "r_over_t", 1.0)
        assert a == b == c
        assert config_digest(a) == config_digest(b) == config_digest(c)

    def test_digest_formats_numpy_scalars_as_python_numbers(self):
        a = InterferometerConfig(
            coherent=CoherentInput(np.int64(1)), splitter=SplitterParams(np.float32(0.5)),
            loss=LossParams(eta_det=np.uint8(1)),
        )
        b = InterferometerConfig(coherent=CoherentInput(1), splitter=SplitterParams(0.5))
        assert config_digest(a) == config_digest(b)

    def test_medium_digest(self):
        med = KerrMediumSpec(n0=1.45, intensity=1e12, wavenumber=7.85e6, length=0.01)
        assert len(config_digest(med)) == 12
