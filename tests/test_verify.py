import collections
import dataclasses
import math

import numpy as np
import pytest

from kerrmzi import analytic, oracle, sweep, verify
from kerrmzi.config import CoherentInput, build_config, config_digest


# every check of each suite, in record order
ANALYTIC_CHECKS = (
    "unitarity_m1_m0",
    "unitarity_m2_m0",
    "commutator_abc",
    "lossless_reduction_slope",
    "lossless_reduction_noise",
    "qfi_reassembly",
    "qfi_linear_moments",
    "qcrb_bound",
    "optimal_split_argmax",
    "balanced_decomposition",
    "detection_loss_identity",
    "linear_argmax_half",
    "sql_threshold_crossing",
    "phase_covariance",
)
ORACLE_CHECKS = (
    "coherent_mean_photon",
    "tmsv_occupancy",
    "arm_occupancy",
    "bs_convention_m1",
    "bs_convention_m0",
    "loss_cptp",
    "loss_coherent_amplitude",
    "slope_vs_closed_form",
    "variance_vs_closed_form",
    "qfi_vs_polynomial",
    "lossy_slope_vs_closed_form",
    "lossy_noise_vs_closed_form",
    "lossy_tail_vs_density",
    "oracle_phase_covariance",
)


@pytest.fixture(scope="module")
def analytic_records():
    return verify.run_analytic_suite(seed=1, draws=400)


@pytest.fixture(scope="module")
def oracle_records():
    return verify.run_oracle_suite(seed=1, cutoff=15)


class TestAnalyticSuite:
    def test_all_checks_pass(self, analytic_records):
        failures = [r.check for r in analytic_records if not r.passed]
        assert failures == []

    def test_expected_checks_present(self, analytic_records):
        assert tuple(r.check for r in analytic_records) == ANALYTIC_CHECKS

    def test_record_fields(self, analytic_records):
        rec = analytic_records[0].to_dict()
        for key in (
            "check",
            "config_digest",
            "analytic",
            "oracle",
            "rel_err",
            "tol",
            "passed",
            "cutoff",
            "converged",
        ):
            assert key in rec

    def test_linear_argmax_is_the_zero_pump_cell(self, analytic_records):
        # read from the cell N_a = g1 = 0 of the optimal-split search
        (rec,) = [r for r in analytic_records if r.check == "linear_argmax_half"]
        assert rec.analytic.hex() == analytic.argmax_slope_transmissivity(0.0, 0.0).hex()

    def test_too_few_draws_rejected(self):
        # the optimal-split family holds draws // 10 random cells
        with pytest.raises(ValueError, match="draws must be >= 10"):
            verify.run_analytic_suite(draws=9)
        assert all(r.passed for r in verify.run_analytic_suite(draws=10))


@pytest.mark.parametrize("seed", range(20))
def test_analytic_suite_passes_at_cli_default_draws(seed):
    records = verify.run_analytic_suite(seed=seed, draws=2000)
    assert tuple(r.check for r in records) == ANALYTIC_CHECKS
    assert [(r.check, r.rel_err) for r in records if not r.passed] == []


class TestOracleSuite:
    def test_all_checks_pass(self, oracle_records):
        failures = [(r.check, r.rel_err) for r in oracle_records if not r.passed]
        assert failures == []

    def test_scalar_checks_are_converged(self, oracle_records):
        for rec in oracle_records:
            assert rec.converged, rec.check

    @pytest.mark.parametrize("eta_a", [0.35, 1.0 - 1e-9])
    def test_lossy_corners_within_default_tolerance(self, eta_a):
        # the (eta_b, eta_c, eta_d) = (0.35, ~1, ~1) corners of the eta box
        # were the worst at cutoff 8, budget 5e-4 (1.008e-3 against 1e-3)
        cfg = build_config(
            alpha=1.0, g1=0.3, g2=0.6, transmissivity=0.25,
            eta_a=eta_a, eta_b=0.35, eta_c=1.0 - 1e-9, eta_d=1.0 - 1e-9,
        )
        est, est2 = (oracle.numeric_slope(cfg, cutoff=c, budget=verify._LOSSY_BUDGET)
                     for c in (verify._LOSSY_CUTOFF, 2 * verify._LOSSY_CUTOFF))
        for closed, value, doubled in (
            (analytic.lossy_slope_at_zero(cfg), abs(est.value), abs(est2.value)),
            (analytic.lossy_noise_at_zero(cfg), est.variance, est2.variance),
        ):
            assert verify._rel_err(closed, value) <= verify._LOSSY_TOL
            assert verify._converged(value, doubled, verify._LOSSY_TOL)

    def test_lossy_records_name_their_own_worst_config(self):
        # a multi-draw record carries the digest and values of its first
        # worst draw, and a nan or infinite side is worse than any number
        records, record = verify._suite_records(None)
        digests = ["first", "second", "third"]
        record("equal_worsts", digests, [1.0, 1.0 + 3e-9, 1.0 + 3e-9], 1.0, 1e-6)
        record("nan_worst", digests, [1.0 + 5e-7, 1.0, np.nan], 1.0, 1e-6)
        record("inf_worst", digests, 1.0, [1.0, np.inf, 2.0], 1e-6)
        equal, nan, inf = records
        assert (equal.config_digest, equal.analytic, equal.oracle, equal.passed) == (
            "second", 1.0 + 3e-9, 1.0, True)
        assert equal.rel_err == pytest.approx(3e-9)
        assert (nan.config_digest, nan.oracle, nan.passed) == ("third", 1.0, False)
        assert np.isnan(nan.analytic) and np.isnan(nan.rel_err)
        assert (inf.config_digest, inf.oracle, inf.passed) == ("second", np.inf, False)
        assert np.isnan(inf.rel_err)

    def test_expected_checks_present(self, oracle_records):
        assert tuple(r.check for r in oracle_records) == ORACLE_CHECKS

    def test_one_forward_pass_per_configuration_and_cutoff(self, monkeypatch):
        # the canonical slope and variance at the cutoff and its double, the
        # six QFI draws at the cutoff, each of the three lossy draws at the
        # lossy cutoff and its double, simulate's density tail and the
        # moment pass it is checked against, then the phase covariance's
        # unshifted and shifted passes, lossless and lossy; every pass
        # enters by the one door to the Fock pass
        cutoffs = []
        entry = oracle._entering_kerr

        def counting(config, cutoff, *args, **kwargs):
            cutoffs.append(cutoff)
            return entry(config, cutoff, *args, **kwargs)

        monkeypatch.setattr(oracle, "_entering_kerr", counting)
        verify.run_oracle_suite(seed=0)
        lossy = verify._LOSSY_CUTOFF
        assert cutoffs == ([15, 30] + 6 * [15] + 3 * [lossy, 2 * lossy] + [lossy, lossy]
                           + [15, 15, lossy, lossy])


class TestMutationControl:
    @pytest.mark.parametrize(
        "fixture, check",
        [("analytic_records", name) for name in ANALYTIC_CHECKS]
        + [("oracle_records", name) for name in ORACLE_CHECKS],
    )
    def test_every_check_fails_when_mutated(self, fixture, check, request):
        # the record's own values, fed back through the suite appender
        (rec,) = [r for r in request.getfixturevalue(fixture) if r.check == check]
        records, record = verify._suite_records(mutate=check)
        record(rec.check, rec.config_digest, rec.analytic, rec.oracle, rec.tol,
               cutoff=rec.cutoff, converged=rec.converged)
        assert rec.passed and not records[0].passed

    @pytest.mark.parametrize("fixture", ["analytic_records", "oracle_records"])
    def test_check_names_unique(self, fixture, request):
        # a shared name would mutate two checks
        names = [r.check for r in request.getfixturevalue(fixture)]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize(
        "check",
        ["qfi_reassembly", "optimal_split_argmax", "linear_argmax_half", "sql_threshold_crossing",
         "phase_covariance"],
    )
    def test_mutated_analytic_check_fails(self, check):
        records = verify.run_analytic_suite(seed=1, draws=100, mutate=check)
        failed = {r.check for r in records if not r.passed}
        assert failed == {check}

    # R/T = [c0 N_a + c1 g1^2 + sqrt(c2 N_a^2 + c3 N_a g1^2 + c4 N_a
    #        + c5 g1^4 + c6 g1^2 + c7)] / (c8 N_a + c9), as printed
    PRINTED_OPTIMUM = (3.0, -6.0, 9.0, -28.0, 2.0, 36.0, 4.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("faulted", [None, *range(len(PRINTED_OPTIMUM))])
    def test_optimal_split_guard_catches_each_coefficient(self, faulted, monkeypatch):
        # the printed optimum with one coefficient off by 0.1 %; unfaulted, it passes
        c = [k * (1.0 + 1e-3) if i == faulted else k for i, k in enumerate(self.PRINTED_OPTIMUM)]

        def optimal_transmissivity(n_alpha, g1):
            g1s = g1 * g1
            disc = (c[2] * n_alpha * n_alpha + c[3] * n_alpha * g1s + c[4] * n_alpha
                    + c[5] * g1s * g1s + c[6] * g1s + c[7])
            ratio = (c[0] * n_alpha + c[1] * g1s + np.sqrt(disc)) / (c[8] * n_alpha + c[9])
            return 1.0 / (1.0 + ratio)

        monkeypatch.setattr(analytic, "optimal_transmissivity", optimal_transmissivity)
        records = verify.run_analytic_suite(seed=0)
        (rec,) = [r for r in records if r.check == "optimal_split_argmax"]
        assert rec.passed == (faulted is None), rec

    @pytest.mark.parametrize(
        "check",
        ["coherent_mean_photon", "tmsv_occupancy", "arm_occupancy", "bs_convention_m1",
         "bs_convention_m0", "loss_coherent_amplitude", "variance_vs_closed_form",
         "qfi_vs_polynomial", "lossy_slope_vs_closed_form", "lossy_tail_vs_density"],
    )
    def test_mutated_oracle_check_fails(self, check):
        records = verify.run_oracle_suite(seed=1, cutoff=12, mutate=check)
        failed = {r.check for r in records if not r.passed}
        assert check in failed

    def test_mutated_slope_check_fails(self):
        # the 1e-3 mutation is far outside the 1e-6 slope tolerance
        records = verify.run_oracle_suite(
            seed=1, cutoff=15, mutate="slope_vs_closed_form"
        )
        failed = {r.check for r in records if not r.passed}
        assert failed == {"slope_vs_closed_form"}

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.run_suite("bogus")

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="no_such_check"):
            verify.run_suite("analytic", mutate="no_such_check")


def _nan_field(real, field):
    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return dataclasses.replace(out, **{field: np.full_like(getattr(out, field), np.nan)})
    return patched


def _nan_value(real):
    return lambda *args, **kwargs: real(*args, **kwargs) * np.nan


def _undefined_crossings(monkeypatch):
    # delta_phi = inf, as evaluate reports a vanishing slope, in the first
    # evaluation after the threshold pass: the crossing family's own
    real_thresholds, real_evaluate = sweep.sql_thresholds, analytic.evaluate

    def thresholds(cfg):
        monkeypatch.setattr(analytic, "evaluate", lambda *args, **kwargs: dataclasses.replace(
            out := real_evaluate(*args, **kwargs), delta_phi=np.full_like(out.delta_phi, np.inf)))
        return real_thresholds(cfg)

    monkeypatch.setattr(sweep, "sql_thresholds", thresholds)


@pytest.mark.parametrize("inject, checks", [
    (lambda mp: mp.setattr(analytic, "qfi_nonlinear", _nan_field(analytic.qfi_nonlinear, "f")),
     {"qfi_reassembly", "qcrb_bound", "qfi_vs_polynomial"}),
    (lambda mp: mp.setattr(analytic, "slope_at_zero", _nan_value(analytic.slope_at_zero)),
     {"lossless_reduction_slope", "balanced_decomposition", "slope_vs_closed_form"}),
    (lambda mp: mp.setattr(analytic, "noise_at_zero", _nan_value(analytic.noise_at_zero)),
     {"lossless_reduction_noise", "variance_vs_closed_form"}),
    (lambda mp: mp.setattr(analytic, "qfi_linear", _nan_value(analytic.qfi_linear)),
     {"qfi_linear_moments"}),
    (lambda mp: mp.setattr(oracle, "oracle_qfi", _nan_value(oracle.oracle_qfi)),
     {"qfi_vs_polynomial"}),
    (_undefined_crossings, {"sql_threshold_crossing"}),
], ids=["qfi_nonlinear_f", "slope_at_zero", "noise_at_zero", "qfi_linear", "oracle_qfi",
        "undefined_crossings"])
def test_nan_closed_form_fails_its_checks(monkeypatch, inject, checks):
    inject(monkeypatch)
    records = verify.run_suite("all", seed=0)
    failed = {r.check for r in records if not r.passed}
    assert checks <= failed, failed


def _phase_fault(form, field):
    """``form`` read at the config whose ``field`` phase is negated: a
    closed form that reads theta2 + theta in place of theta2 - theta."""
    def faulted(cfg):
        part, key = field.split(".")
        return form(sweep.set_parameter(cfg, field, -getattr(getattr(cfg, part), key)))
    return faulted


@pytest.mark.parametrize("forms, field", [
    (("slope_at_zero", "lossy_slope_at_zero"), "coherent.phase"),
    (("noise_at_zero", "lossy_noise_at_zero"), "nbs1.phase"),
], ids=["cos(theta2 + theta_alpha)-slopes", "cos(theta2 + theta1)-noises"])
@pytest.mark.parametrize("draws", [400, 2000])
def test_phase_faults_fail_only_phase_covariance(monkeypatch, forms, field, draws):
    # a sign fault in a phase difference, in both forms it enters, passes
    # every other analytic check; the shifted phases see it
    for name in forms:
        monkeypatch.setattr(analytic, name, _phase_fault(getattr(analytic, name), field))
    records = verify.run_analytic_suite(seed=0, draws=draws)
    assert {r.check for r in records if not r.passed} == {"phase_covariance"}


def _flip_squeeze_vacuum(monkeypatch):
    real = oracle._squeeze_vacuum
    monkeypatch.setattr(oracle, "_squeeze_vacuum",
                        lambda pump, gain, theta: real(pump, gain, -theta))


def _flip_coherent_amplitude(monkeypatch):
    monkeypatch.setattr(CoherentInput, "amplitude", property(
        lambda self: self.magnitude * complex(math.cos(self.phase), -math.sin(self.phase))))


def _flip_squeezer_gate(monkeypatch):
    real = oracle._squeezer_unitary
    monkeypatch.setattr(oracle, "_squeezer_unitary",
                        lambda gain, theta, cutoff: real(gain, -theta, cutoff))


@pytest.fixture
def fresh_oracle_caches():
    """No prefix or squeezer gate cached before or after the test, so none
    hides a fault or carries one into a later test."""
    gates = oracle._squeezer_unitary  # the cached original, under any patch
    oracle._PREFIXES.clear()
    gates.cache_clear()
    yield
    oracle._PREFIXES.clear()
    gates.cache_clear()


@pytest.mark.parametrize("flip, also_failed", [
    (_flip_squeeze_vacuum, set()),
    (_flip_coherent_amplitude, set()),
    (_flip_squeezer_gate, {"lossy_tail_vs_density"}),
], ids=["nbs1-theta-in-squeeze-vacuum", "coherent-phase", "nbs2-gate-phase"])
def test_oracle_sign_faults_fail_oracle_phase_covariance(monkeypatch, fresh_oracle_caches, flip,
                                                         also_failed):
    # a sign flip of one phase in the Fock pass; the first two pass every
    # other check of both suites
    flip(monkeypatch)
    records = verify.run_suite("all", seed=0)
    assert {r.check for r in records if not r.passed} == {"oracle_phase_covariance", *also_failed}


def _reference_crossing(state, count: int):
    """The sql_threshold_crossing record's (digest, analytic, oracle) as a
    loop over ``count`` scalar paper-scale configs drawn from a generator
    in ``state``, with a scalar threshold search and a scalar sensitivity
    on each loss axis."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    worst = (-1.0, "none", 1.0, 1.0)
    for _ in range(count):
        g1 = rng.uniform(1.5, 2.5)
        cfg = build_config(
            alpha=rng.uniform(8.0, 12.0), g1=g1, g2=g1 * rng.uniform(1.0, 2.0),
            transmissivity=rng.uniform(0.2, 0.3),
        )
        for name in sweep.THRESHOLD_AXES:
            th = sweep.find_sql_threshold(cfg, name)
            if th.found:
                probe = sweep.set_parameter(cfg, name, th.eta_star)
                dphi = analytic.sensitivity(probe).delta_phi
                rel = abs(dphi - th.sql) / max(dphi, th.sql)
                if rel > worst[0]:
                    worst = (rel, config_digest(probe), dphi, th.sql)
    return worst[1:]


def _record_bits(rec):
    return (rec.config_digest, rec.analytic.hex(), rec.oracle.hex(), rec.rel_err.hex(),
            rec.passed)


class TestThresholdCrossing:
    @pytest.mark.parametrize("draws", [100, 400, 2000])
    @pytest.mark.parametrize("seed", range(4))
    def test_record_equals_the_scalar_loop(self, monkeypatch, seed, draws):
        # the generator's state where the family starts drawing
        states = []
        real = verify._paper_draw

        def drawing(rng):
            states.append(rng.bit_generator.state)
            return real(rng)

        monkeypatch.setattr(verify, "_paper_draw", drawing)
        (rec,) = [r for r in verify.run_analytic_suite(seed=seed, draws=draws)
                  if r.check == "sql_threshold_crossing"]
        assert len(states) == max(1, draws // 200)
        records, record = verify._suite_records(None)
        record("sql_threshold_crossing", *_reference_crossing(states[0], len(states)), 1e-12)
        assert rec.config_digest != "none"
        assert _record_bits(rec) == _record_bits(records[0])

    def test_no_crossing_records_none(self, monkeypatch):
        monkeypatch.setattr(sweep, "sql_thresholds", lambda cfg: np.full((6, 1), np.nan))
        (rec,) = [r for r in verify.run_analytic_suite(seed=0, draws=100)
                  if r.check == "sql_threshold_crossing"]
        assert (rec.check, rec.config_digest, rec.analytic, rec.oracle, rec.passed) == (
            "sql_threshold_crossing", "none", 1.0, 1.0, True)

    @pytest.mark.parametrize("draws", [100, 2000])
    def test_work_count(self, monkeypatch, draws):
        # calls made between the record before the family and its own
        counts = collections.Counter()
        for owner, name in ((analytic, "evaluate"), (analytic, "sensitivity"),
                            (sweep, "find_sql_threshold")):
            def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        seen = {}
        real = verify._suite_records

        def suite_records(mutate):
            records, record = real(mutate)

            def marking(check, *args, **kwargs):
                seen[check] = counts.copy()
                record(check, *args, **kwargs)

            return records, marking

        monkeypatch.setattr(verify, "_suite_records", suite_records)
        verify.run_analytic_suite(seed=0, draws=draws)
        after, before = seen["sql_threshold_crossing"], seen["linear_argmax_half"]
        assert {k: after[k] - before[k] for k in ("evaluate", "sensitivity", "find_sql_threshold")} \
            == {"evaluate": 2, "sensitivity": 0, "find_sql_threshold": 0}
