import pytest

from kerrmzi import verify
from kerrmzi.config import build_config


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
)
ORACLE_CHECKS = (
    "tmsv_occupancy",
    "coherent_mean_photon",
    "bs_convention_m1",
    "bs_convention_m0",
    "loss_cptp",
    "loss_coherent_amplitude",
    "slope_vs_closed_form",
    "variance_vs_closed_form",
    "qfi_vs_polynomial",
    "lossy_slope_vs_closed_form",
    "lossy_noise_vs_closed_form",
    "arm_occupancy",
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
        errors = verify._lossy_errors(cfg, verify._LOSSY_CUTOFF, verify._LOSSY_BUDGET)
        assert max(errors) <= verify._LOSSY_TOL

    def test_expected_checks_present(self, oracle_records):
        assert tuple(r.check for r in oracle_records) == ORACLE_CHECKS


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
        "check", ["qfi_reassembly", "linear_argmax_half", "sql_threshold_crossing"]
    )
    def test_mutated_analytic_check_fails(self, check):
        records = verify.run_analytic_suite(seed=1, draws=100, mutate=check)
        failed = {r.check for r in records if not r.passed}
        assert failed == {check}

    @pytest.mark.parametrize(
        "check",
        ["tmsv_occupancy", "bs_convention_m1", "bs_convention_m0", "loss_coherent_amplitude",
         "variance_vs_closed_form", "qfi_vs_polynomial", "lossy_slope_vs_closed_form",
         "arm_occupancy"],
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
