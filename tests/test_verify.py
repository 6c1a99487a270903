import pytest

from kerrmzi import analytic, oracle, verify
from kerrmzi.config import build_config, config_digest


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
    "lossy_tail_vs_density",
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

    def test_linear_argmax_is_the_zero_pump_cell(self, analytic_records):
        # read from the cell N_a = g1 = 0 of the optimal-split search
        (rec,) = [r for r in analytic_records if r.check == "linear_argmax_half"]
        assert rec.analytic.hex() == analytic.argmax_linear_slope_transmissivity().hex()

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
        errors, converged = verify._lossy_errors(cfg, verify._LOSSY_CUTOFF, verify._LOSSY_BUDGET)
        assert max(errors) <= verify._LOSSY_TOL
        assert all(converged)

    def test_lossy_records_name_their_own_worst_config(self, monkeypatch):
        # the slope is worst on the first lossy draw, the noise on the
        # second: each record carries the digest of its own worst config
        errors = iter([(3e-9, 1e-9), (1e-9, 4e-9), (2e-9, 2e-9)])
        digests = []

        def fake(cfg, cutoff, budget):
            digests.append(config_digest(cfg))
            return next(errors), (True, True)

        monkeypatch.setattr(verify, "_lossy_errors", fake)
        records = {r.check: r for r in verify.run_oracle_suite(seed=0)}
        assert len(set(digests)) == 3
        slope, noise = records["lossy_slope_vs_closed_form"], records["lossy_noise_vs_closed_form"]
        assert (slope.config_digest, slope.rel_err) == (digests[0], pytest.approx(3e-9))
        assert (noise.config_digest, noise.rel_err) == (digests[1], pytest.approx(4e-9))

    def test_expected_checks_present(self, oracle_records):
        assert tuple(r.check for r in oracle_records) == ORACLE_CHECKS

    def test_one_forward_pass_per_configuration_and_cutoff(self, monkeypatch):
        # the canonical slope and variance at the cutoff and its double, the
        # six QFI draws at the cutoff, each of the three lossy draws at the
        # lossy cutoff and its double, then simulate's density tail and the
        # moment pass it is checked against; every pass enters by the one
        # door to the Fock pass
        cutoffs = []
        entry = oracle._entering_kerr

        def counting(config, cutoff, *args, **kwargs):
            cutoffs.append(cutoff)
            return entry(config, cutoff, *args, **kwargs)

        monkeypatch.setattr(oracle, "_entering_kerr", counting)
        verify.run_oracle_suite(seed=0)
        lossy = verify._LOSSY_CUTOFF
        assert cutoffs == [15, 30] + 6 * [15] + 3 * [lossy, 2 * lossy] + [lossy, lossy]


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
        ["qfi_reassembly", "optimal_split_argmax", "linear_argmax_half", "sql_threshold_crossing"],
    )
    def test_mutated_analytic_check_fails(self, check):
        records = verify.run_analytic_suite(seed=1, draws=100, mutate=check)
        failed = {r.check for r in records if not r.passed}
        assert failed == {check}

    @pytest.mark.parametrize(
        "check",
        ["tmsv_occupancy", "bs_convention_m1", "bs_convention_m0", "loss_coherent_amplitude",
         "variance_vs_closed_form", "qfi_vs_polynomial", "lossy_slope_vs_closed_form",
         "lossy_tail_vs_density", "arm_occupancy"],
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
