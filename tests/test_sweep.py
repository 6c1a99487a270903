import dataclasses
import errno
import itertools
import math
import os
import re
import warnings

import numpy as np
import pytest

from kerrmzi import analytic, sweep
from kerrmzi.config import build_config, field_errors
from kerrmzi.sweep import (
    SWEEPABLE_PARAMETERS,
    THRESHOLD_AXES,
    Axis,
    SweepResult,
    SweepSpec,
    SweepSpecError,
    find_sql_threshold,
    on_threshold_axes,
    run_sweep,
    set_parameter,
    sql_thresholds,
)
from kerrmzi.verify import _columns, _desk_draw, _paper_draw

FIG4_BASE = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25)


class TestSetParameter:
    def test_field_paths(self):
        cfg = set_parameter(FIG4_BASE, "loss.eta_d", 0.5)
        assert cfg.loss.eta_d == 0.5
        assert cfg.loss.eta_c == 1.0
        cfg = set_parameter(FIG4_BASE, "splitter.transmissivity", 0.4)
        assert cfg.splitter.transmissivity == 0.4

    def test_derived_ratio_axes(self):
        cfg = set_parameter(FIG4_BASE, "g2_over_g1", 1.5)
        assert cfg.nbs2.g == pytest.approx(3.0, rel=1e-12)
        cfg = set_parameter(FIG4_BASE, "r_over_t", 3.0)
        assert cfg.splitter.transmissivity == pytest.approx(0.25, rel=1e-15)
        cfg = set_parameter(FIG4_BASE, "eta_ab", 0.7)
        assert cfg.loss.eta_a == 0.7 and cfg.loss.eta_b == 0.7

    def test_unknown_parameter(self):
        with pytest.raises(SweepSpecError, match="unknown sweep parameter"):
            set_parameter(FIG4_BASE, "mirror.angle", 0.1)

    def test_base_not_mutated(self):
        set_parameter(FIG4_BASE, "loss.eta_d", 0.1)
        assert FIG4_BASE.loss.eta_d == 1.0


class TestSpecValidation:
    def test_single_point_axis_rejected(self):
        with pytest.raises(SweepSpecError, match="point count"):
            Axis.linspace("loss.eta_d", 0.0, 1.0, 1)
        with pytest.raises(SweepSpecError, match="point count"):
            Axis.from_values("loss.eta_d", [0.5])

    def test_axis_count_bounds(self):
        ax = Axis.linspace("loss.eta_d", 0.1, 1.0, 3)
        with pytest.raises(SweepSpecError, match="1 or 2 axes"):
            SweepSpec(base=FIG4_BASE, axes=(ax, ax, ax)).validated()

    def test_unresolvable_axis_name(self):
        ax = Axis.linspace("bogus.field", 0.0, 1.0, 3)
        with pytest.raises(SweepSpecError, match="unknown sweep parameter .bogus.field."):
            SweepSpec(base=FIG4_BASE, axes=(ax,)).validated()

    @pytest.mark.parametrize(
        "name, value, problem",
        [
            ("loss.eta_a", 1.5, "loss.eta_a outside [0,1] (got 1.5)"),
            ("loss.eta_det", 1.7, "loss.eta_det outside (0,1] (got 1.7)"),
            ("coherent.magnitude", math.nan, "coherent.magnitude not finite"),
            ("r_over_t", -1.0, "splitter.transmissivity not finite"),
            ("eta_ab", 2.0, "loss.eta_a outside [0,1] (got 2.0)"),
        ],
    )
    def test_invalid_axis_value_rejected(self, name, value, problem):
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(
                Axis.from_values("loss.eta_c", [0.5, 1.0]),
                Axis.from_values(name, [0.5, value]),
            ),
        )
        message = f"axis '{name}' value {value!r}: {problem}"
        with pytest.raises(SweepSpecError, match=re.escape(message)):
            run_sweep(spec)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (
                [0.5, 1.5, 0.7, -2.0],
                [0.2, -0.5, 0.3],
                "axis 'loss.eta_c' value 1.5: loss.eta_c outside [0,1] (got 1.5)",
            ),
            (
                [0.5, 0.6, 0.7],
                [0.2, 0.4, math.inf, 1.5, 0.3],
                "axis 'eta_ab' value inf: loss.eta_a not finite; loss.eta_b not finite",
            ),
        ],
    )
    def test_first_invalid_mid_axis_value_named(self, first, second, message):
        # axis by axis, value by value: the first axis wins, then the first
        # invalid value along the axis
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(Axis.from_values("loss.eta_c", first), Axis.from_values("eta_ab", second)),
        )
        with pytest.raises(SweepSpecError) as exc:
            spec.validated()
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", SWEEPABLE_PARAMETERS)
    def test_array_check_agrees_with_each_value(self, name):
        # the one-array-config check flags an axis exactly when a value set
        # alone on the base is invalid
        rng = np.random.default_rng(len(name))
        values = rng.uniform(-3.0, 3.0, 40)
        values[7] = math.nan
        for chunk in (values[:7], values[7:12], values[12:]):
            array_bad = bool(field_errors(set_parameter(FIG4_BASE, name, chunk)))
            scalar_bad = any(
                field_errors(set_parameter(FIG4_BASE, name, v)) for v in chunk.tolist()
            )
            assert array_bad == scalar_bad


class TestRunSweep:
    def test_row_count_and_order(self):
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(
                Axis.from_values("loss.eta_c", [0.5, 1.0]),
                Axis.from_values("loss.eta_d", [0.25, 0.75, 1.0]),
            ),
        )
        result = run_sweep(spec)
        assert len(result.rows) == 6
        # row-major: first axis outermost
        assert [r.axis_values for r in result.rows] == [
            (0.5, 0.25), (0.5, 0.75), (0.5, 1.0),
            (1.0, 0.25), (1.0, 0.75), (1.0, 1.0),
        ]

    def test_rows_built_once(self):
        spec = SweepSpec(
            base=FIG4_BASE, axes=(Axis.from_values("loss.eta_d", [0.5, 1.0]),)
        )
        r = run_sweep(spec)
        assert r.rows is r.rows

    def test_undefined_points_flagged_not_dropped(self):
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(Axis.from_values("loss.eta_d", [0.0, 0.5, 1.0]),),
        )
        result = run_sweep(spec)
        assert len(result.rows) == 3
        dead = result.rows[0]
        assert not dead.defined
        assert math.isinf(dead.delta_phi)
        assert not dead.beats_sql
        assert all(r.defined for r in result.rows[1:])

    def test_sql_constant_along_loss_axes(self):
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(
                Axis.linspace("loss.eta_a", 0.2, 1.0, 4),
                Axis.linspace("loss.eta_b", 0.2, 1.0, 4),
            ),
        )
        sql = run_sweep(spec).column("sql")
        assert np.all(sql == sql[0])

    def test_delta_phi_monotone_along_each_loss_axis(self):
        for name in ("loss.eta_a", "loss.eta_b", "loss.eta_c", "loss.eta_d"):
            spec = SweepSpec(
                base=FIG4_BASE, axes=(Axis.linspace(name, 0.05, 1.0, 30),)
            )
            dphi = run_sweep(spec).column("delta_phi")
            assert np.all(np.diff(dphi) <= 1e-12), name

    def test_every_defined_row_respects_qcrb(self):
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(Axis.linspace("g2_over_g1", 0.5, 4.0, 15),),
        )
        result = run_sweep(spec)
        for row in result.rows:
            if row.defined:
                assert row.delta_phi >= row.qcrb * (1 - 1e-12)

    def test_determinism_bit_identical(self, tmp_path):
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(Axis.linspace("loss.eta_d", 0.1, 1.0, 7),),
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(spec).write_csv(p1)
        run_sweep(spec).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_schema(self, tmp_path):
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(Axis.from_values("loss.eta_d", [0.0, 1.0]),),
        )
        path = tmp_path / "out.csv"
        run_sweep(spec).write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "loss.eta_d,delta_phi,sql,qcrb,beats_sql,defined"
        undefined_row = lines[1].split(",")
        assert undefined_row[1] == "inf"
        assert undefined_row[-1] == "0"
        defined_row = lines[2].split(",")
        # full round-trip precision
        assert float(defined_row[1]) == pytest.approx(2.617e-4, rel=1e-3)
        assert len(defined_row[1]) >= 17

    def test_csv_cells_formatted_per_value(self):
        # repeated, signed-zero and non-finite values each keep their own text
        x = np.array([0.0, -0.0, 0.1, 0.1, np.inf, np.nan, 1 / 3, -0.0])
        result = SweepResult(("loss.eta_d",), (x,), x, x, x, x > 0, x > 0, x.shape)
        want = [
            ",".join([format(v, ".17g")] * 4 + [str(int(v > 0))] * 2) for v in x.tolist()
        ]
        assert result.csv_text().splitlines()[1:] == want

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        # the write fails once the temp file exists: part-way through the
        # text (a full disk), then at the rename
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(Axis.linspace("loss.eta_d", 0.1, 1.0, 7),),
        )
        result = run_sweep(spec)
        path = tmp_path / "out.csv"
        path.write_bytes(b"old bytes\n")
        at_failure = []

        def fail(code):
            at_failure.append(sorted(p.name for p in tmp_path.iterdir()))
            raise OSError(code, os.strerror(code))

        class FullDisk:
            def __init__(self, name, mode):
                self.fh = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:10])
                self.fh.flush()
                fail(errno.ENOSPC)

        def replace_fails(src, dst):
            fail(errno.EACCES)

        for target, name, fake in ((sweep, "open", FullDisk), (os, "replace", replace_fails)):
            with monkeypatch.context() as m:
                m.setattr(target, name, fake, raising=False)
                with pytest.raises(OSError) as info:
                    result.write_csv(path)
            assert info.value.filename == str(path)
            assert path.read_bytes() == b"old bytes\n"
            assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert [len(names) for names in at_failure] == [2, 2]
        assert all(names[1].endswith(".tmp") for names in at_failure)


# value ranges of the agreement grids; every lower end that can zero the
# slope (g2 = 0, alpha = 0, eta_b * eta_d = 0) is on its grid
AGREEMENT_RANGES = {
    "nbs1.gain": (1.0, 3.0),
    "nbs1.phase": (-math.pi, math.pi),
    "nbs2.gain": (1.0, 5.0),
    "nbs2.phase": (-math.pi, math.pi),
    "splitter.transmissivity": (0.0, 1.0),
    "coherent.magnitude": (0.0, 12.0),
    "coherent.phase": (-math.pi, math.pi),
    "phase.linear": (-math.pi, math.pi),
    "phase.nonlinear": (-0.5, 0.5),
    "loss.eta_a": (0.0, 1.0),
    "loss.eta_b": (0.0, 1.0),
    "loss.eta_c": (0.0, 1.0),
    "loss.eta_d": (0.0, 1.0),
    "loss.eta_det": (0.05, 1.0),
    "g2_over_g1": (0.0, 4.0),
    "r_over_t": (0.0, 9.0),
    "eta_ab": (0.0, 1.0),
}


def _agreement_base(rng):
    return build_config(
        alpha=rng.uniform(0.5, 12.0),
        theta_alpha=rng.uniform(-0.3, 0.3),
        g1=rng.uniform(0.0, 3.0),
        theta1=rng.uniform(-0.3, 0.3),
        g2=rng.uniform(0.1, 5.0),
        theta2=math.pi + rng.uniform(-0.3, 0.3),
        transmissivity=rng.uniform(0.05, 0.95),
        eta_a=rng.uniform(0.3, 1.0),
        eta_b=rng.uniform(0.3, 1.0),
        eta_c=rng.uniform(0.3, 1.0),
        eta_d=rng.uniform(0.3, 1.0),
        eta_det=rng.uniform(0.3, 1.0),
    )


def _agreement_axis(rng, name, count):
    lo, hi = AGREEMENT_RANGES[name]
    return Axis.from_values(name, [lo, *np.sort(rng.uniform(lo, hi, count - 1))])


@pytest.mark.parametrize("seed", range(len(SWEEPABLE_PARAMETERS)))
def test_sweep_cells_equal_scalar_sensitivity(seed):
    """Each cell of a seeded 2-D sweep is what ``sensitivity`` gives for
    the same config, bit for bit, or the sensitivity is undefined there.
    Seed i sweeps parameter i against a random other one."""
    rng = np.random.default_rng(seed)
    base = _agreement_base(rng)
    if seed % 3 == 0:
        base = set_parameter(base, "loss.eta_det", 1.0)
    first = SWEEPABLE_PARAMETERS[seed]
    others = [n for n in SWEEPABLE_PARAMETERS if n != first]
    names = (first, others[rng.integers(len(others))])
    axes = (_agreement_axis(rng, names[0], 6), _agreement_axis(rng, names[1], 5))
    result = run_sweep(SweepSpec(base=base, axes=axes))
    undefined = 0
    for row in result.rows:
        cfg = base
        for axis, value in zip(axes, row.axis_values):
            cfg = set_parameter(cfg, axis.name, value)
        if not row.defined:
            undefined += 1
            with pytest.raises(analytic.UndefinedSensitivityError):
                analytic.sensitivity(cfg)
            continue
        report = analytic.sensitivity(cfg)
        got = [row.delta_phi, row.sql, row.qcrb]
        want = [report.delta_phi, report.sql, report.qcrb]
        assert [v.hex() for v in got] == [v.hex() for v in want], (names, row)
    zeroing = {"nbs2.gain", "coherent.magnitude", "loss.eta_b", "loss.eta_d",
               "g2_over_g1", "r_over_t", "eta_ab", "splitter.transmissivity"}
    if zeroing & set(names):
        assert undefined > 0


class TestFindSqlThreshold:
    def test_internal_threshold(self):
        result = find_sql_threshold(FIG4_BASE, "loss.eta_d")
        assert result.found
        assert result.eta_star == pytest.approx(0.30, abs=0.05)
        dphi = analytic.sensitivity(
            set_parameter(FIG4_BASE, "loss.eta_d", result.eta_star)
        ).delta_phi
        assert abs(dphi - result.sql) / result.sql < 1e-12

    def test_external_diagonal_threshold(self):
        result = find_sql_threshold(FIG4_BASE, "eta_ab")
        assert result.found
        assert result.eta_star == pytest.approx(0.60, abs=0.05)

    def test_no_crossing_when_never_beating_sql(self):
        weak = build_config(alpha=10.0, g1=2.0, g2=0.5, transmissivity=0.25)
        result = find_sql_threshold(weak, "loss.eta_d")
        assert not result.found
        assert "does not beat the SQL" in result.reason

    def test_no_crossing_when_always_beating_sql(self):
        # a strong readout squeezer on a weak pump beats the SQL at every
        # eta_a in (0, 1]: delta_phi / SQL stays below 0.973
        cfg = build_config(alpha=0.86, g1=0.3, g2=5.0, transmissivity=0.13)
        eta = np.linspace(0.0, 1.0, 10001)[1:]
        out = analytic.evaluate(set_parameter(cfg, "loss.eta_a", eta))
        assert np.all(out.delta_phi < out.sql)
        result = find_sql_threshold(cfg, "loss.eta_a")
        assert not result.found
        assert "stays below" in result.reason

    @pytest.mark.parametrize("name", THRESHOLD_AXES)
    def test_beats_sql_exactly_above_threshold(self, name):
        rng = np.random.default_rng(THRESHOLD_AXES.index(name))
        eta = np.linspace(0.0, 1.0, 4001)
        for _ in range(5):
            cfg = build_config(**_paper_draw(rng))
            eta_star = find_sql_threshold(cfg, name).eta_star
            out = analytic.evaluate(set_parameter(cfg, name, eta))
            beats = out.delta_phi < out.sql
            assert np.all(beats[eta > eta_star])
            assert not np.any(beats[(eta < eta_star) & (eta > eta_star - 1e-2)])
            probe = np.array([1.0 - 1e-9, 1.0 + 1e-9]) * eta_star
            out = analytic.evaluate(set_parameter(cfg, name, probe))
            assert (out.delta_phi < out.sql).tolist() == [False, True]

    @pytest.mark.parametrize("alpha", [1e52, 1e55, 1e80, 1e100])
    def test_pumps_past_1e51_find_their_crossing(self, alpha):
        # delta_phi / SQL does not depend on the pump's scale here, though
        # SQL^2 = N_ps^-3 underflows past a pump of about 1e51
        shape = {"g1": 1.0, "g2": 2.5, "transmissivity": 0.25}
        want = sql_thresholds(build_config(alpha=1e10, **shape))
        cfg = build_config(alpha=alpha, **shape)
        eta = sql_thresholds(cfg)
        assert eta == pytest.approx(want, rel=1e-14, abs=0.0)
        for j, name in enumerate(THRESHOLD_AXES):
            assert find_sql_threshold(cfg, name).eta_star == eta[j]

    # a 1e200 pump gives N_ps = inf and an SQL of 0, and margins 0 * inf;
    # N_ps^(3/2) overflows at a 1e150 pump (SQL 0) and underflows at a
    # 1e-150 pump (SQL inf); at a 1e-80 pump the SQL is finite and
    # (SQL slope)^2 overflows wherever the slope is not zero: at eta = 1 on
    # every axis, and at eta = 0 on the two arms that keep a slope there
    @pytest.mark.parametrize("alpha, g1, problem", [
        (1e200, 1.0, r"SQL 0\.0 or margins \[nan"), (1e150, 0.0, r"SQL 0\.0 or"),
        (1e-150, 0.0, r"SQL inf or"),
        (1e-80, 0.0, r"SQL 1e\+240 or margins \[(-inf|1\.0|1\.5000000000000004), -inf, -inf\]"),
    ])
    def test_out_of_range_margins_rejected(self, alpha, g1, problem):
        cfg = build_config(alpha=alpha, g1=g1, g2=2.0 * g1 + 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in THRESHOLD_AXES:
                with pytest.raises(ValueError, match=problem + ".* out of floating-point range"):
                    find_sql_threshold(cfg, name)
            assert np.isnan(sql_thresholds(cfg)).all()

    def test_vacuum_thresholds_are_nan_without_warnings(self):
        # N_ps = 0: the scalar search refuses it, the array pass keeps nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(sql_thresholds(build_config())).all()
            with pytest.raises(ValueError, match="n_ps must be positive"):
                find_sql_threshold(build_config(), "loss.eta_d")

    @pytest.mark.parametrize("name", ["splitter.transmissivity", "g2_over_g1", "loss"])
    def test_only_loss_axes_accepted(self, name):
        with pytest.raises(SweepSpecError, match="loss axes: loss.eta_a, .*eta_ab"):
            find_sql_threshold(FIG4_BASE, name)


def _quadratic_roots(a: float, b: float, c: float) -> list:
    """Real roots of a x^2 + b x + c, each computed without cancellation."""
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    q = -0.5 * (b + math.sqrt(disc) if b >= 0 else b - math.sqrt(disc))
    return [num / den for num, den in ((q, a), (c, q)) if den != 0]


def _reference_threshold(config, name):
    """(eta*, reason) of the scalar search in Python float arithmetic."""
    sql = analytic.sql_nonlinear(config.n_ps)
    s = np.array([0.0, 0.5, 1.0])
    out = analytic.evaluate(set_parameter(config, name, s * s))
    f0, fh, f1 = (out.noise - (sql * out.slope) ** 2).tolist()
    if f1 >= 0:
        return None, sweep._NO_ADVANTAGE
    a, b = 2.0 * (f1 + f0) - 4.0 * fh, 4.0 * fh - f1 - 3.0 * f0
    roots = [r for r in _quadratic_roots(a, b, f0) if 0.0 < r < 1.0]
    if not roots:
        return None, sweep._NO_CROSSING
    r = max(roots)
    return r * r, ""


def _seeded_draws(seed: int, count: int) -> list:
    """build_config keywords of paper-scale and desk-scale configs, alternating."""
    rng = np.random.default_rng(seed)
    return [(_desk_draw if i % 2 else _paper_draw)(rng) for i in range(count)]


def _bits(eta):
    return None if eta is None or math.isnan(eta) else float(eta).hex()


class TestThresholdReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_search_equals_python_roots(self, seed):
        reasons = set()
        for cfg in (build_config(**draw) for draw in _seeded_draws(seed, 40)):
            for name in THRESHOLD_AXES:
                result = find_sql_threshold(cfg, name)
                eta, reason = _reference_threshold(cfg, name)
                assert (_bits(result.eta_star), result.reason) == (_bits(eta), reason)
                assert result.sql == analytic.sql_nonlinear(cfg.n_ps)
                reasons.add(reason)
        # a found crossing and both no-crossing reasons
        assert reasons == {"", sweep._NO_ADVANTAGE, sweep._NO_CROSSING}

    @pytest.mark.parametrize("seed", range(4))
    def test_array_thresholds_equal_scalar_searches(self, seed):
        draws = _seeded_draws(seed, 60)
        eta = sql_thresholds(build_config(**_columns(draws)))
        assert eta.shape == (len(THRESHOLD_AXES), len(draws))
        for i, cfg in enumerate(build_config(**draw) for draw in draws):
            for j, name in enumerate(THRESHOLD_AXES):
                assert _bits(eta[j, i]) == _bits(find_sql_threshold(cfg, name).eta_star)

    def test_root_kernel_equals_python_roots(self):
        # random samples around a sign change of f, most with a root in (0, 1)
        rng = np.random.default_rng(0)
        f0, fh, f1 = rng.uniform(-1.0, 1.0, (3, 20000)) * np.array([[1.0], [1.0], [3.0]])
        eta = sweep._crossing_eta(f0, fh, f1)
        found = 0
        for i, (x0, xh, x1) in enumerate(zip(f0.tolist(), fh.tolist(), f1.tolist())):
            a, b = 2.0 * (x1 + x0) - 4.0 * xh, 4.0 * xh - x1 - 3.0 * x0
            roots = [r for r in _quadratic_roots(a, b, x0) if 0.0 < r < 1.0]
            want = max(roots) * max(roots) if roots and x1 < 0 else None
            assert _bits(eta[i]) == _bits(want)
            found += want is not None
        assert found > 5000

    def test_root_kernel_nan_at_non_finite_samples(self):
        values = [-math.inf, -1.0, -1e-300, 0.0, 0.3, 1e308, math.inf, math.nan]
        f0, fh, f1 = np.array(list(itertools.product(values, repeat=3))).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = sweep._crossing_eta(f0, fh, f1)
        finite = np.isfinite(f0) & np.isfinite(fh) & np.isfinite(f1)
        assert np.isnan(eta[~finite]).all()

    def test_shapes(self):
        assert sql_thresholds(FIG4_BASE).shape == (6,)
        assert [_bits(e) for e in sql_thresholds(FIG4_BASE)] == [
            _bits(find_sql_threshold(FIG4_BASE, name).eta_star) for name in THRESHOLD_AXES
        ]
        # a (2, 3) grid over g2 and alpha
        grid = set_parameter(FIG4_BASE, "nbs2.gain", np.array([[3.0], [5.0]]))
        grid = set_parameter(grid, "coherent.magnitude", np.array([6.0, 8.0, 10.0]))
        eta = sql_thresholds(grid)
        assert eta.shape == (6, 2, 3)
        for k, g2 in enumerate((3.0, 5.0)):
            for m, alpha in enumerate((6.0, 8.0, 10.0)):
                cell = set_parameter(set_parameter(FIG4_BASE, "nbs2.gain", g2),
                                     "coherent.magnitude", alpha)
                assert [_bits(e) for e in eta[:, k, m]] == [
                    _bits(find_sql_threshold(cell, name).eta_star) for name in THRESHOLD_AXES
                ]

    def test_no_crossing_cells_are_nan(self):
        weak = build_config(alpha=10.0, g1=2.0, g2=0.5, transmissivity=0.25)
        assert np.isnan(sql_thresholds(weak)).all()
        always = build_config(alpha=0.86, g1=0.3, g2=5.0, transmissivity=0.13)
        assert np.isnan(sql_thresholds(always)[THRESHOLD_AXES.index("loss.eta_a")])

    def test_on_threshold_axes_sets_each_row_like_set_parameter(self):
        values = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        stacked = on_threshold_axes(FIG4_BASE, values)
        for i, name in enumerate(THRESHOLD_AXES):
            row = set_parameter(FIG4_BASE, name, values[i]).loss
            assert [getattr(stacked.loss, f.name)[i] for f in dataclasses.fields(row)] == [
                getattr(row, f.name) for f in dataclasses.fields(row)
            ]

    def test_one_evaluate_call(self, monkeypatch):
        calls = []
        real = analytic.evaluate
        monkeypatch.setattr(analytic, "evaluate", lambda cfg: calls.append(cfg) or real(cfg))
        sql_thresholds(build_config(**_columns(_seeded_draws(0, 10))))
        assert len(calls) == 1
        # the loss samples of each axis against the ten configs' pumps
        fields = [getattr(calls[0].loss, f) for f in sweep._SETS] + [calls[0].coherent.magnitude]
        assert np.broadcast(*fields).shape == (6, 3, 10)
