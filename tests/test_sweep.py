import errno
import math
import os
import re

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
    run_sweep,
    set_parameter,
)
from kerrmzi.verify import _random_paper_config

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
        with pytest.raises(SweepSpecError, match="does not resolve"):
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
        result = SweepResult(("loss.eta_d",), (x,), x, x, x, x > 0, x > 0)
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
            cfg = _random_paper_config(rng)
            eta_star = find_sql_threshold(cfg, name).eta_star
            out = analytic.evaluate(set_parameter(cfg, name, eta))
            beats = out.delta_phi < out.sql
            assert np.all(beats[eta > eta_star])
            assert not np.any(beats[(eta < eta_star) & (eta > eta_star - 1e-2)])
            probe = np.array([1.0 - 1e-9, 1.0 + 1e-9]) * eta_star
            out = analytic.evaluate(set_parameter(cfg, name, probe))
            assert (out.delta_phi < out.sql).tolist() == [False, True]

    @pytest.mark.parametrize("name", ["splitter.transmissivity", "g2_over_g1", "loss"])
    def test_only_loss_axes_accepted(self, name):
        with pytest.raises(SweepSpecError, match="loss axes: loss.eta_a, .*eta_ab"):
            find_sql_threshold(FIG4_BASE, name)
