import math

import numpy as np
import pytest

from kerrmzi import analytic
from kerrmzi.config import build_config
from kerrmzi.sweep import (
    Axis,
    SweepResult,
    SweepSpec,
    SweepSpecError,
    find_sql_threshold,
    run_sweep,
    set_parameter,
)

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

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        spec = SweepSpec(
            base=FIG4_BASE,
            axes=(Axis.linspace("loss.eta_d", 0.1, 1.0, 7),),
        )
        result = run_sweep(spec)
        path = tmp_path / "out.csv"
        path.write_bytes(b"old bytes\n")

        def lines_then_fail(self):
            yield self.csv_header()
            raise OSError("disk full")

        monkeypatch.setattr(SweepResult, "csv_lines", lines_then_fail)
        with pytest.raises(OSError, match="disk full"):
            result.write_csv(path)
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestFindSqlThreshold:
    def test_internal_threshold(self):
        result = find_sql_threshold(FIG4_BASE, "loss.eta_d")
        assert result.found
        assert result.eta_star == pytest.approx(0.30, abs=0.05)
        dphi = analytic.sensitivity(
            set_parameter(FIG4_BASE, "loss.eta_d", result.eta_star)
        ).delta_phi
        assert abs(dphi - result.sql) / result.sql < 1e-6

    def test_external_diagonal_threshold(self):
        result = find_sql_threshold(FIG4_BASE, "eta_ab")
        assert result.found
        assert result.eta_star == pytest.approx(0.60, abs=0.05)

    def test_bracket_independence(self):
        a = find_sql_threshold(FIG4_BASE, "loss.eta_d", eta_floor=1e-6)
        b = find_sql_threshold(FIG4_BASE, "loss.eta_d", eta_floor=0.05)
        assert a.eta_star == pytest.approx(b.eta_star, abs=1e-5)

    def test_no_crossing_when_never_beating_sql(self):
        weak = build_config(alpha=10.0, g1=2.0, g2=0.5, transmissivity=0.25)
        result = find_sql_threshold(weak, "loss.eta_d")
        assert not result.found
        assert "does not beat the SQL" in result.reason

    def test_no_crossing_when_always_beating_sql(self):
        # detection-type external scan that never drags the sensitivity
        # over the SQL within the floor
        result = find_sql_threshold(FIG4_BASE, "loss.eta_a", eta_floor=0.9)
        assert not result.found
        assert "stays below" in result.reason
