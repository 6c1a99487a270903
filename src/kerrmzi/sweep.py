"""Parameter-grid evaluation and loss-threshold finding.

Sweeps evaluate the closed-form sensitivity pipeline only; the Fock
simulator never runs inside a grid.  Rows are produced in row-major order
over the axes, deterministically, and serialize to CSV with 17
significant digits so byte-identical reruns are guaranteed.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analytic
from .config import InterferometerConfig, validate


# Sweepable parameters: dotted dataclass paths plus a few derived axes that
# figure reproductions need.
_DERIVED_AXES = ("g2_over_g1", "r_over_t", "eta_ab")

_FIELD_AXES = (
    "nbs1.gain",
    "nbs1.phase",
    "nbs2.gain",
    "nbs2.phase",
    "splitter.transmissivity",
    "coherent.magnitude",
    "coherent.phase",
    "phase.linear",
    "phase.nonlinear",
    "loss.eta_a",
    "loss.eta_b",
    "loss.eta_c",
    "loss.eta_d",
    "loss.eta_det",
)

SWEEPABLE_PARAMETERS = _FIELD_AXES + _DERIVED_AXES


class SweepSpecError(ValueError):
    """Raised for malformed sweep specifications."""


def set_parameter(
    config: InterferometerConfig, name: str, value: float
) -> InterferometerConfig:
    """Return a copy of ``config`` with one sweepable parameter replaced.

    Derived axes: ``g2_over_g1`` sets the readout squeezer amplitude to
    value * g1, ``r_over_t`` sets the splitter to T = 1 / (1 + value),
    ``eta_ab`` sets eta_a and eta_b jointly (the external-loss diagonal).
    """
    if name == "g2_over_g1":
        g2 = value * config.nbs1.g
        return dataclasses.replace(
            config,
            nbs2=dataclasses.replace(config.nbs2, gain=math.hypot(1.0, g2)),
        )
    if name == "r_over_t":
        return dataclasses.replace(
            config,
            splitter=dataclasses.replace(
                config.splitter, transmissivity=1.0 / (1.0 + value)
            ),
        )
    if name == "eta_ab":
        return dataclasses.replace(
            config, loss=dataclasses.replace(config.loss, eta_a=value, eta_b=value)
        )
    if name not in _FIELD_AXES:
        raise SweepSpecError(
            f"unknown sweep parameter '{name}'; known: {', '.join(SWEEPABLE_PARAMETERS)}"
        )
    group, field = name.split(".")
    part = dataclasses.replace(getattr(config, group), **{field: value})
    return dataclasses.replace(config, **{group: part})


@dataclass(frozen=True)
class Axis:
    """One sweep axis: a parameter name and its grid values."""

    name: str
    values: tuple

    @classmethod
    def linspace(cls, name: str, lo: float, hi: float, count: int) -> "Axis":
        if count < 2:
            raise SweepSpecError(f"axis '{name}': point count must be >= 2 (got {count})")
        return cls(name=name, values=tuple(np.linspace(lo, hi, count)))

    @classmethod
    def from_values(cls, name: str, values) -> "Axis":
        vals = tuple(float(v) for v in values)
        if len(vals) < 2:
            raise SweepSpecError(f"axis '{name}': point count must be >= 2 (got {len(vals)})")
        return cls(name=name, values=vals)


@dataclass(frozen=True)
class SweepSpec:
    """Base configuration plus one or two axes to grid over."""

    base: InterferometerConfig
    axes: tuple
    repeats: int = 1

    def validated(self) -> "SweepSpec":
        if not 1 <= len(self.axes) <= 2:
            raise SweepSpecError(f"need 1 or 2 axes (got {len(self.axes)})")
        for axis in self.axes:
            if axis.name not in SWEEPABLE_PARAMETERS:
                raise SweepSpecError(
                    f"axis '{axis.name}' does not resolve to a config parameter"
                )
            if len(axis.values) < 2:
                raise SweepSpecError(
                    f"axis '{axis.name}': point count must be >= 2"
                )
        validate(self.base)
        return self


@dataclass(frozen=True)
class SweepRow:
    axis_values: tuple
    delta_phi: float
    sql: float
    qcrb: float
    beats_sql: bool
    defined: bool


@dataclass(frozen=True)
class SweepResult:
    """Grid evaluation output; rows are row-major over the spec axes."""

    axis_names: tuple
    rows: tuple

    def csv_header(self) -> str:
        return ",".join(self.axis_names + ("delta_phi", "sql", "qcrb", "beats_sql", "defined"))

    def csv_lines(self):
        yield self.csv_header()
        for row in self.rows:
            cells = [format(v, ".17g") for v in row.axis_values]
            cells += [
                format(row.delta_phi, ".17g"),
                format(row.sql, ".17g"),
                format(row.qcrb, ".17g"),
                str(int(row.beats_sql)),
                str(int(row.defined)),
            ]
            yield ",".join(cells)

    def write_csv(self, path) -> None:
        write_atomic(path, (line + "\n" for line in self.csv_lines()))

    def column(self, name: str) -> np.ndarray:
        if name in self.axis_names:
            i = self.axis_names.index(name)
            return np.array([r.axis_values[i] for r in self.rows])
        return np.array([getattr(r, name) for r in self.rows])


def write_atomic(path, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` through a temp file in
    the same directory and ``os.replace``, so that ``path`` holds either
    its old bytes or all of the new ones; a failed write leaves no temp
    file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _evaluate_point(config: InterferometerConfig, repeats: int) -> SweepRow:
    try:
        report = analytic.sensitivity(config, repeats)
    except analytic.UndefinedSensitivityError:
        n_ps = config.n_ps
        sql = analytic.sql_nonlinear(n_ps) if n_ps > 0 else math.inf
        return SweepRow((), math.inf, sql, math.nan, False, False)
    return SweepRow(
        (),
        report.delta_phi,
        report.sql,
        report.qcrb,
        report.delta_phi < report.sql,
        True,
    )


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sensitivity pipeline over the whole grid.

    Grid points with zero slope are kept with defined = 0 and an infinite
    delta_phi, never dropped.
    """
    spec = spec.validated()
    grids = [axis.values for axis in spec.axes]
    rows = []
    if len(grids) == 1:
        points = [(v,) for v in grids[0]]
    else:
        points = [(u, v) for u in grids[0] for v in grids[1]]
    for values in points:
        config = spec.base
        for axis, value in zip(spec.axes, values):
            config = set_parameter(config, axis.name, value)
        row = _evaluate_point(config, spec.repeats)
        rows.append(dataclasses.replace(row, axis_values=values))
    return SweepResult(
        axis_names=tuple(a.name for a in spec.axes), rows=tuple(rows)
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a loss-threshold search.

    ``eta_star`` is the transmission at which delta_phi crosses the SQL,
    or None when no crossing exists in (0, 1]; ``reason`` says why.
    """

    parameter: str
    eta_star: float | None
    sql: float
    reason: str = ""

    @property
    def found(self) -> bool:
        return self.eta_star is not None


def find_sql_threshold(
    config: InterferometerConfig,
    loss_parameter: str,
    rel_tol: float = 1e-6,
    eta_floor: float = 1e-6,
    max_iter: int = 200,
) -> ThresholdResult:
    """Bisect for the transmission where the sensitivity crosses the SQL.

    Degrading the scanned transmission must take delta_phi from below the
    SQL (at eta = 1) to above it; otherwise an explicit no-threshold
    result is returned.  The bisection tightens until
    |delta_phi(eta*) - SQL| / SQL < rel_tol.
    """
    sql = analytic.sql_nonlinear(config.n_ps)

    def excess(eta: float) -> float:
        cfg = set_parameter(config, loss_parameter, eta)
        try:
            return analytic.sensitivity(cfg).delta_phi - sql
        except analytic.UndefinedSensitivityError:
            return math.inf

    hi = 1.0
    lo = eta_floor
    f_hi = excess(hi)
    if f_hi >= 0:
        return ThresholdResult(
            loss_parameter,
            None,
            sql,
            "no crossing: sensitivity does not beat the SQL even without loss",
        )
    f_lo = excess(lo)
    if f_lo <= 0:
        return ThresholdResult(
            loss_parameter,
            None,
            sql,
            "no crossing: sensitivity stays below the SQL over the whole scan",
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        if abs(f_mid) / sql < rel_tol:
            return ThresholdResult(loss_parameter, mid, sql)
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(
        f"threshold bisection on '{loss_parameter}' did not reach relative "
        f"tolerance {rel_tol} in {max_iter} iterations"
    )
