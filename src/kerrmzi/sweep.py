"""Parameter-grid evaluation and loss-threshold finding.

Sweeps evaluate the closed-form sensitivity pipeline only; the Fock
simulator never runs inside a grid.  A sweep is one call of
``analytic.evaluate`` on a grid config, whose swept fields hold the flat
row-major grid.  Results are columns, serialized to CSV with 17
significant digits so byte-identical reruns are guaranteed.  An SQL
loss threshold is the root of a quadratic in sqrt(eta), fitted to one
three-point ``analytic.evaluate`` call.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analytic
from .config import _FIELD_WALK, InterferometerConfig, field_errors, validate


# Sweepable parameters: dotted dataclass paths plus a few derived axes that
# figure reproductions need.
_DERIVED_AXES = ("g2_over_g1", "r_over_t", "eta_ab")

_FIELD_AXES = tuple(name for _, _, name in _FIELD_WALK[InterferometerConfig])

SWEEPABLE_PARAMETERS = _FIELD_AXES + _DERIVED_AXES


class SweepSpecError(ValueError):
    """Raised for malformed sweep specifications."""


def set_parameter(
    config: InterferometerConfig, name: str, value: float
) -> InterferometerConfig:
    """Return a copy of ``config`` with one sweepable parameter replaced.

    ``value`` may be a numpy array, which then broadcasts against the
    other fields.  Derived axes: ``g2_over_g1`` sets the readout squeezer
    amplitude to value * g1, ``r_over_t`` sets the splitter to
    T = 1 / (1 + value) (inf at value = -1), ``eta_ab`` sets eta_a and
    eta_b jointly (the external-loss diagonal).
    """
    if name == "g2_over_g1":
        g2 = value * config.nbs1.g
        return dataclasses.replace(
            config,
            nbs2=dataclasses.replace(config.nbs2, gain=np.hypot(1.0, g2)),
        )
    if name == "r_over_t":
        with np.errstate(divide="ignore"):
            t = np.divide(1.0, 1.0 + value)
        return dataclasses.replace(
            config, splitter=dataclasses.replace(config.splitter, transmissivity=t)
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

    def validated(self) -> "SweepSpec":
        """The spec, if its shape, base (else InvalidConfigError) and each
        axis value set alone on the base are valid.  Each axis is
        validated as one array config; on failure the message names the
        first invalid value in axis order and words its errors as that
        value's scalar config does."""
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
        for axis in self.axes:
            if not field_errors(set_parameter(self.base, axis.name, np.array(axis.values))):
                continue
            for value in axis.values:
                errs = field_errors(set_parameter(self.base, axis.name, value))
                if errs:
                    raise SweepSpecError(
                        f"axis '{axis.name}' value {float(value)!r}: " + "; ".join(errs)
                    )
        return self


@dataclass(frozen=True)
class SweepRow:
    axis_values: tuple
    delta_phi: float
    sql: float
    qcrb: float
    beats_sql: bool
    defined: bool


_RESULT_COLUMNS = ("delta_phi", "sql", "qcrb", "beats_sql", "defined")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Grid evaluation output as columns: one flat array per axis and per
    result, row-major over the spec axes (first axis outermost)."""

    axis_names: tuple
    axis_values: tuple
    delta_phi: np.ndarray
    sql: np.ndarray
    qcrb: np.ndarray
    beats_sql: np.ndarray
    defined: np.ndarray

    def __len__(self) -> int:
        return len(self.delta_phi)

    @cached_property
    def rows(self) -> tuple:
        """Read-only row view: one SweepRow per grid point, built once."""
        axes = zip(*(v.tolist() for v in self.axis_values))
        return tuple(map(SweepRow, axes, *(self.column(n).tolist() for n in _RESULT_COLUMNS)))

    def csv_header(self) -> str:
        return ",".join(self.axis_names + _RESULT_COLUMNS)

    def csv_lines(self):
        yield self.csv_header()
        numbers = [*self.axis_values, self.delta_phi, self.sql, self.qcrb]
        columns = [_format_column(c) for c in numbers]
        columns += [np.where(c, "1", "0").tolist() for c in (self.beats_sql, self.defined)]
        for cells in zip(*columns):
            yield ",".join(cells)

    def write_csv(self, path) -> None:
        write_atomic(path, (line + "\n" for line in self.csv_lines()))

    def column(self, name: str) -> np.ndarray:
        if name in self.axis_names:
            return self.axis_values[self.axis_names.index(name)]
        return getattr(self, name)


def _format_column(column: np.ndarray) -> list:
    """Cells of a float column with 17 significant digits.  Each distinct
    bit pattern is formatted once: axis, sql and qcrb columns repeat."""
    bits = np.ascontiguousarray(column, dtype=float).view(np.int64)
    bits, where = np.unique(bits, return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[where].tolist()


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
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # name the path asked for, not the temp file beside it
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sensitivity pipeline over the whole grid in one
    ``analytic.evaluate`` call.

    Grid points with zero slope are kept with defined = 0, an infinite
    delta_phi and a nan qcrb, never dropped.
    """
    spec = spec.validated()
    grids = np.meshgrid(*(np.array(a.values, dtype=float) for a in spec.axes), indexing="ij")
    axis_values = tuple(g.ravel() for g in grids)
    config = spec.base
    for axis, values in zip(spec.axes, axis_values):
        config = set_parameter(config, axis.name, values)
    out = analytic.evaluate(config)
    slope, delta_phi, sql, qcrb = (
        np.broadcast_to(v, axis_values[0].shape).copy()
        for v in (out.slope, out.delta_phi, out.sql, out.qcrb)
    )
    return SweepResult(
        axis_names=tuple(a.name for a in spec.axes),
        axis_values=axis_values,
        delta_phi=delta_phi,
        sql=sql,
        qcrb=qcrb,
        beats_sql=delta_phi < sql,
        defined=slope > 0.0,
    )


# Loss axes on which noise - SQL^2 slope^2 is a quadratic in sqrt(eta).
THRESHOLD_AXES = tuple(f"loss.eta_{k}" for k in ("a", "b", "c", "d", "det")) + ("eta_ab",)
_NO_ADVANTAGE = "no crossing: sensitivity does not beat the SQL even without loss"
_NO_CROSSING = "no crossing: sensitivity stays below the SQL over the whole scan"


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


def find_sql_threshold(config: InterferometerConfig, loss_parameter: str) -> ThresholdResult:
    """The transmission eta* at which delta_phi crosses the SQL, exactly.

    With s = sqrt(eta), f(s) = noise - SQL^2 slope^2 is a quadratic in s
    on each of ``THRESHOLD_AXES`` (slope^2 is proportional to
    eta_b eta_d eta_det; the noise has only eta and sqrt(eta) terms), so
    one ``analytic.evaluate`` call at s = 0, 1/2, 1 fixes it.  delta_phi <
    SQL exactly where f < 0, and eta* is the square of f's largest root in
    (0, 1).  Other parameters raise SweepSpecError.
    """
    if loss_parameter not in THRESHOLD_AXES:
        raise SweepSpecError(
            f"no SQL threshold on '{loss_parameter}'; loss axes: {', '.join(THRESHOLD_AXES)}"
        )
    sql = analytic.sql_nonlinear(config.n_ps)
    s = np.array([0.0, 0.5, 1.0])
    out = analytic.evaluate(set_parameter(config, loss_parameter, s * s))
    f0, fh, f1 = (out.noise - sql * sql * out.slope * out.slope).tolist()
    if f1 >= 0:
        return ThresholdResult(loss_parameter, None, sql, _NO_ADVANTAGE)
    # f(s) = f0 + b s + a s^2 through the three samples
    a, b = 2.0 * (f1 + f0) - 4.0 * fh, 4.0 * fh - f1 - 3.0 * f0
    roots = [r for r in _quadratic_roots(a, b, f0) if 0.0 < r < 1.0]
    if not roots:
        return ThresholdResult(loss_parameter, None, sql, _NO_CROSSING)
    return ThresholdResult(loss_parameter, max(roots) ** 2, sql)


def _quadratic_roots(a: float, b: float, c: float) -> list:
    """Real roots of a x^2 + b x + c, each computed without cancellation."""
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    q = -0.5 * (b + disc**0.5 if b >= 0 else b - disc**0.5)
    return [num / den for num, den in ((q, a), (c, q)) if den != 0]
