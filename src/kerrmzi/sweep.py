"""Parameter-grid evaluation and loss-threshold finding.

Sweeps evaluate the closed-form sensitivity pipeline only; the Fock
simulator never runs inside a grid.  A sweep is one call of
``analytic.evaluate`` on a grid config, whose swept fields hold the flat
row-major grid.  Results are columns, serialized to CSV as exact
'%.17g' text, most cells built in numpy, so byte-identical reruns are
guaranteed.  An SQL loss threshold is the root of a quadratic in
sqrt(eta), fitted to one three-point ``analytic.evaluate`` call;
``sql_thresholds`` fits every loss axis of an array config in one call.
"""

from __future__ import annotations

import dataclasses
import errno
import math
import os
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analytic
from .config import _FIELD_WALK, InterferometerConfig, SqueezerParams, _field_values, field_errors, validate


# Sweepable parameters: dotted dataclass paths plus a few derived axes that
# figure reproductions need.
_DERIVED_AXES = ("g2_over_g1", "r_over_t", "eta_ab")

_FIELD_AXES = tuple(name for _, _, name in _FIELD_WALK[InterferometerConfig])

SWEEPABLE_PARAMETERS = _FIELD_AXES + _DERIVED_AXES

# Each loss axis and the loss fields it sets; on each, noise - SQL^2 slope^2
# is a quadratic in sqrt(eta).  eta_ab is the external-loss diagonal.
_LOSS_FIELDS = tuple(key for part, key, _ in _FIELD_WALK[InterferometerConfig] if part == "loss")
_LOSS_AXES = {**{f"loss.{f}": (f,) for f in _LOSS_FIELDS}, "eta_ab": ("eta_a", "eta_b")}
THRESHOLD_AXES = tuple(_LOSS_AXES)


class SweepSpecError(ValueError):
    """Raised for malformed sweep specifications."""


def set_parameter(
    config: InterferometerConfig, name: str, value: float
) -> InterferometerConfig:
    """Return a copy of ``config`` with one sweepable parameter replaced.

    ``value`` may be a numpy array, which then broadcasts against the
    other fields.  A loss axis sets its fields in ``_LOSS_AXES``;
    ``g2_over_g1`` sets the readout squeezer amplitude to value * g1 and
    ``r_over_t`` the splitter to T = 1 / (1 + value) (inf at value = -1).
    Any other name not a config field is refused (SweepSpecError).
    """
    if name == "g2_over_g1":
        nbs2 = SqueezerParams.from_g(value * config.nbs1.g, config.nbs2.phase)
        return dataclasses.replace(config, nbs2=nbs2)
    if name == "r_over_t":
        with np.errstate(divide="ignore"):
            t = np.divide(1.0, 1.0 + value)
        return dataclasses.replace(
            config, splitter=dataclasses.replace(config.splitter, transmissivity=t)
        )
    if name in _LOSS_AXES:
        loss = dataclasses.replace(config.loss, **dict.fromkeys(_LOSS_AXES[name], value))
        return dataclasses.replace(config, loss=loss)
    if name not in _FIELD_AXES:
        raise SweepSpecError(
            f"unknown sweep parameter '{name}'; known: {', '.join(SWEEPABLE_PARAMETERS)}"
        )
    group, field = name.split(".")
    part = dataclasses.replace(getattr(config, group), **{field: value})
    return dataclasses.replace(config, **{group: part})


@dataclass(frozen=True)
class Axis:
    """One sweep axis: a parameter name and its grid values, at least two."""

    name: str
    values: tuple

    def __post_init__(self):
        if (count := len(self.values)) < 2:
            raise SweepSpecError(f"axis '{self.name}': point count must be >= 2 (got {count})")

    @classmethod
    def linspace(cls, name: str, lo: float, hi: float, count: int) -> "Axis":
        return cls(name=name, values=tuple(np.linspace(lo, hi, count)))

    @classmethod
    def from_values(cls, name: str, values) -> "Axis":
        return cls(name=name, values=tuple(float(v) for v in values))


@dataclass(frozen=True)
class SweepSpec:
    """Base configuration plus one or two axes to grid over."""

    base: InterferometerConfig
    axes: tuple

    def validated(self) -> "SweepSpec":
        """The spec, if its shape, base (else InvalidConfigError) and each
        axis value set alone on the base are valid.  Each axis is
        set as one array by ``set_parameter``, after the base, so a loss
        axis sets the fields of its ``_LOSS_AXES`` entry and an unknown name
        is refused there; the message names the first invalid value in axis
        order and words its errors as that value's scalar config does."""
        if not 1 <= len(self.axes) <= 2:
            raise SweepSpecError(f"need 1 or 2 axes (got {len(self.axes)})")
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


_RESULT_COLUMNS = ("delta_phi", "sql", "qcrb", "beats_sql", "defined")
SweepRow = namedtuple("SweepRow", ("axis_values",) + _RESULT_COLUMNS)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Grid evaluation output as columns: one flat array per axis and per
    result, row-major over the spec axes (first axis outermost), with
    ``grid_shape`` points on each axis."""

    axis_names: tuple
    axis_values: tuple
    delta_phi: np.ndarray
    sql: np.ndarray
    qcrb: np.ndarray
    beats_sql: np.ndarray
    defined: np.ndarray
    grid_shape: tuple

    def __len__(self) -> int:
        return len(self.delta_phi)

    @cached_property
    def rows(self) -> tuple:
        """Read-only row view: one SweepRow per grid point, built once."""
        axes = zip(*(v.tolist() for v in self.axis_values))
        return tuple(map(SweepRow, axes, *(self.column(n).tolist() for n in _RESULT_COLUMNS)))

    def csv_header(self) -> str:
        return ",".join(self.axis_names + _RESULT_COLUMNS)

    def csv_text(self) -> str:
        """The CSV file: the header and one line per row, each ending in a
        newline."""
        columns = _grid_columns(self.axis_values, self.grid_shape)
        columns += [_format_column(c) for c in (self.delta_phi, self.sql, self.qcrb)]
        columns += [np.where(c, "1", "0").tolist() for c in (self.beats_sql, self.defined)]
        return "\n".join([self.csv_header(), *map(",".join, zip(*columns)), ""])

    def write_csv(self, path) -> None:
        write_atomic({path: self.csv_text()})

    def column(self, name: str) -> np.ndarray:
        if name in self.axis_names:
            return self.axis_values[self.axis_names.index(name)]
        return getattr(self, name)


def _format_column(column: np.ndarray) -> list:
    """Cells of a float column, each exactly ``'%.17g' % v``.  A constant
    column is formatted once; otherwise each distinct bit pattern is, by
    ``_fixed_17g`` where '%.17g' prints no exponent and by Python for the
    rest and for columns of few distinct values."""
    column = np.ascontiguousarray(column, dtype=float)
    bits = column.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return ["%.17g" % column[0]] * bits.size
    bits, where = np.unique(bits, return_inverse=True)
    values = bits.view(np.float64)
    text = np.empty(len(values), dtype=object)
    fixed = (np.abs(values) >= _FIXED_LOW) & (np.abs(values) < _FIXED_HIGH)
    if np.count_nonzero(fixed) >= _KERNEL_MIN_VALUES:
        text[fixed] = _fixed_17g(values[fixed])
    else:
        fixed[:] = False
    text[~fixed] = ["%.17g" % v for v in values[~fixed].tolist()]
    return text[where].tolist()


def _grid_columns(axis_values, shape) -> list:
    """Cells of the axis columns of a row-major grid of ``shape``: each
    axis's own values, every ``inner``-th of its column, formatted once,
    each repeated over the axes after it and the block tiled over the axes
    before it."""
    columns = []
    for k, (column, size) in enumerate(zip(axis_values, shape)):
        inner, outer = math.prod(shape[k + 1 :]), math.prod(shape[:k])
        cells = np.array(_format_column(column[: size * inner : inner]), dtype=object)
        columns.append(np.tile(np.repeat(cells, inner), outer).tolist())
    return columns


# '%.17g' of a double v with 1e-4 <= |v| < 1e16 has no exponent.  It is the
# 17-digit integer N = round-half-even(|v| 10^(16 - E)), E = floor(log10 |v|),
# with the point after digit E, or "0." and -E - 1 zeros before the digits
# when E < 0, and the trailing zeros of the fraction cut.
_FIXED_LOW, _FIXED_HIGH = 1e-4, 1e16
# Python formats columns with fewer distinct values in the window: below
# about 170 values it beats the kernel's fixed cost of some 40 numpy calls.
_KERNEL_MIN_VALUES = 160
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles


def _split(x):
    """Veltkamp's split: x = hi + lo exactly, each half with at most 26
    significant bits, so products of halves are exact."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits17(a: np.ndarray):
    """(N, E) for each a in [1e-4, 1e16): N = round-half-even(a 10^(16 - E))
    as int64, where 10^E <= a < 10^(E + 1).  Exact: a 10^k = p + err is
    Dekker's error-free product, and p >= 1e16 > 2^53 is an even integer,
    so N = p + rint(err).  A log10 that misses E by one is caught by the
    exact range test on p + err and that row is recomputed.  N never
    carries to 1e17: the largest double below each power of ten in the
    window scales to at least 8 below it, not within the 0.5 a carry needs."""
    e = np.floor(np.log10(a)).astype(np.intp)
    n = np.empty(len(a), np.int64)
    rows = np.arange(len(a))
    while rows.size:
        x, k = a[rows], 16 - e[rows]
        p = x * _POW10[k]
        x_hi, x_lo = _split(x)
        t_hi, t_lo = _POW10_HI[k], _POW10_LO[k]
        err = ((x_hi * t_hi - p) + x_hi * t_lo + x_lo * t_hi) + x_lo * t_lo
        low = (p < 1e16) | ((p == 1e16) & (err < 0))  # E too high
        high = (p > 1e17) | ((p == 1e17) & (err >= 0))  # E too low
        n[rows] = p.astype(np.int64) + np.rint(err).astype(np.int64)
        e[rows] += high.astype(np.intp) - low
        rows = rows[low | high]
    return n, e


_TEXT_WIDTH = 24  # a sign, "0.000" and 17 digits fit in 23 chars
# Each value's digits are six quads: d0 as "000d0", d1-d4, ..., d13-d16 and
# the quad 10000, whose chars are ".", "-" and two NULs.  _QUADS[c, q] is
# char c of quad q, so gathering it by the (6, m) quads gives char c of quad
# k of value i at row 6 c + k, column i.
_QUAD_DIGITS = (np.arange(10000, dtype=np.int16) // np.int16([[1000], [100], [10], [1]]) % 10).astype(np.int8)
_QUADS = np.concatenate([48 + _QUAD_DIGITS, np.int8([[46], [45], [0], [0]])], axis=1).view(np.uint8)
# _LAST[k, q]: index among d0..d16 of the last nonzero digit when quad k + 1
# is q (4 (k + 1) less its trailing zeros), and 0 for q = 0 (d0 is never 0)
_LAST = np.where(
    _QUAD_DIGITS.any(axis=0),
    np.int8([[4], [8], [12], [16]]) - np.argmax(_QUAD_DIGITS[::-1] != 0, axis=0).astype(np.int8),
    np.int8(0),
)


def _char_row(p: int) -> int:
    """Row of char p of the 24 chars "000", d0..d16, ".-" and two NULs."""
    return 6 * (p % 4) + p // 4


def _layout(e: int, negative: bool) -> np.ndarray:
    """Char rows of the text of a value with exponent e and the sign."""
    digits = [_char_row(p) for p in range(3, 20)]
    zero, point, minus, nul = (_char_row(p) for p in (0, 20, 21, 22))
    if e >= 0:
        rows = digits[: e + 1] + [point] + digits[e + 1:]
    else:
        rows = [zero, point] + [zero] * (-e - 1) + digits
    rows = [minus] * negative + rows
    return np.array(rows + [nul] * (_TEXT_WIDTH - len(rows)))


# indexed by 2 (E + 4) + sign, E from -4 to 15
_LAYOUTS = [_layout(e, negative) for e in range(-4, 16) for negative in (False, True)]
_TEXT_COLUMNS = np.arange(_TEXT_WIDTH)[:, None]


def _fixed_17g(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each value with 1e-4 <= |v| < 1e16, exactly, as
    a numpy unicode array.  The text is built as a (24, m) char grid:
    values of one exponent and sign share a layout, and each run of them
    in ``values`` is one gather, so values sorted by magnitude within each
    sign (np.unique's bit order) take few runs."""
    n, e = _digits17(np.abs(values))
    m = len(values)
    quads = np.empty((6, m), np.intp)
    quads[0] = n // 10**16
    for k in range(1, 5):
        quads[k] = n // 10 ** (16 - 4 * k) % 10**4
    quads[5] = 10000
    last = _LAST.take(quads[1:5] + 10000 * np.arange(4)[:, None]).max(axis=0)
    chars = _QUADS.take(quads, axis=1).reshape(_TEXT_WIDTH, m)
    negative = np.signbit(values)
    layout = 2 * (e + 4) + negative
    text = np.empty((_TEXT_WIDTH, m), np.uint8)
    starts = np.flatnonzero(np.diff(layout, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [m]):
        text[:, lo:hi] = chars[_LAYOUTS[layout[lo]], lo:hi]
    # the sign and the integer digits, then the point and the fraction up
    # to its last nonzero digit; the chars beyond become NULs, which numpy
    # drops from the end of each string
    length = np.where(last <= e, e + 1, last + 2 - np.minimum(e, 0)) + negative
    text *= (_TEXT_COLUMNS < length).view(np.uint8)
    return text.T.astype(np.uint32, order="C").view(f"U{_TEXT_WIDTH}").ravel()


def write_atomic(files) -> None:
    """Write each path's text (``files`` maps path to text) through a temp
    file in the same directory, and ``os.replace`` the temp files onto
    their paths, in order, only once all are written.  A temp file that
    cannot be written, such as one whose name is too long, or a path that
    is a directory leaves every path as it was; any other failed replace
    leaves the paths before it new.  No temp file is left behind."""
    tmps = {}
    try:
        for path, text in files.items():
            tmps[path] = f"{path}.{os.getpid()}.tmp"
            with open(tmps[path], "w") as fh:
                fh.write(text)
        for path in tmps:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps.values():
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
        grid_shape=grids[0].shape,
    )


_NO_ADVANTAGE = "no crossing: sensitivity does not beat the SQL even without loss"
_NO_CROSSING = "no crossing: sensitivity stays below the SQL over the whole scan"
# eta = s^2 at the samples s = 0, 1/2, 1 of the quadratic fit
_ETA_SAMPLES = np.array([0.0, 0.25, 1.0])
# _SETS[name][i]: THRESHOLD_AXES[i] sets the loss field ``name``
_SETS = {f: np.array([f in fields for fields in _LOSS_AXES.values()]) for f in _LOSS_FIELDS}


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
    one ``analytic.evaluate`` call at s = 0, 1/2, 1 on a scalar config
    fixes it.  delta_phi < SQL exactly where f < 0, and eta* is the square
    of f's largest root in (0, 1), from the root kernel ``sql_thresholds``
    shares, so both give the same bits.  Other parameters raise
    SweepSpecError; an SQL that is zero or not finite, or a sample of f
    that is not finite, raises ValueError.
    """
    if loss_parameter not in THRESHOLD_AXES:
        raise SweepSpecError(
            f"no SQL threshold on '{loss_parameter}'; loss axes: {', '.join(THRESHOLD_AXES)}"
        )
    sql = analytic.sql_nonlinear(config.n_ps)
    margins = _margins(analytic.evaluate(set_parameter(config, loss_parameter, _ETA_SAMPLES)))
    if not (0.0 < sql < math.inf and np.isfinite(margins).all()):
        raise ValueError(f"SQL {sql!r} or margins {margins.tolist()} on '{loss_parameter}' "
                         f"out of floating-point range (N_ps = {float(config.n_ps)!r})")
    f0, fh, f1 = margins.tolist()
    if f1 >= 0:
        return ThresholdResult(loss_parameter, None, sql, _NO_ADVANTAGE)
    eta_star = _crossing_eta(f0, fh, f1).item()
    if math.isnan(eta_star):
        return ThresholdResult(loss_parameter, None, sql, _NO_CROSSING)
    return ThresholdResult(loss_parameter, eta_star, sql)


def sql_thresholds(config: InterferometerConfig) -> np.ndarray:
    """eta* on every ``THRESHOLD_AXES`` axis at once, elementwise over a
    config whose fields may be broadcastable arrays of shape S.

    Returns an array of shape (6,) + S: row i holds the thresholds on
    ``THRESHOLD_AXES[i]``, nan where ``find_sql_threshold`` finds no
    crossing or raises ValueError for an SQL or a margin out of
    floating-point range, and each found cell has the bits of that scalar
    call.  The samples of every axis and cell are one ``analytic.evaluate``
    call on a (6, 3) + S stack.
    """
    ndim = max(np.ndim(value) for _, value in _field_values(config))
    samples = _ETA_SAMPLES.reshape((1, 3) + (1,) * ndim)
    out = analytic.evaluate(on_threshold_axes(config, samples))
    f0, fh, f1 = _margins(out).swapaxes(0, 1)
    return _crossing_eta(f0, fh, f1)


def _margins(out):
    """noise - (SQL slope)^2 of an evaluation; inf or nan where a factor is
    out of floating-point range.  The product is squared, not SQL^2, which
    underflows at pumps above about 1e51."""
    with np.errstate(all="ignore"):
        scaled = out.sql * out.slope
        return out.noise - scaled * scaled


def on_threshold_axes(config: InterferometerConfig, values) -> InterferometerConfig:
    """``config`` with row ``values[i]`` set on ``THRESHOLD_AXES[i]`` as
    ``set_parameter`` sets it, for all six rows at once."""
    values = np.asarray(values, dtype=float)
    rows = (len(THRESHOLD_AXES),) + (1,) * (values.ndim - 1)
    loss = {
        name: np.where(_SETS[name].reshape(rows), values, getattr(config.loss, name))
        for name in _SETS
    }
    return dataclasses.replace(config, loss=dataclasses.replace(config.loss, **loss))


def _crossing_eta(f0, fh, f1) -> np.ndarray:
    """The square of the largest root in (0, 1) of the quadratic through
    (0, f0), (1/2, fh), (1, f1), elementwise; nan where f1 >= 0, where no
    root lies in (0, 1), and where a sample is inf or nan.

    The roots are q / a and f0 / q with q = -(b + sign(b) sqrt(disc)) / 2,
    so neither cancels.  The square root and the square are np.sqrt and
    s * s, which are correctly rounded: a libm ``pow`` need not be.
    """
    with np.errstate(all="ignore"):
        # f(s) = f0 + b s + a s^2 through the three samples
        a, b = 2.0 * (f1 + f0) - 4.0 * fh, 4.0 * fh - f1 - 3.0 * f0
        disc = b * b - 4.0 * a * f0
        root = np.sqrt(disc)  # nan where disc < 0
        q = -0.5 * np.where(b >= 0, b + root, b - root)
        # a zero denominator gives inf or nan, which the interval drops
        r1, r2 = (np.where((0.0 < r) & (r < 1.0), r, np.nan) for r in (q / a, f0 / q))
    s = np.where(f1 >= 0, np.nan, np.fmax(r1, r2))
    return s * s
