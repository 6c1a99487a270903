"""Physical parameter types, validation, and config-file parsing.

Conventions used throughout the package:

* squeezer elements are parameterized by their gain G >= 1, with the
  companion amplitude g = sqrt(G^2 - 1) always derived, never stored;
* beam splitters store the transmissivity T only, reflectivity is
  R = 1 - T by construction;
* all angles are plain radians, no mod-2pi normalization;
* loss coefficients eta are intensity transmissions in [0, 1].

All types are immutable value objects and safe to share between threads.
The derived properties (``g``, ``n_alpha``, ``n_g``, ``n_ps``) are numpy
ufuncs and products, so a config whose fields hold arrays evaluates them
elementwise; a sweep builds such a grid config.

``validate`` walks the fields of a config or a Kerr medium in declaration
order, names each by its dotted path (``nbs1.gain``, ``loss.eta_det``,
``medium.n0``) and checks that it is finite, then applies its bound from
the one ``_BOUNDS`` table.  The walk checks every cell of an array field;
a bound violation names the first violating cell (row-major).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from itertools import groupby

import numpy as np

# SI values, used as defaults for the Kerr-medium description.
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
SPEED_OF_LIGHT = 299792458.0  # m/s


class InvalidConfigError(ValueError):
    """Raised when a configuration violates one or more type invariants.

    The ``errors`` attribute lists every violated invariant, one message
    per violation, each naming the offending field and bound.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ConfigFileError(ValueError):
    """Raised on unreadable or malformed configuration files."""


_REAL_SCALARS = (int, float, np.integer, np.floating)


def _finite(value) -> bool:
    """True for a finite real scalar, or a real array with every cell finite."""
    if isinstance(value, _REAL_SCALARS):
        return math.isfinite(value)
    return (
        isinstance(value, np.ndarray)
        and value.dtype.kind in "iuf"
        and bool(np.isfinite(value).all())
    )


def _bound_errors(message: str, value, bad) -> list:
    """``[f"{message} (got {v})"]`` for the value ``v`` that breaks a bound:
    ``value`` itself where ``bad`` is true, the first cell (row-major) of
    an array where ``bad`` holds; ``[]`` where it holds nowhere.  The walk
    skips the call where ``bad`` is a plain ``False``, a valid scalar."""
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return []
        value = np.broadcast_to(value, bad.shape)[bad][0].item()
    elif not bad:
        return []
    return [f"{message} (got {value})"]


@dataclass(frozen=True)
class CoherentInput:
    """Coherent drive |alpha| e^{i theta} injected into the pump port."""

    magnitude: float = 0.0
    phase: float = 0.0

    @property
    def n_alpha(self) -> float:
        """Mean photon number |alpha|^2."""
        return self.magnitude * self.magnitude

    @property
    def amplitude(self) -> complex:
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))


@dataclass(frozen=True)
class SqueezerParams:
    """A two-mode squeezing element with gain G >= 1 and pump phase theta."""

    gain: float = 1.0
    phase: float = 0.0

    @classmethod
    def from_g(cls, g: float, phase: float = 0.0) -> "SqueezerParams":
        """Build from the squeeze amplitude g, so that G = np.hypot(1, g)
        elementwise; a scalar g gives a float gain, not a numpy scalar."""
        gain = np.hypot(1.0, g)
        return cls(gain=gain if np.ndim(gain) else float(gain), phase=phase)

    @property
    def g(self) -> float:
        """Companion amplitude g = sqrt(G^2 - 1); satisfies G^2 - g^2 = 1."""
        return np.sqrt(self.gain * self.gain - 1.0)


@dataclass(frozen=True)
class SplitterParams:
    """A lossless beam splitter; only T is stored so R + T = 1 cannot drift."""

    transmissivity: float = 0.5

    @property
    def reflectivity(self) -> float:
        return 1.0 - self.transmissivity


@dataclass(frozen=True)
class PhaseShift:
    """Linear and nonlinear phase accumulated in the Kerr arm."""

    linear: float = 0.0
    nonlinear: float = 0.0


@dataclass(frozen=True)
class LossParams:
    """Intensity transmissions of the four fictitious loss ports plus the
    detection efficiency.  All ones means lossless."""

    eta_a: float = 1.0
    eta_b: float = 1.0
    eta_c: float = 1.0
    eta_d: float = 1.0
    eta_det: float = 1.0

    def is_lossless(self) -> bool:
        return (self.eta_a, self.eta_b, self.eta_c, self.eta_d, self.eta_det) == (1.0,) * 5


@dataclass(frozen=True)
class InterferometerConfig:
    """Complete parameter set of the interferometer.

    ``nbs1`` seeds the correlated mode pair, ``nbs2`` performs the active
    correlation readout, ``splitter`` is used for both linear beam
    splitters, ``coherent`` is the pump-port input and ``phase`` the shift
    applied in the sensing arm.  ``nbs2`` defaults to phase pi, with
    theta1 = theta_alpha = 0 the phase-matched readout of ``build_config``.
    """

    nbs1: SqueezerParams = field(default_factory=SqueezerParams)
    nbs2: SqueezerParams = field(default_factory=functools.partial(SqueezerParams, phase=math.pi))
    splitter: SplitterParams = field(default_factory=SplitterParams)
    coherent: CoherentInput = field(default_factory=CoherentInput)
    phase: PhaseShift = field(default_factory=PhaseShift)
    loss: LossParams = field(default_factory=LossParams)

    @property
    def n_g(self) -> float:
        """Photon number N_g = 2 g1^2 emitted by the first squeezer into
        both of its modes."""
        g1 = self.nbs1.g
        return 2.0 * (g1 * g1)

    @property
    def n_ps(self) -> float:
        """Phase-sensing photon budget N_ps = N_g + |alpha|^2 (both squeezed
        modes plus the pump) that every sensitivity limit is quoted against."""
        return self.n_g + self.coherent.n_alpha


@dataclass(frozen=True)
class KerrMediumSpec:
    """Kerr medium description used to convert the nonlinear phase to and
    from the third-order susceptibility.

    Units are documented conventions (SI), not enforced: intensity in
    W/m^2, wavenumber in 1/m, length in m.
    """

    n0: float
    intensity: float
    wavenumber: float
    length: float
    epsilon0: float = VACUUM_PERMITTIVITY
    c: float = SPEED_OF_LIGHT


@dataclass(frozen=True)
class SensitivityReport:
    """Sensitivity figures for one configuration at the phi = 0 operating
    point.  The three slope terms are only present for the balanced,
    lossless configuration where the decomposition applies."""

    slope: float
    noise: float
    delta_phi: float
    sql: float
    qcrb: float
    term_lin: float | None = None
    term_nonlin: float | None = None
    term_nonlin_corr: float | None = None

    def to_dict(self) -> dict:
        """Flat key-value record; absent terms are omitted."""
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(f.name for f in fields(cls))

    def csv_row(self) -> str:
        values = (getattr(self, f.name) for f in fields(self))
        return ",".join("" if v is None else format(v, ".17g") for v in values)


def _outside_unit(v):
    return (v < 0.0) | (v > 1.0)


# The bound of every field that has one, by dotted name: the test that
# flags a violating value, and the message naming the bound.
_BOUNDS = {
    "nbs1.gain": (lambda v: v < 1.0, "nbs1.gain below 1"),
    "nbs2.gain": (lambda v: v < 1.0, "nbs2.gain below 1"),
    "splitter.transmissivity": (_outside_unit, "transmissivity outside [0,1]"),
    "coherent.magnitude": (lambda v: v < 0, "coherent.magnitude negative"),
    **{f"loss.eta_{k}": (_outside_unit, f"loss.eta_{k} outside [0,1]") for k in "abcd"},
    "loss.eta_det": (lambda v: (v <= 0.0) | (v > 1.0), "loss.eta_det outside (0,1]"),
    **{
        f"medium.{f.name}": (lambda v: v <= 0, f"medium.{f.name} not strictly positive")
        for f in fields(KerrMediumSpec)
    },
}


# (section, field, dotted name) of every field of a config and of a medium,
# in declaration order; a medium has no sections and is named "medium".
_FIELD_WALK = {
    InterferometerConfig: tuple(
        (s.name, f.name, f"{s.name}.{f.name}")
        for s in fields(InterferometerConfig)
        for f in fields(s.default_factory())
    ),
    KerrMediumSpec: tuple((None, f.name, f"medium.{f.name}") for f in fields(KerrMediumSpec)),
}


def _field_values(obj):
    """(dotted name, value) of every field of a config or a medium, in
    ``_FIELD_WALK`` order."""
    for section, key, name in _FIELD_WALK[type(obj)]:
        yield name, getattr(obj if section is None else getattr(obj, section), key)


def field_errors(obj) -> list:
    """Every violated invariant of an InterferometerConfig or a
    KerrMediumSpec, one message per field in declaration order: "<name>
    not finite", else the message of the field's ``_BOUNDS`` entry with
    the violating value."""
    errs = []
    for name, value in _field_values(obj):
        if not _finite(value):
            errs.append(f"{name} not finite")
        elif name in _BOUNDS:
            violated, message = _BOUNDS[name]
            if (bad := violated(value)) is not False:
                errs += _bound_errors(message, value, bad)
    return errs


def validate(config: InterferometerConfig | KerrMediumSpec):
    """Return ``config`` unchanged if every invariant holds.

    Raises InvalidConfigError carrying the full list of violations
    otherwise.  Idempotent by construction.
    """
    errs = field_errors(config)
    if errs:
        raise InvalidConfigError(errs)
    return config


def build_config(
    alpha: float = 0.0,
    theta_alpha: float = 0.0,
    g1: float = 0.0,
    theta1: float = 0.0,
    g2: float = 0.0,
    theta2: float = math.pi,
    transmissivity: float = 0.5,
    phi_l: float = 0.0,
    phi_n: float = 0.0,
    eta_a: float = 1.0,
    eta_b: float = 1.0,
    eta_c: float = 1.0,
    eta_d: float = 1.0,
    eta_det: float = 1.0,
) -> InterferometerConfig:
    """Convenience constructor; any argument may be an array.

    Squeezers are specified by their amplitudes g (not gains); the default
    theta2 = pi together with theta1 = theta_alpha = 0 is the optimal
    phase-matching point.
    """
    return validate(
        InterferometerConfig(
            nbs1=SqueezerParams.from_g(g1, theta1),
            nbs2=SqueezerParams.from_g(g2, theta2),
            splitter=SplitterParams(transmissivity),
            coherent=CoherentInput(alpha, theta_alpha),
            phase=PhaseShift(phi_l, phi_n),
            loss=LossParams(eta_a, eta_b, eta_c, eta_d, eta_det),
        )
    )


def config_digest(config) -> str:
    """Short stable digest of a config or a medium: its fields by dotted
    name, each a number's repr as a Python float."""
    blob = json.dumps({
        name: repr(float(value) if isinstance(value, _REAL_SCALARS) else value)
        for name, value in _field_values(config)
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# --- configuration file parsing -------------------------------------------
#
# INI-style, one section per component type, one key per field:
#
#   [nbs1]      gain, phase
#   [nbs2]      gain, phase
#   [splitter]  transmissivity
#   [coherent]  magnitude, phase
#   [phase]     linear, nonlinear
#   [loss]      eta_a, eta_b, eta_c, eta_d, eta_det
#   [medium]    n0, intensity, wavenumber, length, epsilon0, c
#
# Missing keys fall back to the dataclass defaults, an omitted [nbs2]
# phase to pi ([medium] has no defaults for its first four fields).
#
# The text is read in one pass over its lines, split at "\n" only:
#
# * a comment starts at the first '#' or ';' that begins the line or
#   follows whitespace, and is cut before the line is read;
# * a line indented deeper than the line that opened the current key
#   continues that key's value, and a blank line with no comment adds an
#   empty line to it; the lines are joined with "\n" and right-stripped;
# * "[name]", the whole line, opens a section; [DEFAULT] may repeat and
#   lends its keys to every section, whose own keys win; any other
#   section may not repeat;
# * "key = value" or "key: value" splits at the first '=' or ':'; the key
#   is lower-cased, not empty and not repeated within its section;
# * any other line, and a key before the first section, is an error.
#
# Values are read raw: a '%' is part of a bad number.  Every error cites
# the line a section or key was read from; unknown sections and keys are
# rejected.

_CONFIG_SCHEMA = {
    section: tuple(key for _, key, _ in walk)
    for section, walk in groupby(
        _FIELD_WALK[InterferometerConfig] + _FIELD_WALK[KerrMediumSpec],
        key=lambda entry: entry[2].split(".")[0],
    )
}

_COMMENT = re.compile(r"(?<!\S)[#;]")
_KEY_VALUE = re.compile(r"([^=:]*)[=:](.*)")


def _parse_sections(text: str, source: str) -> dict:
    """{section: {key: float}} of an INI text, by the grammar above; every
    section holds [DEFAULT]'s keys too."""
    def error(message, number):
        return ConfigFileError(f"{source}: {message} (line {number})")

    # name -> (line number, {key: (line number, value lines)})
    sections = {"DEFAULT": (0, {})}
    keys = lines = None  # the open section's keys, the open key's value lines
    indent = 0
    for number, line in enumerate(text.split("\n"), start=1):
        comment = _COMMENT.search(line)
        value = (line[: comment.start()] if comment else line).strip()
        if not value:
            if comment is None and lines is not None:
                lines.append("")
            continue
        depth = len(line) - len(line.lstrip())
        if lines is not None and depth > indent:
            lines.append(value)
            continue
        indent = depth
        if value[0] == "[" and value.rfind("]") > 1:
            if value[-1] != "]":
                raise error("text after the section header", number)
            name = value[1:-1]
            if name in sections and name != "DEFAULT":
                raise error(f"section [{name}] repeated", number)
            keys, lines = sections.setdefault(name, (number, {}))[1], None
            continue
        if keys is None:
            raise error("text before the first section header", number)
        pair = _KEY_VALUE.match(value)
        if pair is None or not (key := pair[1].strip().lower()):
            raise error("neither a [section] header nor a key = value line", number)
        if key in keys:
            raise error(f"key '{key}' repeated in [{name}]", number)
        lines = [pair[2].strip()]
        keys[key] = (number, lines)

    defaults = sections.pop("DEFAULT")[1]
    values: dict = {}
    for section, (number, own) in sections.items():
        if section not in _CONFIG_SCHEMA:
            raise error(f"unknown section [{section}]", number)
        values[section] = {}
        for key, (number, lines) in {**defaults, **own}.items():
            if key not in _CONFIG_SCHEMA[section]:
                raise error(f"unknown key '{key}' in [{section}]", number)
            raw = "\n".join(lines).rstrip()
            try:
                values[section][key] = float(raw)
            except ValueError:
                raise ConfigFileError(
                    f"{source}: [{section}] {key}: not a number (got {raw!r}, line {number})"
                ) from None
    return values


def parse_config(text: str, source: str = "<string>") -> InterferometerConfig:
    """Parse an interferometer config from INI text and validate it."""
    values = _parse_sections(text, source)
    sections = {
        f.name: f.default_factory(**values.get(f.name, {}))
        for f in fields(InterferometerConfig)
    }
    return validate(InterferometerConfig(**sections))


def _read_text(path) -> str:
    """The UTF-8 text of a config file, without a leading byte-order mark;
    undecodable bytes are a ConfigFileError naming the path and the
    offending byte's offset in the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigFileError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_config(path) -> InterferometerConfig:
    return parse_config(_read_text(path), source=str(path))


def parse_medium(text: str, source: str = "<string>") -> KerrMediumSpec:
    """Parse the [medium] section of a config file."""
    values = _parse_sections(text, source)
    if "medium" not in values:
        raise ConfigFileError(f"{source}: missing [medium] section")
    sec = values["medium"]
    for f in fields(KerrMediumSpec):
        if f.default is MISSING and f.name not in sec:
            raise ConfigFileError(f"{source}: [medium] missing key '{f.name}'")
    return validate(KerrMediumSpec(**sec))


def load_medium(path) -> KerrMediumSpec:
    return parse_medium(_read_text(path), source=str(path))
