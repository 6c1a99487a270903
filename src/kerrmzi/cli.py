"""Command-line front end.

Commands: ``report`` (single-configuration sensitivity), ``sweep``
(parameter grids / figure presets to CSV), ``verify`` (identity and
simulator cross-check suites), ``chi3`` (susceptibility conversion).

Exit codes are a contract, and ``main`` alone maps a refusal to one: 0
success, 1 verification failure, 2 input error (bad input, an unreadable,
undecodable or unwritable path, a figure out of floating-point range, or a
Fock cutoff too small for the state or too large for the memory cap), 3
undefined result.  Every command prints and writes through ``_emit``: a
figure of a defined result (delta_phi, sql and qcrb; the other figures
too for ``report`` and ``chi3``) that is not finite, or a zero delta_phi,
sql or qcrb, is an input error, and nothing is printed or written.  Every
output file is written atomically (temp file plus ``os.replace``) and
gets exactly one ``<name>.manifest.json`` companion recording command,
config digest, tool version, and timestamp.  Both temp files are written
before either replaces its path, so a refused write leaves neither file;
the data files themselves carry no timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, analytic, oracle, sweep, verify
from .config import build_config, config_digest, load_config, load_medium

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNDEFINED = 3

GRID_POINTS_1D = 36
GRID_POINTS_2D = 21


# figures positive by construction: a zero is an underflow or 1/inf
_POSITIVE = ("delta_phi", "sql", "qcrb")


def _out_of_range(figures: dict):
    """Name of the first figure with a cell that is not finite, or is zero
    where the figure is positive by construction; None when all hold."""
    for name, value in figures.items():
        cells = np.asarray(value, dtype=float)
        if not np.isfinite(cells).all() or (name in _POSITIVE and not cells.all()):
            return name
    return None


def _emit(text: str, out, command: str, digest: str, figures=None, shown=None) -> None:
    """The one output path of every command: refuse a figure out of
    floating-point range, write ``text`` to ``out`` (if given) and its
    manifest beside it in one ``sweep.write_atomic``, then print ``shown``
    (default ``text``)."""
    if figure := _out_of_range(figures or {}):
        raise ValueError(f"{figure} is out of floating-point range for this input")
    if out:
        manifest = {
            "command": command,
            "config_digest": digest,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": [str(out)],
        }
        manifest = json.dumps(manifest, indent=2) + "\n"
        sweep.write_atomic({out: text, out + ".manifest.json": manifest})
    sys.stdout.write(text if shown is None else shown)


# --- presets -----------------------------------------------------------------


def _unit_axes(*names) -> tuple:
    return tuple(sweep.Axis.linspace(name, 0.0, 1.0, GRID_POINTS_2D) for name in names)


# kind -> (readout amplitude g2, axes); every base is a strong pump,
# alpha = 10 and g1 = 2, at the split ratio T = 1/4
_SWEEP_KINDS = {
    # fixed seed squeezer; readout gain and split ratio scanned
    "gain": (2.0, (
        sweep.Axis.from_values("r_over_t", (1.0, 3.0, 9.0)),
        sweep.Axis.linspace("g2_over_g1", 0.5, 4.0, GRID_POINTS_1D),
    )),
    # g2 = 2 g1 readout at the optimal split ratio
    "internal-loss": (4.0, _unit_axes("loss.eta_c", "loss.eta_d")),
    "external-loss": (4.0, _unit_axes("loss.eta_a", "loss.eta_b")),
    "split": (4.0, (sweep.Axis.linspace("splitter.transmissivity", 0.02, 0.98, 49),)),
}

PRESETS = {
    "fig2": "gain",
    "fig4a": "internal-loss",
    "fig4b": "external-loss",
}


def _build_spec(kind: str, base) -> "sweep.SweepSpec":
    if kind not in _SWEEP_KINDS:
        raise sweep.SweepSpecError(f"unknown sweep kind '{kind}'")
    g2, axes = _SWEEP_KINDS[kind]
    if base is None:
        base = build_config(alpha=10.0, g1=2.0, g2=g2, transmissivity=0.25)
    return sweep.SweepSpec(base=base, axes=axes)


# --- commands ----------------------------------------------------------------


def cmd_report(args) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1 (got {args.repeats})")
    config = load_config(args.config)
    digest = config_digest(config)
    report = analytic.sensitivity(config, repeats=args.repeats)
    figures = {**report.to_dict(), "n_ps": config.n_ps}
    if args.format == "csv":
        payload = report.csv_header() + "\n" + report.csv_row() + "\n"
    else:
        record = {"config_digest": digest, **figures, "beats_sql": report.delta_phi < report.sql}
        payload = json.dumps(record, indent=2) + "\n"
    _emit(payload, args.out, "report", digest, figures)
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = load_config(args.config) if args.config else None
    kind = PRESETS[args.preset] if args.preset else args.kind
    spec = _build_spec(kind, base)
    result = sweep.run_sweep(spec)
    out = args.out or "sweep.csv"
    # undefined rows keep their inf delta_phi and nan qcrb; with no row
    # defined the sweep is undefined, like a report
    defined = result.defined
    if not defined.any():
        raise analytic.UndefinedSensitivityError("undefined sensitivity: zero slope in every row")
    figures = {"delta_phi": result.delta_phi[defined], "sql": result.sql, "qcrb": result.qcrb[defined]}
    _emit(result.csv_text(), out, f"sweep:{kind}", config_digest(spec.base), figures,
          f"wrote {out} ({len(result)} rows)\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    records = verify.run_suite(args.suite, seed=args.seed, cutoff=args.cutoff, mutate=args.mutate)
    shown = "".join(f"{'pass' if r.passed else 'FAIL'}  {r.check}  rel_err={r.rel_err:.3e}  "
                    f"tol={r.tol:.1e}\n" for r in records)
    _emit("".join(json.dumps(r.to_dict()) + "\n" for r in records), args.out,
          f"verify:{args.suite}", "none", shown=shown)
    failures = [r.check for r in records if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(records)} checks failed: " + ", ".join(failures),
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"all {len(records)} checks passed")
    return EXIT_OK


def cmd_chi3(args) -> int:
    medium = load_medium(args.config)
    if args.delta_phi_n < 0 or not math.isfinite(args.delta_phi_n):
        raise ValueError("delta-phi-n must be finite and >= 0")
    # phi_n_per_chi3 is the slope of the forward map phi_n(chi3); its
    # inverse defines the bound
    record = {
        "delta_phi_n": args.delta_phi_n,
        "delta_chi3": analytic.chi3_uncertainty(medium, args.delta_phi_n),
        "phi_n_per_chi3": analytic.chi3_phase(medium, 1.0),
    }
    _emit(json.dumps(record, indent=2) + "\n", args.out, "chi3", "none", record)
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="kerrmzi",
        description=(
            "Phase sensitivity, Fisher information, and loss tolerance of a "
            "Kerr-nonlinear interferometer with active correlation readout"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="sensitivity report for one configuration")
    p.add_argument("--config", required=True, help="interferometer config file")
    p.add_argument("--out", help="write the record here (plus manifest)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--repeats", type=int, default=1, help="measurement repeats m")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="grid sweep to CSV")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--kind", choices=tuple(_SWEEP_KINDS))
    grid.add_argument("--preset", choices=tuple(PRESETS))
    p.add_argument("--config", help="override the preset base configuration")
    p.add_argument("--out", help="output CSV path (default sweep.csv)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("analytic", "oracle", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cutoff", type=int, default=15, help="Fock cutoff for oracle checks")
    p.add_argument("--out", help="write JSONL records here")
    p.add_argument(
        "--mutate",
        help="negative control: perturb the named check's analytic value",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chi3", help="susceptibility uncertainty from a phase uncertainty")
    p.add_argument("--config", required=True, help="config file with a [medium] section")
    p.add_argument("--delta-phi-n", type=float, required=True)
    p.add_argument("--out", help="write the JSON record here")
    p.set_defaults(func=cmd_chi3)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place a refusal becomes an exit code."""
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except analytic.UndefinedSensitivityError as exc:
        error, code = exc, EXIT_UNDEFINED
    except (ValueError, OSError, oracle.TruncationError) as exc:
        error, code = exc, EXIT_INPUT_ERROR
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
