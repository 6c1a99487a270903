"""Command-line front end.

Commands: ``report`` (single-configuration sensitivity), ``sweep``
(parameter grids / figure presets to CSV), ``verify`` (identity and
simulator cross-check suites), ``chi3`` (susceptibility conversion).

Exit codes are a contract: 0 success, 1 verification failure, 2 input
error (bad input, an unreadable or unwritable path, or a Fock cutoff too
small for the state; mapped in ``main``), 3 undefined result.  Every
output file is written atomically (temp file plus ``os.replace``) and
gets exactly one ``<name>.manifest.json`` companion recording command,
config digest, tool version, and timestamp; the data files themselves
carry no timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__, analytic, oracle, sweep, verify
from .config import (
    ConfigFileError,
    InvalidConfigError,
    build_config,
    config_digest,
    load_config,
    load_medium,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNDEFINED = 3

GRID_POINTS_1D = 36
GRID_POINTS_2D = 21


def _write_manifest(out_path: str, command: str, digest: str) -> None:
    manifest = {
        "command": command,
        "config_digest": digest,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(out_path)],
    }
    sweep.write_atomic(out_path + ".manifest.json", [json.dumps(manifest, indent=2) + "\n"])


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# --- presets -----------------------------------------------------------------


def _gain_sweep_base() -> "sweep.SweepSpec":
    # strong pump, fixed seed squeezer; readout gain and split ratio scanned
    base = build_config(alpha=10.0, g1=2.0, g2=2.0, transmissivity=0.25)
    axes = (
        sweep.Axis.from_values("r_over_t", (1.0, 3.0, 9.0)),
        sweep.Axis.linspace("g2_over_g1", 0.5, 4.0, GRID_POINTS_1D),
    )
    return sweep.SweepSpec(base=base, axes=axes)


def _loss_sweep_base(kind: str) -> "sweep.SweepSpec":
    # g2 = 2 g1 readout at the optimal split ratio
    base = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25)
    if kind == "internal-loss":
        names = ("loss.eta_c", "loss.eta_d")
    else:
        names = ("loss.eta_a", "loss.eta_b")
    axes = tuple(
        sweep.Axis.linspace(name, 0.0, 1.0, GRID_POINTS_2D) for name in names
    )
    return sweep.SweepSpec(base=base, axes=axes)


def _split_sweep_base(base) -> "sweep.SweepSpec":
    axes = (sweep.Axis.linspace("splitter.transmissivity", 0.02, 0.98, 49),)
    return sweep.SweepSpec(base=base, axes=axes)


PRESETS = {
    "fig2": "gain",
    "fig4a": "internal-loss",
    "fig4b": "external-loss",
}


def _build_spec(kind: str, base) -> "sweep.SweepSpec":
    if kind == "gain":
        spec = _gain_sweep_base()
    elif kind in ("internal-loss", "external-loss"):
        spec = _loss_sweep_base(kind)
    elif kind == "split":
        spec = _split_sweep_base(build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25))
    else:
        raise sweep.SweepSpecError(f"unknown sweep kind '{kind}'")
    return spec if base is None else dataclasses.replace(spec, base=base)


# --- commands ----------------------------------------------------------------


def cmd_report(args) -> int:
    if args.repeats < 1:
        return _fail(f"--repeats must be >= 1 (got {args.repeats})", EXIT_INPUT_ERROR)
    config = load_config(args.config)
    digest = config_digest(config)
    try:
        report = analytic.sensitivity(config, repeats=args.repeats)
    except analytic.UndefinedSensitivityError as exc:
        return _fail(str(exc), EXIT_UNDEFINED)

    if args.format == "csv":
        payload = report.csv_header() + "\n" + report.csv_row() + "\n"
    else:
        record = {"config_digest": digest, **report.to_dict()}
        record["n_ps"] = config.n_ps
        record["beats_sql"] = report.delta_phi < report.sql
        payload = json.dumps(record, indent=2) + "\n"
    if args.out:
        sweep.write_atomic(args.out, [payload])
        _write_manifest(args.out, "report", digest)
    sys.stdout.write(payload)
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = load_config(args.config) if args.config else None
    kind = PRESETS.get(args.preset) if args.preset else args.kind
    if kind is None:
        return _fail("either --preset or --kind is required", EXIT_INPUT_ERROR)
    spec = _build_spec(kind, base)
    result = sweep.run_sweep(spec)
    out = args.out or "sweep.csv"
    result.write_csv(out)
    digest = config_digest(spec.base)
    _write_manifest(out, f"sweep:{kind}", digest)
    print(f"wrote {out} ({len(result)} rows)")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        records = verify.run_suite(
            args.suite, seed=args.seed, cutoff=args.cutoff, mutate=args.mutate
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    lines = [json.dumps(r.to_dict()) for r in records]
    if args.out:
        sweep.write_atomic(args.out, ["\n".join(lines) + "\n"])
        _write_manifest(args.out, f"verify:{args.suite}", "none")
    failures = [r for r in records if not r.passed]
    for r in records:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.check}  rel_err={r.rel_err:.3e}  tol={r.tol:.1e}")
    if failures:
        print(
            f"{len(failures)} of {len(records)} checks failed: "
            + ", ".join(r.check for r in failures),
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    print(f"all {len(records)} checks passed")
    return EXIT_OK


def cmd_chi3(args) -> int:
    medium = load_medium(args.config)
    if args.delta_phi_n < 0 or not math.isfinite(args.delta_phi_n):
        return _fail("delta-phi-n must be finite and >= 0", EXIT_INPUT_ERROR)
    delta_chi3 = analytic.chi3_uncertainty(medium, args.delta_phi_n)
    # slope of the forward map phi_n(chi3); its inverse defines the bound
    forward = analytic.chi3_phase(medium, 1.0)
    record = {
        "delta_phi_n": args.delta_phi_n,
        "delta_chi3": delta_chi3,
        "phi_n_per_chi3": forward,
    }
    payload = json.dumps(record, indent=2) + "\n"
    if args.out:
        sweep.write_atomic(args.out, [payload])
        _write_manifest(args.out, "chi3", "none")
    sys.stdout.write(payload)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--kind", choices=("gain", "internal-loss", "external-loss", "split"))
    p.add_argument("--preset", choices=tuple(PRESETS))
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
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigFileError, InvalidConfigError, sweep.SweepSpecError,
        OSError, oracle.TruncationError,
    ) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
