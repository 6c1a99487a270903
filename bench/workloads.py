"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload is a list of operations of one shape.  ``make_inputs`` draws
their parameters by Latin-hypercube sampling, so every run covers the
parameter box evenly whatever the seed; ``OPERATIONS[name]`` runs one
operation through the public kerrmzi API (the timed part) and
``CHECKS[name]`` checks its outputs (untimed) against computations made
apart from the code being timed: the Gaussian covariance reference in
``gaussian.py``, re-parsed output files, and relations between closed forms
and the truncated-Fock oracle.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gaussian
from kerrmzi import analytic, cli, config, oracle, sweep, verify

# calibration kernel matched to the work each workload times
CLOCKS = {"closed-form": "python", "oracle-pure": "tensor", "oracle-lossy": "tensor"}

# closed-form: sizes of the jobs in one operation
MAP_POINTS = 61  # per axis of each (eta, eta) loss map
GAIN_POINTS = 71  # g2/g1 values per split ratio of the gain sweep
SPLIT_POINTS = 97
SUITE_DRAWS = 400
VARIANCE_SAMPLES = 8  # grid points per loss map checked against the reference
LOSS_PARAMETERS = ("loss.eta_a", "loss.eta_b", "loss.eta_c", "loss.eta_d", "loss.eta_det")
LOSS_MAPS = (("loss.eta_c", "loss.eta_d"), ("loss.eta_a", "loss.eta_b"))
THRESHOLD_REL_TOL = 1e-6  # find_sql_threshold's default
REFERENCE_REL_TOL = 1e-9  # closed form vs Gaussian propagation, both exact

# oracle workloads: cutoffs, budgets and tolerances of verify.run_oracle_suite
PURE_CUTOFF = 15
PURE_BUDGET = 1e-6
SLOPE_TOL = 1e-3
VARIANCE_TOL = 1e-4
QFI_TOL = 1e-3
SLOPE_DOUBLING_TOL = 1e-4
VARIANCE_DOUBLING_TOL = 1e-5
LOSSY_CUTOFF = 8
LOSSY_BUDGET = 5e-4
LOSSY_TOL = 1e-3
DRIFT_GUARD = 1e-9  # oracle's norm/trace drift guard
HERMITIAN_TOL = 1e-12
POSITIVITY_TOL = 1e-12

# Parameter boxes.  closed-form: paper scale, around the Fig. 2 (g2 = g1)
# and Fig. 4 (g2 = 2 g1) bases alpha = 10, g1 = 2, T = 1/4.  oracle-pure:
# verify's desk-scale alpha and g1, with g2 tied to g1: where g2 is well
# above g1 (g1 = 0.05, g2 = 1) the readout squeezer is left uncancelled and
# simulate correctly refuses cutoff 15 (top-level occupancy 2.5e-5 > 1e-6).
# T is continuous so every operation also builds new splitter gates.
# oracle-lossy: verify's canonical configuration with
# a loss draw; eta is capped at 0.95 because near eta_c = eta_d = 1 the
# cutoff-8 slope misses the closed form by just over the 1e-3 tolerance.
CLOSED_FORM_BOX = {
    "alpha": (8.0, 12.0),
    "g1": (1.5, 2.5),
    "g2_over_g1": (1.0, 2.0),
    "transmissivity": (0.2, 0.3),
}
PURE_BOX = {
    "alpha": (0.2, 1.2),
    "g1": (0.05, 0.5),
    "g2_over_g1": (1.0, 2.5),
    "transmissivity": (0.2, 0.8),
}
LOSSY_BASE = {"alpha": 1.0, "g1": 0.3, "g2": 0.6, "transmissivity": 0.25}
LOSSY_BOX = {name: (0.35, 0.95) for name in ("eta_a", "eta_b", "eta_c", "eta_d")}


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent check."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class OpInput:
    """One operation's input: the config as INI text, the config it must
    parse to, and a seed for the operation's own draws."""

    ini: str
    expected: config.InterferometerConfig
    seed: int


def to_ini(cfg: config.InterferometerConfig) -> str:
    lines = []
    for section in ("nbs1", "nbs2", "splitter", "coherent", "phase", "loss"):
        part = getattr(cfg, section)
        lines.append(f"[{section}]")
        lines += [f"{f.name} = {getattr(part, f.name)!r}" for f in dataclasses.fields(part)]
    return "\n".join(lines) + "\n"


def latin_hypercube(rng, count: int, box: dict) -> list:
    """``count`` points of the box, one per stratum of every coordinate."""
    columns = {
        name: lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count
        for name, (lo, hi) in box.items()
    }
    return [{name: float(col[i]) for name, col in columns.items()} for i in range(count)]


def _build(workload: str, point: dict) -> config.InterferometerConfig:
    if workload == "oracle-lossy":
        return config.build_config(**LOSSY_BASE, **point)
    return config.build_config(
        alpha=point["alpha"],
        g1=point["g1"],
        g2=point["g2_over_g1"] * point["g1"],
        transmissivity=point["transmissivity"],
    )


_BOXES = {"closed-form": CLOSED_FORM_BOX, "oracle-pure": PURE_BOX, "oracle-lossy": LOSSY_BOX}


def make_inputs(workload: str, rng, count: int) -> list:
    points = latin_hypercube(rng, count, _BOXES[workload])
    seeds = rng.integers(0, 2**31, size=count)
    inputs = []
    for point, seed in zip(points, seeds):
        cfg = _build(workload, point)
        inputs.append(OpInput(ini=to_ini(cfg), expected=cfg, seed=int(seed)))
    return inputs


# --- closed-form --------------------------------------------------------------


def _cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_closed_form(inp: OpInput, workdir: Path) -> dict:
    cfg = config.parse_config(inp.ini)
    out = {"config": cfg, "sweeps": {}}
    specs = {
        f"map_{a[5:]}_{b[5:]}": (
            sweep.Axis.linspace(a, 0.0, 1.0, MAP_POINTS),
            sweep.Axis.linspace(b, 0.0, 1.0, MAP_POINTS),
        )
        for a, b in LOSS_MAPS
    }
    specs["gain"] = (
        sweep.Axis.from_values("r_over_t", (1.0, 3.0, 9.0)),
        sweep.Axis.linspace("g2_over_g1", 0.5, 4.0, GAIN_POINTS),
    )
    specs["split"] = (
        sweep.Axis.linspace("splitter.transmissivity", 0.02, 0.98, SPLIT_POINTS),
    )
    for name, axes in specs.items():
        result = sweep.run_sweep(sweep.SweepSpec(base=cfg, axes=axes))
        path = workdir / f"{name}.csv"
        result.write_csv(path)
        out["sweeps"][name] = (result, path)
    out["thresholds"] = [sweep.find_sql_threshold(cfg, p) for p in LOSS_PARAMETERS]
    out["suite"] = verify.run_analytic_suite(seed=inp.seed, draws=SUITE_DRAWS)
    ini_path = workdir / "config.ini"
    cli_csv = workdir / "cli_internal_loss.csv"
    out["cli_report"] = _cli(["report", "--config", str(ini_path)])
    out["cli_sweep"] = _cli(
        ["sweep", "--kind", "internal-loss", "--config", str(ini_path), "--out", str(cli_csv)]
    )
    out["cli_csv"] = cli_csv
    return out


def _read_csv(path: Path, result=None) -> dict:
    """Columns of a sweep CSV; with ``result``, every cell must read back
    bit for bit as the in-memory row value."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), f"{path}: ragged rows")
    cols = {h: np.array([float(r[i]) for r in rows]) for i, h in enumerate(header)}
    if result is not None:
        _require(header == result.csv_header().split(","), f"{path}: header differs")
        _require(len(rows) == len(result.rows), f"{path}: row count differs")
        for cells, row in zip(rows, result.rows):
            want = list(row.axis_values) + [row.delta_phi, row.sql, row.qcrb]
            got = [float(c) for c in cells[: len(want)]]
            _require(
                [g.hex() for g in got] == [float(w).hex() for w in want],
                f"{path}: a value does not read back bit for bit",
            )
            _require(
                cells[len(want):] == [str(int(row.beats_sql)), str(int(row.defined))],
                f"{path}: flags do not read back",
            )
    return cols


def _check_loss_map(cols: dict, names: tuple, cfg, lossless_dphi: float, label: str) -> None:
    dphi = cols["delta_phi"]
    eta = {
        n: cols[n] if n in names else np.full(len(dphi), getattr(cfg.loss, n[5:]))
        for n in ("loss.eta_b", "loss.eta_d")
    }
    zero = eta["loss.eta_b"] * eta["loss.eta_d"] == 0.0
    _require(
        np.array_equal(cols["defined"] == 0.0, zero),
        f"{label}: defined = 0 not exactly where eta_b * eta_d = 0",
    )
    u, v = cols[names[0]], cols[names[1]]
    corner = (u == 1.0) & (v == 1.0)
    _require(corner.sum() == 1, f"{label}: no single eta = 1 corner")
    _require(
        dphi[corner][0] == lossless_dphi,
        f"{label}: eta = 1 corner {dphi[corner][0]!r} != lossless report {lossless_dphi!r}",
    )
    # single-loss scans (the other eta at 1).  Inside the map delta_phi is
    # not monotone: at eta_b = 0.3 raising eta_a adds uncancelled noise.
    for scan, fixed in ((u, v), (v, u)):
        edge = fixed == 1.0
        d = dphi[edge][np.argsort(scan[edge], kind="stable")]
        _require(np.all(d[1:] <= d[:-1]), f"{label}: delta_phi rises with a single eta")


def _check_variance_samples(cols: dict, names: tuple, cfg, rng, label: str) -> None:
    defined = np.flatnonzero(cols["defined"] == 1.0)
    for i in rng.choice(defined, size=VARIANCE_SAMPLES, replace=False):
        point = cfg
        for n in names:
            point = sweep.set_parameter(point, n, float(cols[n][i]))
        var_ref = gaussian.readout_variance(point)
        var_an = analytic.lossy_noise_at_zero(point)
        dphi_ref = math.sqrt(var_ref) / analytic.lossy_slope_at_zero(point)
        rel = max(
            abs(var_an - var_ref) / var_ref,
            abs(cols["delta_phi"][i] - dphi_ref) / dphi_ref,
        )
        _require(rel <= REFERENCE_REL_TOL, f"{label}: variance off the Gaussian reference by {rel:.3e}")


def check_closed_form(inp: OpInput, out: dict) -> dict:
    cfg = out["config"]
    _require(cfg == inp.expected, "parse_config did not reproduce the config")
    code, text = out["cli_report"]
    _require(code == 0, f"cli report exited {code}")
    report = json.loads(text)
    lossless_dphi = report["delta_phi"]
    rng = np.random.default_rng(inp.seed)
    for name, (result, path) in out["sweeps"].items():
        cols = _read_csv(path, result)
        if name.startswith("map_"):
            names = result.axis_names
            _check_loss_map(cols, names, cfg, lossless_dphi, name)
            _check_variance_samples(cols, names, cfg, rng, name)
        else:
            _require(np.all(cols["defined"] == 1.0), f"{name}: undefined point in a lossless sweep")
            _require(np.all(cols["delta_phi"] >= cols["qcrb"]), f"{name}: delta_phi below the QCRB")
    for th in out["thresholds"]:
        if th.found:
            probe = sweep.set_parameter(cfg, th.parameter, th.eta_star)
            rel = abs(analytic.sensitivity(probe).delta_phi - th.sql) / th.sql
            _require(rel < THRESHOLD_REL_TOL, f"threshold {th.parameter}: |dphi - SQL|/SQL = {rel:.3e}")
    failed = [r.check for r in out["suite"] if not r.passed]
    _require(not failed, f"analytic suite failed: {failed}")
    code, _ = out["cli_sweep"]
    _require(code == 0, f"cli sweep exited {code}")
    cols = _read_csv(out["cli_csv"])
    _check_loss_map(cols, LOSS_MAPS[0], cfg, lossless_dphi, "cli internal-loss sweep")
    return {}


# --- oracle workloads -----------------------------------------------------------


def run_oracle_pure(inp: OpInput, workdir: Path) -> dict:
    cfg = config.parse_config(inp.ini)
    c = PURE_CUTOFF
    state = oracle.simulate(cfg, cutoff=c, budget=PURE_BUDGET)
    state_2c = oracle.simulate(cfg, cutoff=2 * c, budget=PURE_BUDGET)
    return {
        "config": cfg,
        "state": state,
        "state_2c": state_2c,
        "variance": oracle.quadrature_stats(state, oracle.MODE_A)[1],
        "variance_2c": oracle.quadrature_stats(state_2c, oracle.MODE_A)[1],
        "slope": oracle.numeric_slope(cfg, cutoff=c, budget=PURE_BUDGET),
        "slope_2c": oracle.numeric_slope(cfg, cutoff=2 * c, budget=PURE_BUDGET),
        "qfi": oracle.oracle_qfi(cfg, cutoff=c, budget=PURE_BUDGET),
        "report": analytic.sensitivity(cfg),
    }


def run_oracle_lossy(inp: OpInput, workdir: Path) -> dict:
    cfg = config.parse_config(inp.ini)
    state = oracle.simulate(cfg, cutoff=LOSSY_CUTOFF, budget=LOSSY_BUDGET)
    return {
        "config": cfg,
        "state": state,
        "variance": oracle.quadrature_stats(state, oracle.MODE_A)[1],
        "slope": oracle.numeric_slope(cfg, cutoff=LOSSY_CUTOFF, budget=LOSSY_BUDGET),
        "report": analytic.sensitivity(cfg),
    }


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def check_oracle_pure(inp: OpInput, out: dict) -> dict:
    cfg, report = out["config"], out["report"]
    _require(cfg == inp.expected, "parse_config did not reproduce the config")
    var, var_2c = out["variance"], out["variance_2c"]
    slope, slope_2c = abs(out["slope"].value), abs(out["slope_2c"].value)
    qfi_poly = analytic.qfi_nonlinear(cfg.coherent.n_alpha, 2.0 * cfg.nbs1.g**2, cfg.splitter).f
    errs = {
        "slope_rel_err": _rel(slope, report.slope),
        "variance_rel_err": _rel(var, report.noise),
        "qfi_rel_err": _rel(out["qfi"], qfi_poly),
    }
    _require(errs["slope_rel_err"] <= SLOPE_TOL, f"slope off the closed form: {errs}")
    _require(errs["variance_rel_err"] <= VARIANCE_TOL, f"variance off the closed form: {errs}")
    _require(errs["qfi_rel_err"] <= QFI_TOL, f"QFI off the polynomial: {errs}")
    ref = _rel(var, gaussian.readout_variance(cfg))
    _require(ref <= VARIANCE_TOL, f"variance off the Gaussian reference by {ref:.3e}")
    _require(_rel(slope, slope_2c) <= SLOPE_DOUBLING_TOL, "slope moves under cutoff doubling")
    _require(_rel(var, var_2c) <= VARIANCE_DOUBLING_TOL, "variance moves under cutoff doubling")
    for state in (out["state"], out["state_2c"]):
        _require(abs(state.norm_sq - 1.0) <= DRIFT_GUARD, f"norm drifted to {state.norm_sq!r}")
    return errs


def check_oracle_lossy(inp: OpInput, out: dict) -> dict:
    cfg, report, rho = out["config"], out["report"], out["state"]
    _require(cfg == inp.expected, "parse_config did not reproduce the config")
    var = out["variance"]
    errs = {
        "slope_rel_err": _rel(abs(out["slope"].value), report.slope),
        "variance_rel_err": _rel(var, report.noise),
    }
    _require(errs["slope_rel_err"] <= LOSSY_TOL, f"lossy slope off the closed form: {errs}")
    _require(errs["variance_rel_err"] <= LOSSY_TOL, f"lossy variance off the closed form: {errs}")
    ref = _rel(var, gaussian.readout_variance(cfg))
    _require(ref <= LOSSY_TOL, f"variance off the Gaussian reference by {ref:.3e}")
    _require(abs(rho.trace - 1.0) <= DRIFT_GUARD, f"trace drifted to {rho.trace!r}")
    _require(rho.hermiticity_defect() <= HERMITIAN_TOL, "density operator not Hermitian")
    _require(rho.min_eigenvalue() >= -POSITIVITY_TOL, "density operator not positive")
    return errs


OPERATIONS = {
    "closed-form": run_closed_form,
    "oracle-pure": run_oracle_pure,
    "oracle-lossy": run_oracle_lossy,
}
CHECKS = {
    "closed-form": check_closed_form,
    "oracle-pure": check_oracle_pure,
    "oracle-lossy": check_oracle_lossy,
}
