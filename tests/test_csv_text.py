"""Sweep CSV text against Python's own '%.17g', byte for byte.

``sweep._fixed_17g`` builds '%.17g' text in numpy for 1e-4 <= |v| < 1e16
and ``sweep._format_column`` routes every other value, and columns of few
distinct values, to Python.  ``tests/test_golden.py`` allows 1e-14 per
numeric cell, so it would pass a cell off by one in the 17th digit; these
tests allow nothing.
"""

from decimal import Decimal

import numpy as np
import pytest

from kerrmzi import sweep
from kerrmzi.cli import _SWEEP_KINDS, _build_spec
from kerrmzi.config import build_config
from kerrmzi.sweep import Axis, SweepResult, SweepSpec, run_sweep
from kerrmzi.verify import _paper_draw

WINDOW = (1e-4, 1e16)


def reference_csv_text(result: SweepResult) -> str:
    """The writer the numpy kernel replaced: '%.17g' per distinct value,
    then the row join."""

    def cells(column):
        bits = np.ascontiguousarray(column, dtype=float).view(np.int64)
        bits, where = np.unique(bits, return_inverse=True)
        text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
        return text[where].tolist()

    numbers = [*result.axis_values, result.delta_phi, result.sql, result.qcrb]
    columns = [cells(c) for c in numbers]
    columns += [np.where(c, "1", "0").tolist() for c in (result.beats_sql, result.defined)]
    return "\n".join([result.csv_header(), *map(",".join, zip(*columns))]) + "\n"


def _powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-8, 21)] + [10.0**k for k in range(-8, 21)])
    edges = np.array(WINDOW)
    near = np.concatenate([tens, edges])
    return np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, np.inf)])


def _exact_ties(rng, per_scale: int):
    """Dyadics q / 2^j (q odd, q < 2^53) whose exact decimal has 18
    significant digits, the last a 5: '%.17g' rounds them half to even."""
    values = []
    for j in range(2, 26):
        lo, hi = 10**17 // 5**j + 1, min(10**18 // 5**j, 2**53)
        if lo < hi:
            values += [int(q) / 2**j for q in rng.integers(lo, hi, per_scale) | 1]
    return np.array([v for v in values if len(Decimal(v).as_tuple().digits) == 18])


def property_values(seed: int) -> np.ndarray:
    """About 1e5 seeded doubles: random bit patterns (subnormals and
    negatives among them), log-uniform magnitudes from 1e-8 to 1e20 of
    both signs, powers of ten and the window edges with their neighbours,
    exact 17th-digit ties, and the signed zeros, infinities and nan."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], 40_000)
    ties = _exact_ties(rng, 200)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
    parts = [
        rng.integers(-(2**63), 2**63 - 1, 40_000, dtype=np.int64).view(np.float64),
        signs * 10.0 ** rng.uniform(-8.0, 20.0, 40_000),
        _powers_of_ten(),
        -_powers_of_ten(),
        ties,
        -ties,
        special,
    ]
    return np.concatenate(parts)


def _in_window(values):
    magnitude = np.abs(values)
    return values[(magnitude >= WINDOW[0]) & (magnitude < WINDOW[1])]


class TestKernel:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_column_equals_python_per_value(self, seed):
        values = property_values(seed)
        want = [format(v, ".17g") for v in values.tolist()]
        assert sweep._format_column(values) == want

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernel_equals_python_in_window(self, seed):
        values = np.unique(_in_window(property_values(seed)))
        assert len(values) > 30_000
        got = sweep._fixed_17g(values).tolist()
        assert got == [format(v, ".17g") for v in values.tolist()]

    def test_exact_ties_round_half_even(self):
        ties = np.sort(_in_window(_exact_ties(np.random.default_rng(2), 50)))
        assert len(ties) > 200
        got = sweep._fixed_17g(ties).tolist()
        assert got == [format(v, ".17g") for v in ties.tolist()]
        # both directions of the half-even rule occur
        last = {Decimal(v).as_tuple().digits[-2] % 2 for v in ties.tolist()}
        assert last == {0, 1}

    def test_any_order_and_sign(self):
        # the runs of one layout are a speed matter only: a shuffled,
        # mixed-sign input gives the same text
        rng = np.random.default_rng(3)
        values = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-4.0, 15.9, 500)
        assert sweep._fixed_17g(values).tolist() == [format(v, ".17g") for v in values.tolist()]

    def test_cells_are_str(self):
        values = np.linspace(0.001, 0.002, 1000)
        cells = sweep._format_column(values)
        assert {type(c) for c in cells} == {str}


def _assert_reference_text(result):
    assert result.csv_text() == reference_csv_text(result)


@pytest.mark.parametrize("kind", _SWEEP_KINDS)
def test_every_kind_matches_reference(kind):
    _assert_reference_text(run_sweep(_build_spec(kind, None)))


@pytest.mark.parametrize("seed", range(4))
def test_seeded_loss_maps_match_reference(seed):
    rng = np.random.default_rng(seed)
    base = build_config(**_paper_draw(rng))
    for names in (("loss.eta_c", "loss.eta_d"), ("loss.eta_a", "loss.eta_b")):
        axes = tuple(Axis.linspace(name, 0.0, 1.0, 61) for name in names)
        _assert_reference_text(run_sweep(SweepSpec(base=base, axes=axes)))


def test_signed_phase_axis_at_large_pump_matches_reference():
    # a phase axis from -3 to 3 long enough for the kernel, 0.0 among its
    # cells, against pump amplitudes up to 1e4
    base = build_config(alpha=10.0, g1=2.0, g2=4.0, transmissivity=0.25)
    axes = (
        Axis.linspace("phase.linear", -3.0, 3.0, 201),
        Axis.from_values("coherent.magnitude", [0.5, 10.0, 1e4]),
    )
    result = run_sweep(SweepSpec(base=base, axes=axes))
    assert (result.axis_values[0] < 0).any() and (result.axis_values[0] == 0).any()
    _assert_reference_text(result)


def test_cells_outside_window_and_undefined_rows_match_reference():
    # in-window cells enough for the kernel, mixed with inf and nan rows,
    # signed zeros, subnormals, cells below 1e-4 and at or above 1e16
    rng = np.random.default_rng(4)
    inside = np.sort(10.0 ** rng.uniform(-4.0, 16.0, 400))
    outside = np.array([
        np.inf, np.nan, 0.0, -0.0, 5e-324, 9.9e-5, np.nextafter(1e-4, 0), 1e16,
        1.5e16, 1e300, -2e17, -3e-7,
    ])
    x = rng.permutation(np.concatenate([inside, -inside[:100], outside]))
    result = SweepResult(("loss.eta_d",), (x,), x, np.full_like(x, 2.5e-4), x[::-1].copy(),
                         x < 2.5e-4, np.isfinite(x), x.shape)
    _assert_reference_text(result)
