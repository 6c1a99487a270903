"""The preset sweeps against CSVs stored from the scalar, per-point
implementation that preceded the array evaluation.

The fig2, fig4a and fig4b files must match byte for byte.  In split, axis
columns and the beats_sql and defined flags must match byte for byte; a
delta_phi, sql or qcrb cell must match byte for byte or within 1e-14
relative (the closed forms now square by products instead of pow, which
moves the last digits of six qcrb cells).
"""

from pathlib import Path

import pytest

from kerrmzi.cli import main

DATA = Path(__file__).parent / "data"
NUMERIC = ("delta_phi", "sql", "qcrb")
REL_TOL = 1e-14
EXACT = ("fig2", "fig4a", "fig4b")
SWEEPS = {
    "fig2": ["--preset", "fig2"],
    "fig4a": ["--preset", "fig4a"],
    "fig4b": ["--preset", "fig4b"],
    "split": ["--kind", "split"],
}


@pytest.mark.parametrize("name", SWEEPS)
def test_preset_matches_stored_csv(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    assert main(["sweep", *SWEEPS[name], "--out", str(path)]) == 0
    if name in EXACT:
        assert path.read_bytes() == (DATA / f"{name}.csv").read_bytes()
        return
    got = path.read_text().splitlines()
    want = (DATA / f"{name}.csv").read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0].split(",")
    for got_line, want_line in zip(got[1:], want[1:]):
        for column, a, b in zip(header, got_line.split(","), want_line.split(",")):
            if column not in NUMERIC or a == b:
                assert a == b, (column, got_line, want_line)
                continue
            x, y = float(a), float(b)
            assert abs(x - y) <= REL_TOL * max(abs(x), abs(y)), (column, a, b)
