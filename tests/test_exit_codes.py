"""The exit-code contract of the command line as a property.

Whatever config text and arguments it is given, ``cli.main`` exits 0, 2
or 3 (verify's 1 means "checks failed": the drawn analytic suites pass,
and no draw mutates a check that exists).
It raises no traceback and no warning, prints finite JSON figures only,
writes a sweep only when every SQL cell and every delta_phi and qcrb cell
of a defined row is finite and positive, and writes no file when it
refuses.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrmzi.cli import PRESETS, _SWEEP_KINDS, main
from kerrmzi.config import _CONFIG_SCHEMA

CONFIG, OUT = "<config>", "<out>"

VALUES = (
    "0", "-0", "1e300", "-1e300", "1e-300", "-1e-300", "nan", "inf", "-inf",
    "0.25", "1", "2", "10", "1e104", "1e154", "1e200", "1.000000000000001", "ten", "5%",
)

MEDIUM = {"medium": {"n0": "1.45", "intensity": "1e12", "wavenumber": "7.85e6", "length": "0.01"}}

# the drawn values replace working ones, so that they are also met on
# configs that get as far as the closed forms; every command reads only
# its own sections
BASES = (
    {},
    {"nbs1": {"gain": "2.2360679774997896"}, "nbs2": {"gain": "4.123105625617661"},
     "splitter": {"transmissivity": "0.25"}, "coherent": {"magnitude": "10"}, **MEDIUM},
    # balanced: G1 = G2 and theta2 = pi give the report its balanced terms
    {"nbs1": {"gain": "2"}, "nbs2": {"gain": "2", "phase": "3.141592653589793"},
     "coherent": {"magnitude": "10"}, **MEDIUM},
)

# a NUL, a UTF-16 byte-order mark, a stray continuation byte, an unclosed
# header
JUNK = (b"\x00", b"\xff\xfe", b"\x80", b"[nbs1")

_RARELY = st.sampled_from((False, False, False, True))


@st.composite
def ini_files(draw) -> bytes:
    sections = {s: dict(keys) for s, keys in draw(st.sampled_from(BASES)).items()}
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(tuple(_CONFIG_SCHEMA)))
        key = draw(st.sampled_from(_CONFIG_SCHEMA[section]))
        if draw(_RARELY):
            # an unknown key, an unknown section, or a key in [DEFAULT],
            # which the reader lends to every section
            section, key = draw(st.sampled_from(((section, "bogus"), ("bogus", key), ("DEFAULT", key))))
        sections.setdefault(section, {})[key] = draw(st.sampled_from(VALUES))
    lines = [f"[{s}]" if k is None else f"{k} = {v}"
             for s, keys in sections.items() for k, v in [(None, None), *keys.items()]]
    if lines and draw(_RARELY):
        # a duplicate section or key
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(i, lines[i])
    text = "\n".join(lines).encode()
    if not draw(_RARELY):
        return text
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(JUNK)) + text[at:]


def _argv(*parts):
    return st.tuples(*parts).map(lambda groups: [arg for group in groups for arg in group])


def _one_of(*choices):
    return st.sampled_from([list(c) for c in choices])


_OUT = _one_of((), ("--out", OUT))

ARGV = st.one_of(
    _argv(_one_of(("report", "--config", CONFIG)),
          _one_of((), ("--repeats", "3"), ("--repeats", "0")),
          _one_of((), ("--format", "csv")), _OUT),
    _argv(_one_of(("sweep", "--config", CONFIG, "--out", OUT)),
          _one_of((), *(("--kind", k) for k in _SWEEP_KINDS), *(("--preset", p) for p in PRESETS))),
    _argv(_one_of(("chi3", "--config", CONFIG, "--delta-phi-n")),
          st.sampled_from(VALUES).map(lambda v: [v]), _OUT),
    # the oracle only on argv refused before any check runs: a cutoff below
    # 2 or above 64
    _argv(_one_of(("verify",)), _one_of(("--suite", "oracle"), ("--suite", "all")),
          _one_of(("--cutoff", "1"), ("--cutoff", "65"), ("--cutoff", "300")), _OUT),
    # the analytic suite at any seed, passing, or refused for a mutation
    # that names no check
    _argv(_one_of(("verify", "--suite", "analytic", "--seed")),
          st.integers(0, 2**32 - 1).map(lambda seed: [str(seed)]),
          _one_of((), ("--mutate", "bogus")), _OUT),
)


def _finite_json(text: str):
    def refuse(constant):
        raise AssertionError(f"{constant} printed")

    record = json.loads(text, parse_constant=refuse)
    assert all(math.isfinite(v) for v in record.values() if isinstance(v, float)), record


def _positive(cells):
    return all(0.0 < float(c) < math.inf for c in cells)


def _check_sweep(path: Path):
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert _positive(r["sql"] for r in rows)
    defined = [r for r in rows if r["defined"] == "1"]
    assert _positive(r["delta_phi"] for r in defined) and _positive(r["qcrb"] for r in defined)


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses with 2
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


MAGNITUDE_1E104 = b"[coherent]\nmagnitude = 1e104\n[nbs1]\ngain = 2.2360679774997896\n"
BALANCED = b"[nbs1]\ngain = 2\n[nbs2]\ngain = 2\nphase = 3.141592653589793\n[coherent]\nmagnitude = 10\n"
REPORT = ["report", "--config", CONFIG]
SPLIT = ["sweep", "--config", CONFIG, "--out", OUT, "--kind", "split"]
MEDIUM_FILE = b"[medium]\nn0 = 1.45\nintensity = 1e12\nwavenumber = 7.85e6\nlength = 0.01\n"
CHI3 = ["chi3", "--config", CONFIG, "--out", OUT, "--delta-phi-n"]


@settings(max_examples=150)
@given(ini=ini_files(), template=ARGV)
# the pump overflows N_ps^1.5: sql printed as 0
@example(ini=MAGNITUDE_1E104 + b"[nbs2]\ngain = 1.000000000000001\n", template=REPORT)
# g2 = 0 times an infinite N_alpha: undefined, and numpy warned
@example(ini=b"[coherent]\nmagnitude = 1e200\n", template=REPORT)
@example(ini=b"[coherent]\nmagnitude = 10\n[nbs2]\ngain = 1e200\n", template=REPORT)
# the balanced terms overflow beside the slope, and numpy warned
@example(ini=BALANCED.replace(b"magnitude = 10", b"magnitude = 1e120"), template=REPORT)
# 49 defined rows with delta_phi = sql = qcrb = 0, then with delta_phi nan
@example(ini=b"[coherent]\nmagnitude = 1e154\n[nbs2]\ngain = 2\n", template=SPLIT)
@example(ini=b"[coherent]\nmagnitude = 10\n[nbs1]\ngain = 1e200\n[nbs2]\ngain = 2\n", template=SPLIT)
# no photon: no row defined and an infinite SQL, so undefined, not out of
# range
@example(ini=b"[coherent]\nmagnitude = 0\n", template=SPLIT)
# a valid medium, so that chi3 succeeds, at phase uncertainties from 0 to 10
@example(ini=MEDIUM_FILE, template=CHI3 + ["0"])
@example(ini=MEDIUM_FILE, template=CHI3 + ["1e-300"])
@example(ini=MEDIUM_FILE, template=CHI3 + ["1e-6"])
@example(ini=MEDIUM_FILE, template=CHI3 + ["10"])
def test_every_input_exits_0_2_or_3(ini, template):
    with tempfile.TemporaryDirectory() as tmp:
        config, outdir = Path(tmp) / "config.ini", Path(tmp) / "out"
        config.write_bytes(ini)
        outdir.mkdir()
        out = outdir / "result"
        argv = [{CONFIG: str(config), OUT: str(out)}.get(a, a) for a in template]
        code, stdout, stderr = _run(argv)

        assert code in (0, 2, 3), (code, stderr)
        assert "Traceback" not in stderr and "Warning" not in stderr, stderr
        if code:
            assert stdout == "" and list(outdir.iterdir()) == [], (code, stdout)
        elif argv[0] == "sweep":
            _check_sweep(out)
        elif argv[0] == "verify":
            assert stdout.endswith(" checks passed\n"), stdout
            for line in out.read_text().splitlines() if out.exists() else ():
                _finite_json(line)
        elif argv[0] == "chi3" or "csv" not in argv:
            _finite_json(stdout)
        else:
            assert all(math.isfinite(float(v)) for v in stdout.splitlines()[1].split(",") if v)
