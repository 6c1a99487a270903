import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kerrmzi
from kerrmzi import cli, oracle, verify
from kerrmzi.cli import main

GOOD_CONFIG = """
[nbs1]
gain = 2.2360679774997896

[nbs2]
gain = 4.123105625617661
phase = 3.141592653589793

[splitter]
transmissivity = 0.25

[coherent]
magnitude = 10.0
"""

ZERO_SLOPE_CONFIG = """
[nbs1]
gain = 2.2360679774997896

[coherent]
magnitude = 10.0
"""

MEDIUM_CONFIG = """
[medium]
n0 = 1.45
intensity = 1.0e12
wavenumber = 7.85e6
length = 0.01
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(GOOD_CONFIG)
    return path


class TestReport:
    def test_reference_report(self, config_file, capsys):
        assert main(["report", "--config", str(config_file)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["delta_phi"] == pytest.approx(2.617e-4, rel=1e-3)
        assert record["sql"] == pytest.approx(8.910e-4, rel=1e-3)
        assert record["beats_sql"] is True
        assert record["n_ps"] == pytest.approx(108.0)

    def test_csv_format(self, config_file, capsys):
        assert main(
            ["report", "--config", str(config_file), "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("slope,noise,delta_phi,sql,qcrb")
        assert float(lines[1].split(",")[2]) == pytest.approx(2.617e-4, rel=1e-3)

    def test_zero_slope_exits_3(self, tmp_path):
        path = tmp_path / "dead.ini"
        path.write_text(ZERO_SLOPE_CONFIG)
        assert main(["report", "--config", str(path)]) == 3

    def test_malformed_file_exits_2_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[coherent]\nmagnitude = ten\n")
        assert main(["report", "--config", str(path)]) == 2
        assert "magnitude" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["5%", "%(x)s"])
    def test_percent_in_value_exits_2_names_line(self, tmp_path, capsys, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[nbs1]\ngain = {value}\n")
        assert main(["report", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"[nbs1] gain: not a number (got '{value}', line 2)" in err

    def test_out_of_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[splitter]\ntransmissivity = 1.2\n")
        assert main(["report", "--config", str(path)]) == 2
        assert "transmissivity outside [0,1]" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["report", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_non_positive_repeats_exits_2(self, config_file, capsys, repeats):
        argv = ["report", "--config", str(config_file), "--repeats", repeats]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --repeats must be >= 1")

    def test_out_file_and_manifest(self, config_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", "--config", str(config_file), "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["command"] == "report"
        assert manifest["config_digest"] == record["config_digest"]
        assert manifest["outputs"] == [str(out)]
        assert manifest["version"]


class TestSweep:
    def test_preset_fig2(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["sweep", "--preset", "fig2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r_over_t,g2_over_g1,delta_phi,sql,qcrb,beats_sql,defined"
        assert len(lines) == 1 + 3 * 36
        ratios = {line.split(",")[0] for line in lines[1:]}
        assert ratios == {"1", "3", "9"}
        assert (tmp_path / "fig2.csv.manifest.json").exists()

    def test_preset_fig4a_grid(self, tmp_path, capsys):
        out = tmp_path / "fig4a.csv"
        assert main(["sweep", "--preset", "fig4a", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("loss.eta_c,loss.eta_d")
        assert len(lines) == 1 + 21 * 21

    def test_preset_fig4b_grid(self, tmp_path, capsys):
        out = tmp_path / "fig4b.csv"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("loss.eta_a,loss.eta_b")

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--preset", "fig2", "--out", str(a)]) == 0
        assert main(["sweep", "--preset", "fig2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_kind_split_with_config(self, config_file, tmp_path, capsys):
        out = tmp_path / "split.csv"
        code = main(
            ["sweep", "--kind", "split", "--config", str(config_file), "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "kind, digest",
        [("gain", "f3110fa7aefa"), ("internal-loss", "673dcb4859fa"),
         ("external-loss", "673dcb4859fa"), ("split", "673dcb4859fa")],
    )
    def test_kind_base_digest(self, kind, digest, tmp_path, capsys):
        # every base is alpha = 10, g1 = 2, T = 1/4; gain keeps g2 = 2, the
        # others read out at g2 = 4
        out = tmp_path / "kind.csv"
        assert main(["sweep", "--kind", kind, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "kind.csv.manifest.json").read_text())
        assert manifest["config_digest"] == digest

    def test_zero_photon_base_exits_3(self, tmp_path, capsys):
        # N_ps = 0: no row has a slope, and the SQL is truly infinite, so
        # the sweep is undefined like report on the same file, not a figure
        # out of range; nothing is written
        path = tmp_path / "dark.ini"
        path.write_text("[coherent]\nmagnitude = 0\n")
        out = tmp_path / "split.csv"
        assert main(["report", "--config", str(path)]) == 3
        assert main(["sweep", "--kind", "split", "--config", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.endswith("error: undefined sensitivity: zero slope in every row\n")
        assert captured.out == "" and list(tmp_path.iterdir()) == [path]

    def test_missing_kind_and_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])
        assert exc.value.code == 2
        assert "one of the arguments --kind --preset is required" in capsys.readouterr().err

    def test_kind_and_preset_together_exit_2(self, tmp_path, capsys):
        # a preset names its kind, so a second kind is refused by argparse
        # before any sweep runs, and nothing is written
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig2", "--kind", "split", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --kind: not allowed with argument --preset" in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[splitter]\ntransmissivity = 2.0\n")
        assert main(["sweep", "--preset", "fig2", "--config", str(path)]) == 2


class TestVerify:
    def test_analytic_suite_passes(self, capsys):
        assert main(["verify", "--suite", "analytic", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_records_written(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert main(
            ["verify", "--suite", "analytic", "--seed", "3", "--out", str(out)]
        ) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all("check" in r and "rel_err" in r for r in records)
        assert (tmp_path / "records.jsonl.manifest.json").exists()

    def test_mutation_fails_with_named_check(self, capsys):
        code = main(
            ["verify", "--suite", "analytic", "--mutate", "commutator_abc"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "commutator_abc" in err

    def test_unknown_mutation_exits_2(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code = main(
            ["verify", "--suite", "analytic", "--mutate", "no_such_check",
             "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no_such_check" in err
        assert not out.exists()

    def test_oversized_density_exits_2(self, tmp_path, capsys, monkeypatch):
        # a cap below the loss check's 0.77 MiB two-mode density at the
        # default cutoff 15: the suite's largest pass is refused before any
        # check allocates, reported as bad input
        monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", 1e-4)
        out = tmp_path / "records.jsonl"
        code = main(["verify", "--suite", "oracle", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cutoff 15" in err
        assert not out.exists()

    def test_oversized_pure_state_exits_2(self, capsys, monkeypatch):
        # a cap below the 54 KB pure state at the default cutoff 15: the
        # suite is sized, and refused as bad input, before its first check
        monkeypatch.setattr(oracle, "_DENSITY_GIB_CAP", 4e-5)
        assert main(["verify", "--suite", "oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the oracle suite's largest pass at cutoff 15 needs")
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["oracle", "all"])
    def test_cutoff_above_64_exits_2_before_any_check(self, suite, capsys, monkeypatch):
        # the largest pass is the loss checks' two-mode density, held four
        # times over like a lossy simulate pass: exactly the 1 GiB cap at
        # cutoff 64, beside the canonical slope's lossless pass at 128;
        # 1.06 GiB at 65, refused before either suite runs
        assert oracle._pass_bytes(64, True) == 2**30 > oracle._pass_bytes(128, False)

        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "run_analytic_suite", no_suite)
        monkeypatch.setattr(verify, "run_oracle_suite", no_suite)
        assert main(["verify", "--suite", suite, "--cutoff", "65"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: the oracle suite's largest pass at cutoff 65 needs 1.06 GiB, above the 1 GiB cap"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["oracle", "all"])
    def test_cutoff_below_2_exits_2_before_any_check(self, suite, capsys, monkeypatch):
        # the oracle entry's cutoff rule, applied before the analytic suite
        # of "all" spends its time
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "run_analytic_suite", no_suite)
        monkeypatch.setattr(verify, "run_oracle_suite", no_suite)
        assert main(["verify", "--suite", suite, "--cutoff", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cutoff must be an integer >= 2 (got 1)\n"
        assert captured.out == ""

    def test_unknown_suite_exits_2(self, capsys):
        # argparse would normally catch this; bypass to the handler level
        from kerrmzi import verify as v

        with pytest.raises(ValueError):
            v.run_suite("nope")


class TestRunErrors:
    """Failures after the input parsed exit 2, never 1 ("checks failed")."""

    COMMANDS = {
        "report": lambda config: ["report", "--config", str(config)],
        "sweep": lambda config: ["sweep", "--preset", "fig2"],
        "verify": lambda config: ["verify", "--suite", "analytic", "--seed", "3"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_out_directory_exits_2(self, command, config_file, tmp_path, capsys):
        out = tmp_path / "missing" / "out.txt"
        assert main(self.COMMANDS[command](config_file) + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the message names the path given, not the temp file beside it
        assert err.startswith("error:") and err.rstrip().endswith(f"'{out}'")
        assert list(tmp_path.iterdir()) == [config_file]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, capsys):
        # the temp file is written, then os.replace onto a directory fails
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["sweep", "--preset", "fig2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.rstrip().endswith(f"'{out}'")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("command", ["report", "sweep"])
    def test_manifest_name_too_long_leaves_no_file(
        self, command, old, config_file, tmp_path, capsys
    ):
        # a 240-character name: the data file's temp name fits in 255
        # bytes, the manifest's does not, so the write is refused before
        # either file replaces its path
        out = tmp_path / ("x" * 236 + ".csv")
        if old is not None:
            out.write_bytes(old)
        argv = {"report": ["report", "--config", str(config_file)],
                "sweep": ["sweep", "--preset", "fig4a"]}[command]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith(f"'{out}.manifest.json'")
        assert sorted(tmp_path.iterdir()) == sorted([config_file] + ([out] if old is not None else []))
        if old is not None:
            assert out.read_bytes() == old

    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new", "existing"])
    def test_manifest_path_a_directory_leaves_no_file(self, old, tmp_path, capsys):
        # the data file's replace would succeed and the manifest's fail, so
        # the directory is refused before either file replaces its path
        out = tmp_path / "out.csv"
        manifest = tmp_path / "out.csv.manifest.json"
        manifest.mkdir()
        if old is not None:
            out.write_bytes(old)
        assert main(["sweep", "--preset", "fig2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.rstrip().endswith(f"'{manifest}'")
        assert sorted(tmp_path.iterdir()) == sorted([manifest] + ([out] if old is not None else []))
        assert list(manifest.iterdir()) == []
        if old is not None:
            assert out.read_bytes() == old

    @pytest.mark.parametrize("command", ["report", "chi3"])
    def test_undecodable_config_exits_2(self, command, tmp_path, capsys):
        # a UTF-16 file with its byte-order mark ff fe
        path = tmp_path / "utf16.ini"
        text = GOOD_CONFIG if command == "report" else MEDIUM_CONFIG
        path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
        extra = ["--delta-phi-n", "1e-6"] if command == "chi3" else []
        assert main([command, "--config", str(path)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: not UTF-8 text") and captured.out == ""

    @pytest.mark.parametrize(
        "command, text, figure",
        [
            ("report", GOOD_CONFIG.replace("magnitude = 10.0", "magnitude = 1e200"), "slope"),
            ("chi3", MEDIUM_CONFIG.replace("n0 = 1.45", "n0 = 1e200"), "delta_chi3"),
            ("chi3", "[medium]\nn0 = 1.45\nintensity = 1e-200\nwavenumber = 1e-200\n"
                     "length = 1e-200\n", "delta_chi3"),
            ("chi3", "[medium]\nn0 = 1.45\nintensity = 1e300\nwavenumber = 1e300\n"
                     "length = 0.01\n", "phi_n_per_chi3"),
        ],
        ids=["huge-pump", "huge-n0", "tiny-medium", "huge-medium"],
    )
    def test_non_finite_figure_exits_2(self, command, text, figure, tmp_path, capsys):
        # an overflow, a division by zero or an infinite figure is bad
        # input: no number printed, no file written
        path = tmp_path / "config.ini"
        path.write_text(text)
        out = tmp_path / "out.json"
        extra = ["--delta-phi-n", "1e-6"] if command == "chi3" else []
        assert main([command, "--config", str(path), "--out", str(out)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {figure} is out of floating-point range for this input\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [path]

    def test_truncated_state_exits_2(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code = main(["verify", "--suite", "oracle", "--cutoff", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "prepare" in err
        assert not out.exists()


class TestChi3:
    def test_zero_phase_zero_chi3(self, tmp_path, capsys):
        path = tmp_path / "medium.ini"
        path.write_text(MEDIUM_CONFIG)
        assert main(
            ["chi3", "--config", str(path), "--delta-phi-n", "0.0"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["delta_chi3"] == 0.0

    def test_doubling_length_halves_uncertainty(self, tmp_path, capsys):
        p1 = tmp_path / "m1.ini"
        p1.write_text(MEDIUM_CONFIG)
        main(["chi3", "--config", str(p1), "--delta-phi-n", "1e-6"])
        r1 = json.loads(capsys.readouterr().out)
        p2 = tmp_path / "m2.ini"
        p2.write_text(MEDIUM_CONFIG.replace("length = 0.01", "length = 0.02"))
        main(["chi3", "--config", str(p2), "--delta-phi-n", "1e-6"])
        r2 = json.loads(capsys.readouterr().out)
        assert r2["delta_chi3"] == pytest.approx(r1["delta_chi3"] / 2, rel=1e-12)

    def test_round_trip_with_forward_map(self, tmp_path, capsys):
        path = tmp_path / "medium.ini"
        path.write_text(MEDIUM_CONFIG)
        main(["chi3", "--config", str(path), "--delta-phi-n", "1e-6"])
        record = json.loads(capsys.readouterr().out)
        # forward slope times the reported uncertainty recovers the phase
        assert record["phi_n_per_chi3"] * record["delta_chi3"] == pytest.approx(
            1e-6, rel=1e-12
        )

    def test_invalid_medium_exits_2(self, tmp_path, capsys):
        path = tmp_path / "medium.ini"
        path.write_text(MEDIUM_CONFIG.replace("n0 = 1.45", "n0 = -1.0"))
        assert main(["chi3", "--config", str(path), "--delta-phi-n", "1e-6"]) == 2

    def test_negative_delta_exits_2(self, tmp_path, capsys):
        path = tmp_path / "medium.ini"
        path.write_text(MEDIUM_CONFIG)
        assert main(["chi3", "--config", str(path), "--delta-phi-n", "-1.0"]) == 2


class TestParserReuse:
    def _run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_one_parser_over_several_calls(self, config_file, tmp_path, capsys):
        report = ["report", "--config", str(config_file)]
        csv = tmp_path / "split.csv"
        split = ["sweep", "--kind", "split", "--out", str(csv)]
        cli.make_parser.cache_clear()
        first = self._run(report, capsys)
        # argparse refuses both --kind and --preset with exit 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "split", "--preset", "fig2"])
        assert exc.value.code == 2
        second = self._run(split, capsys), csv.read_bytes()
        assert cli.make_parser.cache_info().misses == 1
        # the same outputs from a fresh parser
        cli.make_parser.cache_clear()
        assert self._run(report, capsys) == first
        cli.make_parser.cache_clear()
        csv.unlink()
        assert (self._run(split, capsys), csv.read_bytes()) == second


class TestModuleEntryPoint:
    """``python -m kerrmzi`` runs the CLI from a source checkout."""

    @staticmethod
    def run(*argv):
        src = str(Path(kerrmzi.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-m", "kerrmzi", *argv], env=env, capture_output=True, text=True
        )

    def test_sweep_preset(self, tmp_path):
        out = tmp_path / "fig2.csv"
        proc = self.run("sweep", "--preset", "fig2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 1 + 3 * 36

    def test_bad_repeats_exits_2(self, config_file):
        proc = self.run("report", "--config", str(config_file), "--repeats", "0")
        assert proc.returncode == 2
        assert "--repeats must be >= 1" in proc.stderr
