import argparse
import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sowp
import sowp.analysis as analysis
from sowp.analysis import SweepPoint
from sowp.cli import (RunConfig, _build_parser, cycle_list, main, parse_config,
                      run)
from sowp.densmat import MomentumGrid
from sowp.errors import ConfigError, NumericalError
from sowp.species import default_species_path

FAST_GRID = ["--n-energy", "48", "--n-theta", "16", "--n-phi", "4"]
SUMMARIES = Path(__file__).parent / "data" / "summaries"
FROZEN_CSV = Path(__file__).parent / "data" / "csv"


def run_cli(*args):
    return main(list(args))


def fresh_python(*args, env=None):
    """``python args`` in a fresh interpreter that imports this sowp, with
    the variables ``env`` added to this process's environment."""
    src = os.path.dirname(os.path.dirname(sowp.__file__))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": src, **(env or {})},
                          capture_output=True, text=True)


class TestParseConfig:
    def test_defaults_are_reference_pulse(self):
        cfg = parse_config(["single", "--species", "cl"])
        assert cfg.threads == len(os.sched_getaffinity(0))
        assert cfg.wavelength_nm == 1800.0
        assert cfg.intensity_wcm2 == 1.3e13
        assert cfg.cycles is None       # N = 8 outside sweep and fit
        # the grid of MomentumGrid.build's defaults, which are 200 x 64 x 32
        grid = ("n_energy", "n_theta", "n_phi", "phi_mode")
        build = inspect.signature(MomentumGrid.build).parameters
        assert [getattr(cfg, key) for key in grid] == [build[key].default for key in grid]
        assert [build[key].default for key in grid] == [200, 64, 32, "analytic"]
        assert cfg.out_dir == "out"

    def test_flag_overrides_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("cycles = 4\nwavelength_nm = 1300 # comment\n")
        cfg = parse_config(["single", "--species", "f", "--config", str(conf),
                            "--cycles", "8"])
        assert cycle_list(cfg.cycles) == [8]       # flag wins
        assert cfg.wavelength_nm == 1300.0         # file beats default

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("wavelenght_nm = 1300\n")
        with pytest.raises(ConfigError, match="wavelenght_nm"):
            parse_config(["single", "--species", "f", "--config", str(conf)])

    def test_malformed_number_in_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        for key, value in (("intensity_wcm2", "strong"), ("n_theta", "6.5")):
            conf.write_text(f"{key} = {value}\n")
            with pytest.raises(ConfigError, match=key):
                parse_config(["single", "--species", "f", "--config", str(conf)])

    # one valid file value per config key; all with the keys' own types
    FILE_VALUES = {
        "species": "cl", "species_file": "species.dat", "wavelength_nm": "1300",
        "intensity_wcm2": "2e13", "cycles": "4", "n_energy": "50",
        "n_theta": "17", "n_phi": "6", "phi_mode": "numeric", "beta_rad": "0.5",
        "out_dir": "elsewhere", "threads": "3", "g0": "0.7", "zeta": "0.9",
        "ratio": "0.25", "coherence": "0.3", "t_max_fs": "120",
        "n_samples": "11", "sweep_csv": "sweep.csv",
    }

    def test_file_values_cover_the_schema(self):
        schema = {f.name for f in fields(RunConfig)} - {"command"}
        assert set(self.FILE_VALUES) == schema

    @pytest.mark.parametrize("key", sorted(FILE_VALUES))
    def test_file_value_arrives_typed(self, tmp_path, key):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {self.FILE_VALUES[key]}\n")
        # predict accepts every key from a file; it needs ratio or coherence
        command = ["predict"] + ([] if key in ("ratio", "coherence")
                                 else ["--ratio", "1"])
        cfg = parse_config(command + ["--config", str(conf)])
        annotated = {f.name: f.type for f in fields(RunConfig)}[key]
        value = getattr(cfg, key)
        assert type(value) is annotated
        assert value == annotated(self.FILE_VALUES[key])

    def test_descending_cycle_range_rejected(self):
        with pytest.raises(ConfigError, match="18..2"):
            parse_config(["sweep", "--cycles", "18..2"])

    def test_malformed_cycles(self):
        with pytest.raises(ConfigError):
            parse_config(["single", "--species", "f", "--cycles", "eight"])

    def test_range_rejected_for_single(self):
        with pytest.raises(ConfigError, match="single cycle count"):
            parse_config(["single", "--species", "f", "--cycles", "2..4"])

    def test_species_required(self):
        with pytest.raises(ConfigError, match="species"):
            parse_config(["single"])

    def test_predict_needs_exactly_one_input(self):
        with pytest.raises(ConfigError):
            parse_config(["predict"])
        with pytest.raises(ConfigError):
            parse_config(["predict", "--ratio", "1", "--coherence", "0.5"])

    def test_cycle_list_forms(self):
        assert cycle_list("8") == [8]
        assert cycle_list("2..5") == [2, 3, 4, 5]
        assert cycle_list("3..3") == [3]


class TestPredictCommand:
    @pytest.mark.parametrize("ratio, expected", [
        ("0.25", "0.83"), ("0.61", "0.58"), ("1.23", "0.16"), ("3.33", "0.00")])
    def test_forward(self, tmp_path, capsys, ratio, expected):
        rc = run_cli("predict", "--ratio", ratio, "--out-dir", str(tmp_path))
        out = capsys.readouterr().out
        assert rc == 0
        value = float(out.split("=")[-1])
        assert f"{value:.2f}" == expected
        assert (tmp_path / "summary.txt").exists()

    def test_inverse(self, tmp_path, capsys):
        rc = run_cli("predict", "--coherence", "0.21", "--out-dir", str(tmp_path))
        assert rc == 0
        value = float(capsys.readouterr().out.split("=")[-1])
        assert f"{value:.3g}" == "1.12"

    def test_inverse_of_a_tiny_coherence(self, tmp_path, capsys):
        rc = run_cli("predict", "--coherence", "1e-320", "--out-dir", str(tmp_path))
        assert rc == 0
        assert capsys.readouterr().out == "ratio(g = 9.99989e-321) = 25.3104\n"
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        assert lines[-1] == "ratio = 25.31043275"

    @pytest.mark.parametrize("args", [
        ["--coherence", "0.5", "--zeta", "-1"],
        ["--coherence", "0.5", "--zeta", "0"],
        ["--ratio", "0.5", "--zeta", "-1"],
        ["--ratio", "0.5", "--g0", "-2"],
    ], ids=["negative-zeta-inverse", "zero-zeta", "negative-zeta-forward",
            "negative-g0"])
    def test_unphysical_law_rejected(self, tmp_path, capsys, args):
        # the domain gaussian_fit accepts: 0 < g0 <= 1, zeta > 0
        rc = run_cli("predict", *args, "--out-dir", str(tmp_path))
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "summary.txt").exists()

    def test_out_of_domain_is_config_error(self, tmp_path, capsys):
        rc = run_cli("predict", "--coherence", "0.95", "--out-dir", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err == \
            "configuration error: g must lie in (0, g0 = 0.89), got 0.95\n"


class TestSingleCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        rc = run_cli("single", "--species", "f", *FAST_GRID,
                     "--out-dir", str(out))
        assert rc == 0
        summary = (out / "summary.txt").read_text()
        assert "g = " in summary and "w = " in summary
        assert "S_bar = " in summary and "Delta_S = " in summary
        assert "tau_b_fs = " in summary and "gamma_j32 = " in summary
        lines = (out / "densmat.csv").read_text().splitlines()
        assert lines[2] == "jp,mp,j,m,re,im"
        assert len(lines) == 39

    def test_missing_species_file(self, tmp_path, capsys):
        rc = run_cli("single", "--species", "f", "--species-file",
                     str(tmp_path / "absent.dat"), "--out-dir", str(tmp_path))
        assert rc == 1
        assert "absent.dat" in capsys.readouterr().err

    def test_unknown_species(self, tmp_path, capsys):
        rc = run_cli("single", "--species", "qq", "--out-dir", str(tmp_path))
        assert rc == 1

    def test_non_finite_species_number(self, tmp_path, capsys):
        shipped = Path(default_species_path()).read_text()
        assert "b_au = 0.84\n" in shipped
        path = tmp_path / "species.dat"
        path.write_text(shipped.replace("b_au = 0.84\n", "b_au = inf\n"))
        out = tmp_path / "out"
        rc = run_cli("single", "--species", "f", "--species-file", str(path),
                     *FAST_GRID, "--out-dir", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "F: b_au" in err
        assert not (out / "summary.txt").exists()


class TestEvolveCommand:
    def test_trace_written(self, tmp_path):
        out = tmp_path / "ev"
        rc = run_cli("evolve", "--species", "f", *FAST_GRID, "--out-dir",
                     str(out), "--t-max-fs", "100", "--n-samples", "51",
                     "--beta-rad", "0.3")
        assert rc == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t_fs,S"
        assert len(lines) == 52
        assert float(lines[-1].split(",")[0]) == pytest.approx(100.0)
        assert (out / "densmat.csv").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--n-samples", "-5"), ("--n-samples", "0"),
        ("--t-max-fs", "-3"), ("--t-max-fs", "0"),
        # after FAST_GRID, so these win over its grid flags
        ("--n-energy", "1"), ("--n-theta", "1"), ("--n-phi", "1"),
        ("--cycles", "0"),
    ])
    def test_bad_trace_arguments_rejected(self, tmp_path, capsys, flag, value):
        # rejected before any matrix is computed
        out = tmp_path / "ev"
        rc = run_cli("evolve", "--species", "f", *FAST_GRID, "--out-dir",
                     str(out), flag, value)
        assert rc == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert flag[2:].replace("-", "_") in err     # the problem names the flag
        assert not (out / "densmat.csv").exists()


class TestBuildupCommand:
    def test_buildup_written(self, tmp_path):
        out = tmp_path / "bu"
        rc = run_cli("buildup", "--species", "f", "--cycles", "2", *FAST_GRID,
                     "--out-dir", str(out))
        assert rc == 0
        lines = (out / "buildup.csv").read_text().splitlines()
        assert lines[0] == "t_fs,element,re,im,abs,field"
        assert len(lines) == 1 + 4 * 6  # 2N+2 = 6 thresholds, 4 tagged series


class TestSweepAndFit:
    def test_sweep_then_fit_csv(self, tmp_path):
        out = tmp_path / "sw"
        rc = run_cli("sweep", "--species", "f", "--cycles", "2..4",
                     *FAST_GRID, "--out-dir", str(out))
        assert rc == 0
        sweep_lines = (out / "sweep.csv").read_text().splitlines()
        assert sweep_lines[0] == "species,n_cycles,tau_fwhm_fs,ratio,g,w"
        assert len(sweep_lines) == 4

    def test_fit_from_csv(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        rows = ["species,n_cycles,tau_fwhm_fs,ratio,g,w"]
        for k, r in enumerate((0.1, 0.4, 0.8, 1.3, 2.0)):
            g = 0.89 * np.exp(-1.15 * r * r)
            rows.append(f"X,{k+2},{r * 80:.6g},{r:.17g},{g:.17g},0.1")
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit"
        rc = run_cli("fit", "--sweep-csv", str(csv), "--out-dir", str(out))
        assert rc == 0
        fit_line = (out / "fit.csv").read_text().splitlines()[1].split(",")
        assert float(fit_line[0]) == pytest.approx(0.89, abs=1e-8)
        assert float(fit_line[1]) == pytest.approx(1.15, abs=1e-8)

    def test_fit_from_csv_echoes_no_unused_pulse(self, tmp_path):
        # pulse and grid flags (as from a config file shared with sweep) are
        # accepted, but the fit reads only the CSV, so the header omits them
        csv = tmp_path / "sweep.csv"
        csv.write_text(self.SWEEP_HEADER + "F,2,4.3,0.1,0.8,0.06\n"
                       "F,3,6.5,0.2,0.7,0.06\nF,4,8.7,0.3,0.6,0.06\n")
        out = tmp_path / "fit"
        rc = run_cli("fit", "--sweep-csv", str(csv), "--cycles", "3",
                     "--wavelength-nm", "900", "--n-theta", "8",
                     "--out-dir", str(out))
        assert rc == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[0].endswith("command=fit")
        assert lines[1] == f"sweep_csv = {csv} (3 points)"
        for key in ("wavelength_nm", "intensity_wcm2", "cycles", "grid"):
            assert not any(line.startswith(key) for line in lines), key

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for threads, sub in (("1", "a"), ("3", "b")):
            out = tmp_path / sub
            rc = run_cli("sweep", "--species", "f", "--cycles", "2..3",
                         *FAST_GRID, "--threads", threads,
                         "--out-dir", str(out))
            assert rc == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["single", "evolve", "buildup"])
    def test_thread_count_does_not_change_one_pulse_bytes(self, tmp_path, command):
        # one process, the channels split over two, and three asked for
        outs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            assert run_cli(command, "--species", "f", *FAST_GRID, "--threads",
                           threads, "--out-dir", str(out)) == 0
            outs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert sorted(outs[0]) == sorted(["summary.txt", "densmat.csv"]
                                         + {"evolve": ["trace.csv"],
                                            "buildup": ["buildup.csv"]}.get(command, []))
        assert outs[0] == outs[1] == outs[2]

    def test_sweep_pool_imports_neither_executor_nor_logging(self, tmp_path):
        # a fresh process: the two-process pool is built on os.fork and
        # pipes alone
        argv = ["sweep", "--species", "f", "--cycles", "2..3", *FAST_GRID,
                "--threads", "2", "--out-dir", str(tmp_path)]
        code = ("import sys\n"
                "from sowp.cli import main\n"
                f"rc = main({argv!r})\n"
                "print(rc, sorted({'concurrent.futures', 'logging', 'multiprocessing'}\n"
                "                & set(sys.modules)))\n")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 []\n"

    def test_companion_species_do_not_change_bytes(self, tmp_path):
        # on 32 solved lines N = 3 fills a row block's root budget, so this
        # grid shows whether a point depends on the species sharing its pulse
        rows = []
        for species in ("f", "f,cl,br"):
            out = tmp_path / species.replace(",", "_")
            rc = run_cli("sweep", "--species", species, "--cycles", "3",
                         "--n-energy", "30", "--n-theta", "64", "--n-phi", "4",
                         "--out-dir", str(out))
            assert rc == 0
            rows.append([line for line in (out / "sweep.csv").read_bytes().splitlines()
                         if line.startswith(b"F,")])
        assert len(rows[0]) == 1
        assert rows[0] == rows[1]

    def test_sweep_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(group, lam, intensity, n, grid):   # every point fails
            return [NumericalError("forced failure") for _ in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", boom)
        out = tmp_path / "fail"
        rc = run_cli("sweep", "--species", "f", "--cycles", "2..3",
                     *FAST_GRID, "--out-dir", str(out))
        assert rc == 2
        assert "forced failure" in capsys.readouterr().err
        assert (out / "summary.txt").read_text().count("FAILED") == 2

    def test_failures_listed_in_job_order(self, tmp_path, monkeypatch):
        def boom(group, lam, intensity, n, grid):   # every point fails
            return [NumericalError("forced failure") for _ in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", boom)
        out = tmp_path / "fail"
        rc = run_cli("sweep", "--species", "f,cl", "--cycles", "2..3",
                     *FAST_GRID, "--threads", "2", "--out-dir", str(out))
        assert rc == 2
        failed = [line for line in (out / "summary.txt").read_text().splitlines()
                  if line.startswith("FAILED")]
        assert failed == [f"FAILED {name} N={n}: forced failure"
                          for name in ("F", "Cl") for n in (2, 3)]

    def test_fit_of_too_few_surviving_points_is_numerical_exit(
            self, tmp_path, monkeypatch, capsys):
        # three cycles asked for, one lost: the sweep failed, not the input
        def fail_at_3(group, lam, intensity, n, grid):
            if n == 3:
                return [NumericalError("forced failure") for _ in group]
            return _law_points(group, lam, intensity, n, grid)

        monkeypatch.setattr(analysis, "_sweep_pulse", fail_at_3)
        out = tmp_path / "fit"
        assert run_cli("fit", "--species", "f", "--cycles", "2..4",
                       *FAST_GRID, "--out-dir", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "sweep point F N=3 failed: forced failure"
        assert err[-1] == ("numerical failure: 1 of 3 sweep points failed, "
                           "too few left to fit")

    @pytest.mark.parametrize("args, cycles", [
        (["sweep"], "default (F 2..18, Cl 2..18, Br 2..8)"),
        (["fit", "--species", "f"], "default (F 2..18)"),
    ], ids=["sweep", "fit"])
    def test_default_ranges_in_summary(self, tmp_path, monkeypatch, args, cycles):
        monkeypatch.setattr(analysis, "_sweep_pulse", _law_points)
        out = tmp_path / "default"
        assert run_cli(*args, *FAST_GRID, "--out-dir", str(out)) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert f"cycles = {cycles}" in lines

    SWEEP_HEADER = "species,n_cycles,tau_fwhm_fs,ratio,g,w\n"

    @pytest.mark.parametrize("cycles, ns, text", [
        ("2..3", [2, 3], "2..3"), (None, list(range(2, 9)), "default (Br 2..8)"),
    ], ids=["given", "default"])
    def test_programmatic_sweep_obeys_cycles(self, tmp_path, monkeypatch,
                                             cycles, ns, text):
        # a RunConfig built in code, not by parse_config
        monkeypatch.setattr(analysis, "_sweep_pulse", _law_points)
        cfg = RunConfig(command="sweep", species="br", cycles=cycles,
                        out_dir=str(tmp_path)).validate()
        assert run(cfg) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[1]) for row in rows] == ns
        assert f"cycles = {text}" in (tmp_path / "summary.txt").read_text()

    @pytest.mark.parametrize("csv, args", [
        ("a,b,c\n1,2,3\n", []),
        (SWEEP_HEADER + "F,2,4.3,0.1,high,0.06\n", []),
        (None, ["--species", "f", "--cycles", "2..3", *FAST_GRID]),
        (SWEEP_HEADER + "F,2,4.3,0.1,0.8,0.06\nF,3,6.5,0.1,0.7,0.06\n"
         "F,4,8.7,0.1,0.6,0.06\n", []),
        (SWEEP_HEADER + "F,2,4.3,0.1,0.8,0.06\nF,3,6.5,nan,0.7,0.06\n"
         "F,4,8.7,0.3,0.6,0.06\n", []),
        (SWEEP_HEADER + "F,2,4.3,0.1,0.8,0.06\nF,3,6.5,0.2,0.7,0.06\n"
         "F,4,8.7,0.3,inf,0.06\n", []),
        (SWEEP_HEADER + "F,2,4.3,0.1,0.8,0.06\nF,3,6.5,0.2,0.7\n"
         "F,4,8.7,0.3,0.6,0.06\n", []),
    ], ids=["wrong-header", "not-a-number", "two-points", "repeated-ratios",
            "nan-ratio", "inf-g", "short-row"])
    def test_bad_fit_input_is_config_error(self, tmp_path, capfd, csv, args):
        if csv is not None:
            (tmp_path / "sweep.csv").write_text(csv)
            args = ["--sweep-csv", str(tmp_path / "sweep.csv")]
        out = tmp_path / "fit"
        assert run_cli("fit", *args, "--out-dir", str(out)) == 1
        # capfd: LAPACK complains (DLASCL) on the C-level stdout
        out_text, err = capfd.readouterr()
        assert err.startswith("configuration error")
        assert "DLASCL" not in out_text + err
        assert not (out / "summary.txt").exists()


def _law_points(group, lam, intensity, n, grid):
    """Stand-in for analysis._sweep_pulse: per species a point on the
    Gaussian law."""
    ratio = 0.1 * n
    return [SweepPoint(sp.name, n, 1.0, ratio,
                       0.89 * np.exp(-1.15 * ratio * ratio), 0.01) for sp in group]


XQ_RECORD = "name = Xq\nea_ev = 3.0\nsplitting_cm1 = 500\nb_au = 1.0\nl = 1\n"


@pytest.mark.parametrize("args", [
    ["sweep", "--species-file", "{xq}", "--species", "xq"],
    ["sweep", "--species-file", "{xq}"],
    ["sweep", "--species", ","],
    ["sweep", "--species", "f,F"],
    ["single", "--species", "f,cl"],
    ["evolve", "--species", "f,cl"],
    ["buildup", "--species", "f,cl"],
    ["single", "--species", "f", "--intensity-wcm2", "0"],
    ["buildup", "--species", "f", "--intensity-wcm2", "0"],
    ["sweep", "--species", "f", "--cycles", "2..3", "--intensity-wcm2", "0"],
], ids=["no-default-range", "none-in-file", "empty-list", "repeated",
        "single-two", "evolve-two", "buildup-two", "single-zero-intensity",
        "buildup-zero-intensity", "sweep-zero-intensity"])
def test_rejected_before_any_output(tmp_path, capsys, args):
    xq = tmp_path / "xq.dat"
    xq.write_text(XQ_RECORD)
    out = tmp_path / "out"
    args = [a.format(xq=xq) for a in args]
    assert run_cli(*args, *FAST_GRID, "--out-dir", str(out)) == 1
    assert capsys.readouterr().err.startswith("configuration error")
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("args, key, text", [
    (["single", "--wavelength-nm", "1e-320"], "wavelength_nm",
     "carrier frequency inf a.u. from wavelength_nm = 9.99989e-321"),
    (["single", "--wavelength-nm", "1e-300"], "wavelength_nm",
     "carrier frequency inf a.u. from wavelength_nm = 1e-300"),
    (["single", "--intensity-wcm2", "1e-320"], "intensity_wcm2",
     "peak field 0 a.u. from intensity_wcm2 = 9.99989e-321"),
    (["sweep", "--cycles", "2..3", "--intensity-wcm2", "1e-320"], "intensity_wcm2",
     "peak field 0 a.u. from intensity_wcm2 = 9.99989e-321"),
    (["single", "--wavelength-nm", "1e308", "--intensity-wcm2", "1e308"],
     "intensity_wcm2", "vector-potential amplitude inf a.u. from "
     "wavelength_nm = 1e+308 and intensity_wcm2 = 1e+308"),
], ids=["wavelength-underflows", "omega-overflows", "field-underflows",
        "sweep-field-underflows", "amplitude-overflows"])
def test_pulse_outside_double_range_is_config_error(tmp_path, capsys, args, key, text):
    # finite positive inputs whose pulse, in atomic units, is not finite
    # and positive: rejected by validate, before any pulse is solved
    out = tmp_path / "out"
    assert run_cli(*args, "--species", "f", *FAST_GRID, "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: {text} is not finite and positive\n"
    assert key in err
    assert not out.exists()


def test_newton_overflow_is_one_numerical_failure_line(tmp_path):
    # at 1e300 nm S' overflows in Newton: the residual contract reports it
    # on the one line of a numerical failure, with no numpy warning before
    # it, in a fresh process with Python's default warning filters
    done = fresh_python("-m", "sowp.cli", "single", "--species", "f",
                        "--wavelength-nm", "1e300", "--n-energy", "8", "--n-theta", "4",
                        "--n-phi", "2", "--out-dir", str(tmp_path / "out"))
    assert done.returncode == 2
    line, = done.stderr.splitlines(keepends=True)
    assert line.startswith("numerical failure: saddle residual nan exceeds 1e-10; "
                           "grid or intensity outside the validated regime at p_z = ")
    assert line.endswith(", e_bound = -0.1249918 (32 of 32 points)\n")
    assert not (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("args, conf", [
    (["single", "--species", "f", "--wavelength-nm", "nan"], None),
    (["single", "--species", "f", "--wavelength-nm", "inf"], None),
    (["single", "--species", "f", "--intensity-wcm2", "inf"], None),
    (["sweep", "--species", "f", "--cycles", "2..3", "--wavelength-nm=-inf"],
     None),
    (["evolve", "--species", "f", "--t-max-fs", "inf"], None),
    (["evolve", "--species", "f", "--beta-rad", "nan"], None),
    (["predict", "--ratio", "nan"], None),
    (["predict", "--coherence=-inf"], None),
    (["single", "--species", "f"], "intensity_wcm2 = nan\n"),
    (["predict", "--ratio", "0.5"], "zeta = inf\n"),
], ids=["single-wavelength-nan", "single-wavelength-inf", "single-intensity-inf",
        "sweep-wavelength-minus-inf", "evolve-t-max-inf", "evolve-beta-nan",
        "predict-ratio-nan", "predict-coherence-minus-inf",
        "config-file-intensity-nan", "config-file-zeta-inf"])
def test_non_finite_float_is_config_error(tmp_path, capsys, args, conf):
    if conf is not None:
        (tmp_path / "run.conf").write_text(conf)
        args = args + ["--config", str(tmp_path / "run.conf")]
    out = tmp_path / "out"
    grid = FAST_GRID if args[0] != "predict" else []
    assert run_cli(*args, *grid, "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "must be finite" in err
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("args, code, stream, text", [
    (["--version"], 0, "out", f"sowp {sowp.__version__}"),
    (["predict", "--ratio", "0.5", "--bogus"], 1, "err",
     "unrecognized arguments: --bogus"),
    (["predict", "--ratio", "0.5", "--out-dir", "{tmp}/file/out"], 3, "err",
     "I/O error"),
    (["fit", "--sweep-csv", "{tmp}/missing.csv", "--out-dir", "{tmp}/out"], 3,
     "err", "I/O error"),
], ids=["version", "unknown-flag", "out-dir-below-a-file", "missing-sweep-csv"])
def test_documented_exit_codes(tmp_path, capsys, args, code, stream, text):
    # argparse's own exits map to 0 and 1, an OSError anywhere to 3
    (tmp_path / "file").write_text("")
    assert run_cli(*(a.format(tmp=tmp_path) for a in args)) == code
    assert text in getattr(capsys.readouterr(), stream)
    assert not (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("source", ["flag", "config-file"])
def test_unknown_phi_mode_is_config_error(tmp_path, capsys, source):
    args = ["single", "--species", "f", *FAST_GRID]
    if source == "flag":
        args += ["--phi-mode", "bogus"]
    else:
        (tmp_path / "run.conf").write_text("phi_mode = bogus\n")
        args += ["--config", str(tmp_path / "run.conf")]
    out = tmp_path / "out"
    assert run_cli(*args, "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "phi_mode" in err
    assert not (out / "summary.txt").exists()


_PHYSICS_FLAGS = {
    "--config": "str", "--out-dir": "str", "--species": "str",
    "--species-file": "str", "--wavelength-nm": "float",
    "--intensity-wcm2": "float", "--cycles": "str", "--n-energy": "int",
    "--n-theta": "int", "--n-phi": "int", "--phi-mode": "str",
    "--threads": "int",
}
# option string -> value type of every subcommand; argparse's type=None
# converts as str does
FROZEN_FLAGS = {
    "single": _PHYSICS_FLAGS,
    "buildup": _PHYSICS_FLAGS,
    "sweep": _PHYSICS_FLAGS,
    "fit": {**_PHYSICS_FLAGS, "--sweep-csv": "str"},
    "evolve": {**_PHYSICS_FLAGS, "--beta-rad": "float", "--t-max-fs": "float",
               "--n-samples": "int"},
    "predict": {"--config": "str", "--out-dir": "str", "--ratio": "float",
                "--coherence": "float", "--g0": "float", "--zeta": "float"},
}


def _subcommands(parser=None):
    (sub,) = [a for a in (parser or _build_parser())._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub


def test_subcommand_flags_and_types_frozen():
    sub = _subcommands()
    found = {name: {opt: (action.type or str).__name__
                    for action in p._actions if action.nargs != 0
                    for opt in action.option_strings}
             for name, p in sub.choices.items()}
    assert found == FROZEN_FLAGS


@pytest.mark.parametrize("command", list(FROZEN_FLAGS))
def test_parser_of_one_command_helps_as_the_full_parser(command, monkeypatch):
    """parse_config builds the flags of the named command only: the others
    hold just -h, and the top-level help and the command's help read as
    with every command's flags."""
    monkeypatch.setenv("COLUMNS", "80")
    one, full = _build_parser(command), _build_parser()
    sub = _subcommands(one)
    assert [len(p._actions) for name, p in sub.choices.items()
            if name != command] == [1] * 5
    assert one.format_help() == full.format_help()
    assert (sub.choices[command].format_help()
            == _subcommands(full).choices[command].format_help())


def test_subcommand_help_texts_frozen():
    assert [(a.dest, a.help) for a in _subcommands()._choices_actions] == [
        ("single", "density matrix and coherence for one pulse"),
        ("evolve", "single + beat-signal trace"),
        ("buildup", "cumulative saddle-sum build-up trace"),
        ("sweep", "coherence versus pulse duration"),
        ("fit", "Gaussian-law fit of a sweep"),
        ("predict", "evaluate or invert the Gaussian law")]


class TestRunConfigValidation:
    def test_direct_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(command="single", species="f", wavelength_nm=-5).validate()
        with pytest.raises(ConfigError):
            RunConfig(command="nonsense").validate()
        with pytest.raises(ConfigError):
            RunConfig(command="single", species="f", phi_mode="x").validate()
        with pytest.raises(ConfigError):
            RunConfig(command="single", species="f", threads=0).validate()


# summary.txt and every CSV of each command on FAST_GRID, byte for byte
# (the CSVs in data/csv/<summary name>/): refactors of the pipeline must not
# move any printed digit
FROZEN_SUMMARY_RUNS = {
    "single": ("single", ["single", "--species", "f", *FAST_GRID]),
    "single_numeric_phi": ("single_numeric_phi",
                           ["single", "--species", "f", *FAST_GRID,
                            "--phi-mode", "numeric"]),
    "buildup": ("buildup", ["buildup", "--species", "f", "--cycles", "2",
                            *FAST_GRID]),
    "evolve": ("evolve", ["evolve", "--species", "f", *FAST_GRID,
                          "--t-max-fs", "100", "--n-samples", "51",
                          "--beta-rad", "0.3"]),
    "sweep_threads1": ("sweep", ["sweep", "--species", "f", "--cycles", "2..4",
                                 *FAST_GRID, "--threads", "1"]),
    "sweep_threads2": ("sweep", ["sweep", "--species", "f", "--cycles", "2..4",
                                 *FAST_GRID, "--threads", "2"]),
    "fit": ("fit", ["fit", "--species", "f", "--cycles", "2..4", *FAST_GRID]),
    "predict_ratio": ("predict_ratio", ["predict", "--ratio", "0.61"]),
    "predict_coherence": ("predict_coherence", ["predict", "--coherence", "0.21"]),
}


def assert_frozen(out, frozen):
    """summary.txt and the CSVs under ``out`` equal the frozen copies."""
    assert ((out / "summary.txt").read_bytes()
            == (SUMMARIES / f"{frozen}.txt").read_bytes())
    csvs = sorted(path.name for path in out.glob("*.csv"))
    assert csvs == sorted(path.name for path in (FROZEN_CSV / frozen).glob("*.csv"))
    for name in csvs:
        assert ((out / name).read_bytes()
                == (FROZEN_CSV / frozen / name).read_bytes()), name


@pytest.mark.parametrize("run", sorted(FROZEN_SUMMARY_RUNS))
def test_summary_matches_frozen_copy(tmp_path, capsys, run):
    frozen, args = FROZEN_SUMMARY_RUNS[run]
    out = tmp_path / run
    assert run_cli(*args, "--out-dir", str(out)) == 0
    assert_frozen(out, frozen)


def test_fit_of_the_frozen_sweep_csv(tmp_path):
    # the frozen sweep, read back by fit --sweep-csv, gives the frozen fit
    # of the run that swept it, byte for byte
    out = tmp_path / "fit"
    assert run_cli("fit", "--sweep-csv", str(FROZEN_CSV / "sweep" / "sweep.csv"),
                   "--out-dir", str(out)) == 0
    assert ((out / "fit.csv").read_bytes()
            == (FROZEN_CSV / "fit" / "fit.csv").read_bytes())
    fit = (out / "summary.txt").read_text().splitlines()[-3:]
    assert [line.split(" = ")[0] for line in fit] == ["g0", "zeta", "rms"]
    assert fit == (SUMMARIES / "fit.txt").read_text().splitlines()[-3:]


def _avx512():
    """Whether numpy reports AVX-512 on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:     # numpy 1.x: taken as without AVX-512
        return False
    return bool(__cpu_features__.get("AVX512F"))


# numpy without its AVX-512 kernels, and OpenBLAS on its AVX2 ones: an
# AVX2-only host, for fresh processes only
AVX2_HOST = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4",
             "OPENBLAS_CORETYPE": "Haswell"}

# the frozen runs whose bytes differ there: numpy's exp, log and arctan2
# and OpenBLAS's complex matmul round differently per vector unit
AVX2_DIFFERS = {"buildup", "evolve", "fit", "single", "single_numeric_phi",
                "sweep_threads1", "sweep_threads2"}


@pytest.mark.skipif(not _avx512(),
                    reason="without AVX-512 the native bytes already differ")
@pytest.mark.parametrize("run", [
    pytest.param(run, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 20: the output bits still depend "
                            "on the host's vector unit"))
    if run in AVX2_DIFFERS else run for run in sorted(FROZEN_SUMMARY_RUNS)])
def test_summary_matches_frozen_copy_on_an_avx2_host(tmp_path, run):
    # each frozen run in a fresh process that runs numpy and OpenBLAS as
    # on a host without AVX-512: the same frozen copies must come out
    frozen, args = FROZEN_SUMMARY_RUNS[run]
    proc = fresh_python("-m", "sowp.cli", *args, "--out-dir", str(tmp_path),
                        env=AVX2_HOST)
    assert proc.returncode == 0, proc.stderr
    assert_frozen(tmp_path, frozen)


def test_exited_process_leaves_the_frozen_files(tmp_path):
    # main freezes the collector at exit: the files of a process that has
    # exited are still whole
    proc = fresh_python("-m", "sowp.cli", "single", "--species", "f", *FAST_GRID,
                        "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert_frozen(tmp_path, "single")


def test_exit_hook_registered_by_main_once(tmp_path):
    # importing adds no exit handler; main registers gc.freeze, and it runs
    # once at exit however often main ran (atexit._ncallbacks alone cannot
    # show this: it keeps counting the slots that unregister empties)
    argv = ["predict", "--ratio", "0.5", "--out-dir", str(tmp_path)]
    code = ("import atexit, gc\n"
            "freeze = gc.freeze\n"
            "gc.freeze = lambda: print('freeze') or freeze()\n"
            "before = atexit._ncallbacks()\n"
            "from sowp.cli import main\n"
            "print('import adds', atexit._ncallbacks() - before)\n"
            f"assert main({argv!r}) == main({argv!r}) == 0\n")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import adds 0"
    assert lines[-1] == "freeze" and lines.count("freeze") == 1
