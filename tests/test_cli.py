import numpy as np
import pytest

import sowp.analysis as analysis
from sowp.cli import RunConfig, cycle_list, main, parse_config
from sowp.errors import ConfigError, NumericalError

FAST_GRID = ["--n-energy", "48", "--n-theta", "16", "--n-phi", "4"]


def run_cli(*args):
    return main(list(args))


class TestParseConfig:
    def test_defaults_are_reference_pulse(self):
        cfg = parse_config(["single", "--species", "cl"])
        assert cfg.wavelength_nm == 1800.0
        assert cfg.intensity_wcm2 == 1.3e13
        assert cycle_list(cfg.cycles) == [8]
        assert cfg.n_energy == 200 and cfg.n_theta == 64 and cfg.n_phi == 32
        assert cfg.phi_mode == "analytic"
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
        conf.write_text("intensity_wcm2 = strong\n")
        with pytest.raises(ConfigError, match="intensity_wcm2"):
            parse_config(["single", "--species", "f", "--config", str(conf)])

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

    def test_out_of_domain_is_numerical_exit(self, tmp_path, capsys):
        rc = run_cli("predict", "--coherence", "0.95", "--out-dir", str(tmp_path))
        assert rc == 1 or rc == 2  # domain error surfaces as an error exit
        assert rc != 0


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
    ])
    def test_bad_trace_arguments_rejected(self, tmp_path, capsys, flag, value):
        # rejected before any matrix is computed
        out = tmp_path / "ev"
        rc = run_cli("evolve", "--species", "f", *FAST_GRID, "--out-dir",
                     str(out), flag, value)
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err
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

    def test_sweep_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(sp, lam, intensity, n, grid_kw):
            raise NumericalError("forced failure")

        monkeypatch.setattr(analysis, "_sweep_one", boom)
        out = tmp_path / "fail"
        rc = run_cli("sweep", "--species", "f", "--cycles", "2..3",
                     *FAST_GRID, "--out-dir", str(out))
        assert rc == 2
        assert "forced failure" in capsys.readouterr().err
        assert (out / "summary.txt").read_text().count("FAILED") == 2


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
