"""Command-line front end.

Commands
    single    density matrix + coherence for one pulse/species
    evolve    single + free-evolution beat-signal trace
    buildup   cumulative saddle-sum build-up of populations and coherence
    sweep     g versus pulse duration for one or more species
    fit       Gaussian-law fit of sweep results
    predict   evaluate or invert the Gaussian law

Flags override config-file values, which override built-in defaults (the
reference pulse: 1800 nm, 1.3e13 W/cm^2, 8 cycles).  Config files use the
same key = value dialect as the species file.  All artifacts are written
under --out-dir.  Exit codes: 0 success, 1 configuration error,
2 numerical failure, 3 I/O error.
"""

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from sowp import __version__, units
from sowp.analysis import (DEFAULT_SWEEP_CYCLES, FitResult, buildup,
                           coherence_sweep, gaussian_fit, invert_g, predict_g,
                           read_sweep_csv, write_fit_csv, write_sweep_csv)
from sowp.densmat import MomentumGrid, build_density_matrix, coherence_degree
from sowp.dynamics import signal_parameters, signal_trace
from sowp.errors import ConfigError, NumericalError, SowpError
from sowp.pulse import Pulse
from sowp.species import default_species_path, get_species, load_species

COMMANDS = ("single", "evolve", "sweep", "fit", "buildup", "predict")

DEFAULTS = dict(
    wavelength_nm=1800.0,
    intensity_wcm2=1.3e13,
    cycles="8",
    n_energy=200,
    n_theta=64,
    n_phi=32,
    phi_mode="analytic",
    beta_rad=0.0,
    out_dir="out",
    threads=1,
    g0=0.89,
    zeta=1.15,
    t_max_fs=None,
    n_samples=400,
)

_CONFIG_KEYS = {
    "species", "species_file", "wavelength_nm", "intensity_wcm2", "cycles",
    "n_energy", "n_theta", "n_phi", "phi_mode", "beta_rad", "out_dir",
    "threads", "g0", "zeta", "ratio", "coherence", "t_max_fs", "n_samples",
    "sweep_csv",
}


@dataclass
class RunConfig:
    command: str
    species: str = None
    species_file: str = None
    wavelength_nm: float = DEFAULTS["wavelength_nm"]
    intensity_wcm2: float = DEFAULTS["intensity_wcm2"]
    cycles: str = DEFAULTS["cycles"]
    n_energy: int = DEFAULTS["n_energy"]
    n_theta: int = DEFAULTS["n_theta"]
    n_phi: int = DEFAULTS["n_phi"]
    phi_mode: str = DEFAULTS["phi_mode"]
    beta_rad: float = DEFAULTS["beta_rad"]
    out_dir: str = DEFAULTS["out_dir"]
    threads: int = DEFAULTS["threads"]
    g0: float = DEFAULTS["g0"]
    zeta: float = DEFAULTS["zeta"]
    ratio: float = None
    coherence: float = None
    t_max_fs: float = DEFAULTS["t_max_fs"]
    n_samples: int = DEFAULTS["n_samples"]
    sweep_csv: str = None
    cycles_explicit: bool = False   # user supplied cycles (flag or file)

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        problems = []
        if self.wavelength_nm <= 0:
            problems.append(f"wavelength_nm must be positive, got {self.wavelength_nm}")
        if self.intensity_wcm2 < 0:
            problems.append(f"intensity_wcm2 must be non-negative, got {self.intensity_wcm2}")
        for key in ("n_energy", "n_theta", "n_phi"):
            if getattr(self, key) < 2:
                problems.append(f"{key} must be >= 2, got {getattr(self, key)}")
        if self.phi_mode not in ("analytic", "numeric"):
            problems.append(f"phi_mode must be analytic or numeric, got {self.phi_mode!r}")
        if self.threads < 1:
            problems.append(f"threads must be >= 1, got {self.threads}")
        if self.n_samples < 1:
            problems.append(f"n_samples must be >= 1, got {self.n_samples}")
        if self.t_max_fs is not None and not self.t_max_fs > 0:
            problems.append(f"t_max_fs must be positive, got {self.t_max_fs}")
        cr = cycle_list(self.cycles)
        if not cr:
            problems.append(f"cycle range {self.cycles!r} is empty")
        elif min(cr) < 1:
            problems.append(f"cycles must be positive, got {self.cycles!r}")
        if self.command in ("single", "evolve", "buildup") and len(cr or [0]) != 1:
            problems.append(f"command {self.command!r} takes a single cycle count, "
                            f"got {self.cycles!r}")
        if self.command in ("single", "evolve", "buildup") and not self.species:
            problems.append(f"command {self.command!r} requires --species")
        if self.command == "predict" and (self.ratio is None) == (self.coherence is None):
            problems.append("predict needs exactly one of --ratio or --coherence")
        if problems:
            raise ConfigError("; ".join(problems))
        return self


def cycle_list(spec: str):
    """Parse '8' or '2..18' into a list of ints; ascending ranges only."""
    text = str(spec).strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError as exc:
        raise ConfigError(f"malformed cycle specification {text!r}") from exc


def read_config_file(path: str) -> dict:
    """key = value lines, '#' comments."""
    values = {}
    bad = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    bad.append(f"line {lineno}: expected key = value")
                    continue
                key, _, val = line.partition("=")
                key = key.strip().lower()
                if key not in _CONFIG_KEYS:
                    bad.append(f"line {lineno}: unknown key {key!r}")
                    continue
                values[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if bad:
        raise ConfigError(f"config file {path}: " + "; ".join(bad))
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sowp",
        description="Spin-orbit coherence of atoms from short-pulse "
                    "photodetachment of negative ions.")
    parser.add_argument("--version", action="version", version=f"sowp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, physics=True):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--out-dir", help="artifact directory (default ./out)")
        if physics:
            p.add_argument("--species", help="species name from the data file")
            p.add_argument("--species-file",
                           help="species data file (default: $SOWP_SPECIES_FILE "
                                "or the packaged table)")
            p.add_argument("--wavelength-nm", type=float)
            p.add_argument("--intensity-wcm2", type=float)
            p.add_argument("--cycles", help="cycle count N, or range LO..HI for sweep")
            p.add_argument("--n-energy", type=int, help="radial quadrature nodes")
            p.add_argument("--n-theta", type=int, help="polar quadrature nodes")
            p.add_argument("--n-phi", type=int, help="azimuthal quadrature nodes")
            p.add_argument("--phi-mode", choices=("analytic", "numeric"))
            p.add_argument("--threads", type=int, help="worker threads for sweeps")

    for name, text in (("single", "density matrix and coherence for one pulse"),
                       ("buildup", "cumulative saddle-sum build-up trace"),
                       ("sweep", "coherence versus pulse duration"),
                       ("fit", "Gaussian-law fit of a sweep")):
        p = sub.add_parser(name, help=text)
        add_common(p)
        if name == "fit":
            p.add_argument("--sweep-csv", help="existing sweep.csv to fit "
                                               "(otherwise the sweep is run first)")

    p = sub.add_parser("evolve", help="single + beat-signal trace")
    add_common(p)
    p.add_argument("--beta-rad", type=float, help="probe phase offset")
    p.add_argument("--t-max-fs", type=float, help="trace end time (default 2 tau_b)")
    p.add_argument("--n-samples", type=int, help="trace sample count")

    p = sub.add_parser("predict", help="evaluate or invert the Gaussian law")
    add_common(p, physics=False)
    p.add_argument("--ratio", type=float, help="tau_fwhm / tau_b for a forward prediction")
    p.add_argument("--coherence", type=float, help="g value to invert into a ratio")
    p.add_argument("--g0", type=float, help="Gaussian-law amplitude (default 0.89)")
    p.add_argument("--zeta", type=float, help="Gaussian-law width (default 1.15)")
    return parser


_FLOAT_KEYS = {"wavelength_nm", "intensity_wcm2", "beta_rad", "g0", "zeta",
               "ratio", "coherence", "t_max_fs"}
_INT_KEYS = {"n_energy", "n_theta", "n_phi", "threads", "n_samples"}


def parse_config(argv) -> RunConfig:
    """CLI arguments + optional config file -> validated RunConfig.

    Precedence: command-line flags > config file > defaults.
    """
    ns = _build_parser().parse_args(argv)
    file_values = read_config_file(ns.config) if ns.config else {}

    def pick(key, default):
        flag = getattr(ns, key, None)
        if flag is not None:
            return flag
        if key in file_values:
            raw = file_values[key]
            try:
                if key in _FLOAT_KEYS:
                    return float(raw)
                if key in _INT_KEYS:
                    return int(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: bad number {raw!r}") from exc
            return raw
        return default

    cfg = RunConfig(
        command=ns.command,
        species=pick("species", None),
        species_file=pick("species_file", None),
        wavelength_nm=pick("wavelength_nm", DEFAULTS["wavelength_nm"]),
        intensity_wcm2=pick("intensity_wcm2", DEFAULTS["intensity_wcm2"]),
        cycles=str(pick("cycles", DEFAULTS["cycles"])),
        n_energy=pick("n_energy", DEFAULTS["n_energy"]),
        n_theta=pick("n_theta", DEFAULTS["n_theta"]),
        n_phi=pick("n_phi", DEFAULTS["n_phi"]),
        phi_mode=pick("phi_mode", DEFAULTS["phi_mode"]),
        beta_rad=pick("beta_rad", DEFAULTS["beta_rad"]),
        out_dir=pick("out_dir", DEFAULTS["out_dir"]),
        threads=pick("threads", DEFAULTS["threads"]),
        g0=pick("g0", DEFAULTS["g0"]),
        zeta=pick("zeta", DEFAULTS["zeta"]),
        ratio=pick("ratio", None),
        coherence=pick("coherence", None),
        t_max_fs=pick("t_max_fs", DEFAULTS["t_max_fs"]),
        n_samples=pick("n_samples", DEFAULTS["n_samples"]),
        sweep_csv=pick("sweep_csv", None),
        cycles_explicit=(getattr(ns, "cycles", None) is not None
                         or "cycles" in file_values),
    )
    return cfg.validate()


def _grid_kw(cfg: RunConfig) -> dict:
    return dict(n_energy=cfg.n_energy, n_theta=cfg.n_theta, n_phi=cfg.n_phi,
                phi_mode=cfg.phi_mode)


def _species_list(cfg: RunConfig):
    path = cfg.species_file or default_species_path()
    if cfg.species:
        return [get_species(name.strip(), path)
                for name in cfg.species.split(",") if name.strip()]
    return [sp for sp in load_species(path)
            if sp.name.lower() in DEFAULT_SWEEP_CYCLES]


def _summary_header(cfg: RunConfig, lines: list) -> None:
    lines.append(f"sowp {__version__} command={cfg.command}")
    lines.append(f"wavelength_nm = {cfg.wavelength_nm:g}")
    lines.append(f"intensity_wcm2 = {cfg.intensity_wcm2:g}")
    lines.append(f"cycles = {cfg.cycles}")
    lines.append(f"grid = {cfg.n_energy} x {cfg.n_theta} x {cfg.n_phi} "
                 f"({cfg.phi_mode} phi)")


def _pulse_block(pulse: Pulse, species, lines: list) -> None:
    lines.append(f"tau_p_fs = {pulse.tau_p_fs:.6g}")
    lines.append(f"tau_fwhm_fs = {pulse.fwhm_fs():.6g}")
    if species is not None:
        lines.append(f"species = {species.name}")
        lines.append(f"tau_b_fs = {species.beat_period_fs:.6g}")
        lines.append(f"gamma_j32 = {pulse.keldysh_gamma(species.kappa(3)):.6g}")
        lines.append(f"gamma_j12 = {pulse.keldysh_gamma(species.kappa(1)):.6g}")


def _write(path, writer) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer(fh)


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the exit status."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    summary = []
    _summary_header(cfg, summary)
    status = 0

    if cfg.command in ("single", "evolve", "buildup"):
        species = _species_list(cfg)[0]
        pulse = Pulse.from_lab(cfg.wavelength_nm, cycle_list(cfg.cycles)[0],
                               cfg.intensity_wcm2)
        grid = MomentumGrid.build(pulse.omega, **_grid_kw(cfg))
        _pulse_block(pulse, species, summary)
        if cfg.command == "buildup":
            trace = buildup(pulse, species, grid)
            _write(os.path.join(cfg.out_dir, "buildup.csv"), trace.write_csv)
            rho = trace.final
        else:
            rho = build_density_matrix(pulse, species, grid)
        _write(os.path.join(cfg.out_dir, "densmat.csv"), rho.write_csv)
        g = coherence_degree(rho)
        s_bar, delta_s = signal_parameters(rho)
        summary.append(f"w = {rho.w:.10g}")
        summary.append(f"g = {g:.10g}")
        summary.append(f"S_bar = {s_bar:.10g}")
        summary.append(f"Delta_S = {delta_s:.10g}")
        summary.append(f"contrast = {delta_s / s_bar:.10g}")
        if cfg.command == "evolve":
            t_max = (2.0 * species.beat_period_fs if cfg.t_max_fs is None
                     else cfg.t_max_fs)
            times = np.linspace(0.0, t_max, cfg.n_samples)
            tr = signal_trace(rho, species, times, beta=cfg.beta_rad)
            _write(os.path.join(cfg.out_dir, "trace.csv"), tr.write_csv)
            summary.append(f"beta_rad = {cfg.beta_rad:g}")
            summary.append(f"trace_period_fs = {tr.period_fs:.6g}")

    elif cfg.command in ("sweep", "fit"):
        points = None
        if cfg.command == "fit" and cfg.sweep_csv:
            with open(cfg.sweep_csv, encoding="utf-8") as fh:
                points = read_sweep_csv(fh)
            summary.append(f"sweep_csv = {cfg.sweep_csv} ({len(points)} points)")
        if points is None:
            species = _species_list(cfg)
            cycles = cycle_list(cfg.cycles) if cfg.cycles_explicit else None
            points, failures = coherence_sweep(
                species, cfg.wavelength_nm, cfg.intensity_wcm2, cycles=cycles,
                threads=cfg.threads, **_grid_kw(cfg))
            _write(os.path.join(cfg.out_dir, "sweep.csv"),
                   lambda fh: write_sweep_csv(points, fh))
            summary.append(f"sweep points = {len(points)}")
            for name, n, exc in failures:
                summary.append(f"FAILED {name} N={n}: {exc}")
                print(f"sweep point {name} N={n} failed: {exc}", file=sys.stderr)
            if failures:
                status = 2
        if cfg.command == "fit":
            fit = gaussian_fit(points)
            _write(os.path.join(cfg.out_dir, "fit.csv"),
                   lambda fh: write_fit_csv(fit, fh))
            summary.append(f"g0 = {fit.g0:.10g}")
            summary.append(f"zeta = {fit.zeta:.10g}")
            summary.append(f"rms = {fit.rms:.10g}")
            print(f"g0 = {fit.g0:.6g}  zeta = {fit.zeta:.6g}  rms = {fit.rms:.3g}")

    elif cfg.command == "predict":
        fit = FitResult(g0=cfg.g0, zeta=cfg.zeta, rms=0.0)
        try:
            if cfg.ratio is not None:
                value = predict_g(cfg.ratio, fit)
                summary.append(f"ratio = {cfg.ratio:.10g}")
                summary.append(f"g = {value:.10g}")
                print(f"g({cfg.ratio:g}) = {value:.6g}")
            else:
                value = invert_g(cfg.coherence, fit)
                summary.append(f"g = {cfg.coherence:.10g}")
                summary.append(f"ratio = {value:.10g}")
                print(f"ratio(g = {cfg.coherence:g}) = {value:.6g}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    _write(os.path.join(cfg.out_dir, "summary.txt"),
           lambda fh: fh.write("\n".join(summary) + "\n"))
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:     # argparse errors/help
        code = exc.code if isinstance(exc.code, int) else 0
        return 1 if code not in (0, None) else 0
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SowpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
