"""Command-line front end.

COMMANDS maps each subcommand to its help text and its handler.  Three
handlers serve the six commands: _one_pulse (single, evolve, buildup: one
pulse's density matrix, g and beat signal), _sweep (sweep, fit: g versus
pulse duration and its Gaussian-law fit) and _predict (evaluate or invert
the law).  A handler writes its own artifacts and returns the lines of
summary.txt below the version line, with the exit status; a handler that
runs pulses echoes the pulse and grid first, and run() writes the file.

Every option is one RunConfig field: a config-file key, and the flag of
the same name with dashes for the commands its metadata names.  Flags
override config-file values, which override built-in defaults (the
reference pulse: 1800 nm, 1.3e13 W/cm^2, 8 cycles).  Config files are
read by the species file's key = value reader.  All artifacts are written
under --out-dir.  Exit codes: 0 success, 1 configuration error,
2 numerical failure, 3 I/O error.
"""

import argparse
import atexit
import contextlib
import gc
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from sowp import __version__
from sowp.analysis import (DEFAULT_SWEEP_CYCLES, FitResult, _one_blas_thread,
                           buildup, coherence_sweep, gaussian_fit, invert_g,
                           predict_g, read_sweep_csv, write_fit_csv,
                           write_sweep_csv)
from sowp.densmat import MomentumGrid, build_density_matrix, coherence_degree
from sowp.dynamics import signal_parameters, signal_trace
from sowp.errors import ConfigError, NumericalError, SowpError
from sowp.pulse import Pulse
from sowp.species import (default_species_path, get_species, load_species,
                          numbered_lines, parse_key_values)

_PHYSICS = ("single", "evolve", "buildup", "sweep", "fit")
SINGLE_CYCLES = "8"   # N when cycles is None, except for sweep and fit


def _option(default, commands, help):
    """A config key that ``commands`` also take as a flag."""
    return field(default=default, metadata={"commands": commands, "help": help})


@dataclass
class RunConfig:
    """The configuration schema.  Every field with metadata is a config-file
    key and, for the commands its metadata names, the flag --field-name;
    both are read with the field's annotated type and default to its
    default."""

    command: str
    out_dir: str = _option("out", _PHYSICS + ("predict",), "artifact directory")
    species: str = _option(None, _PHYSICS, "species name from the data file")
    species_file: str = _option(
        None, _PHYSICS,
        "species data file (default: $SOWP_SPECIES_FILE or the packaged table)")
    wavelength_nm: float = _option(1800.0, _PHYSICS, "laser wavelength")
    intensity_wcm2: float = _option(1.3e13, _PHYSICS, "peak intensity")
    cycles: str = _option(None, _PHYSICS, "cycle count N, or LO..HI for sweep "
                          "and fit (default 8; sweep, fit: each species' range)")
    n_energy: int = _option(200, _PHYSICS, "radial quadrature nodes")
    n_theta: int = _option(64, _PHYSICS, "polar quadrature nodes")
    n_phi: int = _option(32, _PHYSICS, "azimuthal quadrature nodes")
    phi_mode: str = _option("analytic", _PHYSICS, "analytic or numeric")
    threads: int = _option(1, _PHYSICS, "processes that work a sweep: this one "
                           "and forked workers")
    sweep_csv: str = _option(None, ("fit",), "existing sweep.csv to fit "
                             "(otherwise the sweep is run first)")
    beta_rad: float = _option(0.0, ("evolve",), "probe phase offset")
    t_max_fs: float = _option(None, ("evolve",),
                              "trace end time (default 2 tau_b)")
    n_samples: int = _option(400, ("evolve",), "trace sample count")
    ratio: float = _option(None, ("predict",),
                           "tau_fwhm / tau_b for a forward prediction")
    coherence: float = _option(None, ("predict",),
                               "g value to invert into a ratio")
    g0: float = _option(0.89, ("predict",), "Gaussian-law amplitude")
    zeta: float = _option(1.15, ("predict",), "Gaussian-law width")

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        problems = [f"{f.name} must be finite, got {getattr(self, f.name)}"
                    for f in fields(self) if f.type is float
                    and not math.isfinite(getattr(self, f.name) or 0.0)]
        if self.wavelength_nm <= 0:
            problems.append(f"wavelength_nm must be positive, got {self.wavelength_nm}")
        if not self.intensity_wcm2 > 0:
            problems.append(f"intensity_wcm2 must be positive, got {self.intensity_wcm2}")
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
        cr = cycle_list(SINGLE_CYCLES if self.cycles is None else self.cycles)
        if not cr:
            problems.append(f"cycle range {self.cycles!r} is empty")
        elif min(cr) < 1:
            problems.append(f"cycles must be positive, got {self.cycles!r}")
        names = _species_names(self.species)
        if self.species and not names:
            problems.append(f"species list {self.species!r} names no species")
        if len(set(names)) != len(names):
            problems.append(f"species list {self.species!r} names a species twice")
        if COMMANDS[self.command][1] is _one_pulse:
            if len(cr) != 1:
                problems.append(f"command {self.command!r} takes a single "
                                f"cycle count, got {self.cycles!r}")
            if not self.species:
                problems.append(f"command {self.command!r} requires --species")
            elif len(names) > 1:
                problems.append(f"command {self.command!r} takes a single "
                                f"species, got {self.species!r}")
        if self.command == "predict":
            if (self.ratio is None) == (self.coherence is None):
                problems.append("predict needs exactly one of --ratio or --coherence")
            # the domain gaussian_fit accepts
            if not 0.0 < self.g0 <= 1.0:
                problems.append(f"g0 must lie in (0, 1], got {self.g0}")
            if not self.zeta > 0.0:
                problems.append(f"zeta must be positive, got {self.zeta}")
        if problems:
            raise ConfigError("; ".join(problems))
        return self


_CONFIG_FIELDS = {f.name: f for f in fields(RunConfig) if f.metadata}


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


def _species_names(spec) -> list:
    """Lower-cased names of a comma-separated species list; blank entries
    are skipped, and None gives []."""
    return [name.strip().lower() for name in (spec or "").split(",")
            if name.strip()]


def read_config_file(path: str) -> dict:
    """Config-file values by key, typed by the RunConfig schema."""
    source = f"config file {path}"
    return parse_key_values(numbered_lines(path, ConfigError, source),
                            _CONFIG_FIELDS, ConfigError, source)


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command; given ``command``, only that command's
    subparser gets its flags (each flag costs a help formatter)."""
    parser = argparse.ArgumentParser(
        prog="sowp",
        description="Spin-orbit coherence of atoms from short-pulse "
                    "photodetachment of negative ions.")
    parser.add_argument("--version", action="version", version=f"sowp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command not in (None, name):
            continue
        p.add_argument("--config", help="key = value configuration file")
        for key, f in _CONFIG_FIELDS.items():
            if name not in f.metadata["commands"]:
                continue
            text = f.metadata["help"]
            if f.default is not None:
                text += f" (default {f.default:{'g' if f.type is float else ''}})"
            p.add_argument("--" + key.replace("_", "-"), type=f.type, help=text)
    return parser


def parse_config(argv) -> RunConfig:
    """CLI arguments + optional config file -> validated RunConfig.

    Precedence: command-line flags > config file > defaults.  The command
    is the first argument that is not an option, as no top-level option
    takes a value.
    """
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    ns = _build_parser(command).parse_args(argv)
    values = read_config_file(ns.config) if ns.config else {}
    for key in _CONFIG_FIELDS:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(command=ns.command, **values).validate()


def _grid_kw(cfg: RunConfig) -> dict:
    return dict(n_energy=cfg.n_energy, n_theta=cfg.n_theta, n_phi=cfg.n_phi,
                phi_mode=cfg.phi_mode)


def _species_list(cfg: RunConfig):
    """The --species records, or else every record of the species file
    that has a default sweep range; never empty."""
    path = cfg.species_file or default_species_path()
    if cfg.species:
        return [get_species(name, path) for name in _species_names(cfg.species)]
    species = [sp for sp in load_species(path)
               if sp.name.lower() in DEFAULT_SWEEP_CYCLES]
    if not species:
        known = ", ".join(map(str.capitalize, DEFAULT_SWEEP_CYCLES))
        raise ConfigError(f"species file {path} holds none of {known}; "
                          f"name the species with --species")
    return species


@contextlib.contextmanager
def _as_config_error(context=""):
    """Report a ValueError raised by bad user input as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{context}{exc}") from exc


def _write(cfg: RunConfig, name: str, writer) -> None:
    """writer(fh) on the artifact ``name`` under cfg.out_dir."""
    with open(os.path.join(cfg.out_dir, name), "w", encoding="utf-8",
              newline="\n") as fh:
        writer(fh)


def _pulse_lines(cfg: RunConfig, cycles: str) -> list:
    """The summary lines of the pulses and grid that a command runs."""
    return [f"wavelength_nm = {cfg.wavelength_nm:g}",
            f"intensity_wcm2 = {cfg.intensity_wcm2:g}", f"cycles = {cycles}",
            f"grid = {cfg.n_energy} x {cfg.n_theta} x {cfg.n_phi} "
            f"({cfg.phi_mode} phi)"]


def _one_pulse(cfg: RunConfig):
    """single, evolve, buildup: one pulse's density matrix and beat signal."""
    cycles = SINGLE_CYCLES if cfg.cycles is None else cfg.cycles
    species = _species_list(cfg)[0]
    pulse = Pulse.from_lab(cfg.wavelength_nm, cycle_list(cycles)[0],
                           cfg.intensity_wcm2)
    grid = MomentumGrid.build(pulse.omega, **_grid_kw(cfg))
    summary = _pulse_lines(cfg, cycles) + [
        f"tau_p_fs = {pulse.tau_p_fs:.6g}", f"tau_fwhm_fs = {pulse.fwhm_fs():.6g}",
        f"species = {species.name}", f"tau_b_fs = {species.beat_period_fs:.6g}",
        f"gamma_j32 = {pulse.keldysh_gamma(species.kappa(3)):.6g}",
        f"gamma_j12 = {pulse.keldysh_gamma(species.kappa(1)):.6g}"]
    if cfg.command == "buildup":
        trace = buildup(pulse, species, grid)
        _write(cfg, "buildup.csv", trace.write_csv)
        rho = trace.final
    else:
        rho = build_density_matrix(pulse, species, grid)
    _write(cfg, "densmat.csv", rho.write_csv)
    g = coherence_degree(rho)
    s_bar, delta_s = signal_parameters(rho)
    summary += [f"w = {rho.w:.10g}", f"g = {g:.10g}",
                f"S_bar = {s_bar:.10g}", f"Delta_S = {delta_s:.10g}",
                f"contrast = {delta_s / s_bar:.10g}"]
    if cfg.command == "evolve":
        t_max = (2.0 * species.beat_period_fs if cfg.t_max_fs is None
                 else cfg.t_max_fs)
        times = np.linspace(0.0, t_max, cfg.n_samples)
        tr = signal_trace(rho, species, times, beta=cfg.beta_rad)
        _write(cfg, "trace.csv", tr.write_csv)
        summary += [f"beta_rad = {cfg.beta_rad:g}",
                    f"trace_period_fs = {tr.period_fs:.6g}"]
    return summary, 0


def _sweep(cfg: RunConfig):
    """sweep, fit: g versus pulse duration; fit also fits the Gaussian law,
    to the points of --sweep-csv when given.  Exit 2 if a point failed."""
    failures = []
    if cfg.command == "fit" and cfg.sweep_csv:
        with (open(cfg.sweep_csv, encoding="utf-8") as fh,
              _as_config_error(f"sweep CSV {cfg.sweep_csv}: ")):
            points = read_sweep_csv(fh)
        summary = [f"sweep_csv = {cfg.sweep_csv} ({len(points)} points)"]
    else:
        species = _species_list(cfg)
        points, failures = coherence_sweep(
            species, cfg.wavelength_nm, cfg.intensity_wcm2,
            cycles=None if cfg.cycles is None else cycle_list(cfg.cycles),
            threads=cfg.threads, **_grid_kw(cfg))
        cycles = cfg.cycles
        if cycles is None:
            ranges = [DEFAULT_SWEEP_CYCLES[sp.name.lower()] for sp in species]
            cycles = "default (" + ", ".join(
                f"{sp.name} {ns[0]}..{ns[-1]}" for sp, ns in zip(species, ranges)) + ")"
        _write(cfg, "sweep.csv", lambda fh: write_sweep_csv(points, fh))
        summary = _pulse_lines(cfg, cycles) + [f"sweep points = {len(points)}"]
        for name, n, exc in failures:
            summary.append(f"FAILED {name} N={n}: {exc}")
            print(f"sweep point {name} N={n} failed: {exc}", file=sys.stderr)
    if cfg.command == "fit":
        if failures and len(points) < 3:
            raise NumericalError(f"{len(failures)} of {len(failures) + len(points)} "
                                 f"sweep points failed, too few left to fit")
        with _as_config_error():
            fit = gaussian_fit(points)
        _write(cfg, "fit.csv", lambda fh: write_fit_csv(fit, fh))
        summary += [f"g0 = {fit.g0:.10g}", f"zeta = {fit.zeta:.10g}",
                    f"rms = {fit.rms:.10g}"]
        print(f"g0 = {fit.g0:.6g}  zeta = {fit.zeta:.6g}  rms = {fit.rms:.3g}")
    return summary, 2 if failures else 0


def _predict(cfg: RunConfig):
    """predict: evaluate or invert the Gaussian law; runs no pulse."""
    fit = FitResult(g0=cfg.g0, zeta=cfg.zeta, rms=0.0)
    with _as_config_error():
        if cfg.ratio is not None:
            value = predict_g(cfg.ratio, fit)
            print(f"g({cfg.ratio:g}) = {value:.6g}")
            return [f"ratio = {cfg.ratio:.10g}", f"g = {value:.10g}"], 0
        value = invert_g(cfg.coherence, fit)
        print(f"ratio(g = {cfg.coherence:g}) = {value:.6g}")
        return [f"g = {cfg.coherence:.10g}", f"ratio = {value:.10g}"], 0


# subcommand -> (help text, handler: cfg -> (summary lines, exit status))
COMMANDS = {"single": ("density matrix and coherence for one pulse", _one_pulse),
            "evolve": ("single + beat-signal trace", _one_pulse),
            "buildup": ("cumulative saddle-sum build-up trace", _one_pulse),
            "sweep": ("coherence versus pulse duration", _sweep),
            "fit": ("Gaussian-law fit of a sweep", _sweep),
            "predict": ("evaluate or invert the Gaussian law", _predict)}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the exit status.  A command that
    runs pulses runs on one OpenBLAS thread (_one_blas_thread)."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    with _one_blas_thread() if cfg.command in _PHYSICS else contextlib.nullcontext():
        summary, status = COMMANDS[cfg.command][1](cfg)
    lines = [f"sowp {__version__} command={cfg.command}"] + summary
    _write(cfg, "summary.txt", lambda fh: fh.write("\n".join(lines) + "\n"))
    return status


def main(argv=None) -> int:
    """Run the command of ``argv`` (default sys.argv[1:]); returns the exit
    status.

    It first registers gc.freeze as an exit handler, once however often it
    is called, so that the collector skips every object still alive when
    the interpreter exits.  Python's finalization would otherwise run full
    cyclic collections over the many objects that numpy's import leaves
    behind, which costs a short command a large share of its time.  Exit
    handlers, stream flushes and module teardown still run.  The handler is
    registered here rather than at import, so library use of sowp keeps
    Python's default exit."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(parse_config(argv))
    except SystemExit as exc:     # argparse errors/help
        code = exc.code if isinstance(exc.code, int) else 0
        return 1 if code not in (0, None) else 0
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
