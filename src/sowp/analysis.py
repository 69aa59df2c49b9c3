"""Experiment drivers: coherence build-up, duration sweep, Gaussian law.

The sweep computes the degree of coherence g for a family of pulses with
increasing cycle count and expresses it against the ratio of the FWHM pulse
duration to the spin-orbit beat period.  Across species the points collapse
onto one curve well described by

    g(r) = g0 exp(-zeta r^2),      r = tau_fwhm / tau_beat,

fitted by unweighted least squares (log-linear seed, Gauss-Newton refine).
The sweep runs one job per pulse, whose species share one saddle pass.
"""

from dataclasses import dataclass, fields

import numpy as np

from sowp import units
from sowp.amplitude import amplitude_profiles
from sowp.densmat import (DensityMatrix, Gram, MomentumGrid,
                          build_density_matrix, coherence_degree, family,
                          gram_to_rho, grid_nodes, warn_if_saturated)
from sowp.errors import ConfigError, FitError, SowpError
from sowp.pulse import Pulse
from sowp.saddle import find_saddles
from sowp.species import Species
from sowp.workers import Forks, forkable

DEFAULT_SWEEP_CYCLES = {"f": range(2, 19), "cl": range(2, 19), "br": range(2, 9)}
BUILDUP_PROBE_P = 0.05
FIT_MAX_ITERATIONS = 200   # Gauss-Newton steps before a FitError
FIT_STEP_TOL = 1e-10       # convergence: largest full (g0, zeta) step


@dataclass(frozen=True)
class SweepPoint:
    species: str
    n_cycles: int
    tau_fwhm_fs: float
    ratio: float          # tau_fwhm / tau_beat
    g: float
    w: float


@dataclass(frozen=True)
class FitResult:
    g0: float
    zeta: float
    rms: float
    residuals: tuple = ()


@dataclass(frozen=True, eq=False)
class BuildupTrace:
    """Cumulative saddle-sum density-matrix elements.

    Entry k uses the first k+1 saddle contributions (ordered by Re t) in
    both channels; t_fs[k] is Re t of saddle k+1 for the ground channel at
    emission along the polarization axis with momentum BUILDUP_PROBE_P.
    """

    t_fs: np.ndarray            # (2N+2,)
    pop_j32_m32: np.ndarray     # rho^(3/2,3/2)
    pop_j32_m12: np.ndarray     # rho^(3/2,1/2)
    pop_j12_m12: np.ndarray     # rho^(1/2,1/2)
    coherence: np.ndarray       # complex rho_{3/2 1/2 1/2 1/2}
    field: np.ndarray           # F(Re t'_mu), a.u.
    final: DensityMatrix        # full-sum matrix on the same grid

    def write_csv(self, fh) -> None:
        fh.write("t_fs,element,re,im,abs,field\n")
        rows = (("pop_j32_m32", self.pop_j32_m32),
                ("pop_j32_m12", self.pop_j32_m12),
                ("pop_j12_m12", self.pop_j12_m12),
                ("coh_j32_j12_m12", self.coherence))
        for tag, arr in rows:
            for k in range(self.t_fs.size):
                z = complex(arr[k])
                fh.write(f"{self.t_fs[k]:.17g},{tag},{z.real:.17g},"
                         f"{z.imag:.17g},{abs(z):.17g},{self.field[k]:.17g}\n")


def buildup(pulse: Pulse, species: Species, grid: MomentumGrid = None,
            threads: int = 1) -> BuildupTrace:
    """Recompute the density matrix from cumulative saddle subsets, on two
    processes when ``threads`` >= 2 (as ``build_density_matrix``)."""
    if grid is None:
        grid = MomentumGrid.build(pulse.omega)
    pz, pperp, weights = grid_nodes(grid)
    gram = Gram(weights, 2 * pulse.n_cycles + 2)
    amplitude_profiles(pulse, species, pz, pperp, cumulative=True, consume=gram,
                       threads=threads)
    rho = gram_to_rho(gram.matrix[:, 0], grid)

    probe = find_saddles(pulse, species.e_bound(3),
                         (0.0, 0.0, BUILDUP_PROBE_P))
    t_ref = np.array([sp.t.real for sp in probe])
    # per saddle: one array call moves F by up to 5.2e-17 at N = 18, and buildup.csv
    field = np.array([pulse.electric_field(t).real for t in t_ref])

    pop33, pop31, pop11, coherence = family(rho)
    return BuildupTrace(
        t_fs=units.au_to_fs(t_ref), pop_j32_m32=pop33, pop_j32_m12=pop31,
        pop_j12_m12=pop11, coherence=coherence, field=field,
        final=warn_if_saturated(DensityMatrix(rho[-1])))


def _sweep_pulse(species, wavelength_nm: float, intensity_wcm2: float,
                 n_cycles: int, grid: MomentumGrid) -> list:
    """The sweep points of the sequence ``species`` at one pulse, in order:
    per species its SweepPoint, or the SowpError it raised.  Their density
    matrices come from one build_density_matrix call (one saddle pass); if
    it raises, each species is solved alone, so each gets the point or
    error it gets alone."""
    pulse = Pulse.from_lab(wavelength_nm, n_cycles, intensity_wcm2)
    tau_fwhm = pulse.fwhm_fs()
    rhos = None
    if len(species) > 1:
        try:
            rhos = build_density_matrix(pulse, species, grid)
        except SowpError:
            pass    # solved one by one below
    outcomes = []
    for k, sp in enumerate(species):
        try:
            rho = build_density_matrix(pulse, sp, grid) if rhos is None else rhos[k]
            outcomes.append(SweepPoint(
                species=sp.name, n_cycles=n_cycles, tau_fwhm_fs=tau_fwhm,
                ratio=tau_fwhm / sp.beat_period_fs, g=coherence_degree(rho),
                w=rho.w))
        except SowpError as exc:
            outcomes.append(exc)
    return outcomes


def _dealt(run, jobs, processes: int) -> list:
    """[run(job) for job in jobs], worked by this process and
    ``processes`` - 1 workers forked by ``Forks``.  Of P participants,
    participant p takes the jobs k with k mod 2P in {p, 2P - 1 - p}, back
    and forth, so that each gets its share of long and short jobs when
    they come longest first; this process (p = 0) works job 0 first, and
    takes each worker's results (``Forks.results``) once its own are done.
    RuntimeError, naming its jobs, for a worker that ends without sending
    its results."""
    if processes < 2:
        return [run(job) for job in jobs]
    period = 2 * processes
    shares = [[k for k in range(len(jobs)) if p in (k % period, period - 1 - k % period)]
              for p in range(processes)]
    done = [None] * len(jobs)
    with Forks() as forks:
        for p in range(1, processes):
            share = [jobs[k] for k in shares[p]]
            forks.start(lambda: [run(job) for job in share],    # at once, in the worker
                        f"sweep worker {p} ended with status {{status}} without the "
                        f"results of N = {share}")
        for k in shares[0]:
            done[k] = run(jobs[k])
        for p, results in enumerate(forks.results(), 1):
            for k, result in zip(shares[p], results):
                done[k] = result
    return done


def coherence_sweep(species_list, wavelength_nm: float, intensity_wcm2: float,
                    cycles=None, threads: int = 1, **grid_kw):
    """One point per (species, N), one job (_sweep_pulse) per N with its
    species in order, longest pulse first, on this process and up to
    ``threads`` - 1 worker processes forked once the momentum grid is
    built (see _dealt; ``sowp.workers.forkable`` raises ValueError unless
    threads >= 1, and leaves every job to this process where os.fork does
    not exist).  Each worker shares the grid copy-on-write and holds its
    own block buffers; its points, errors and warnings come back through
    ``sowp.workers.Forks``.  Package errors (SowpError) are collected
    per point, not raised; any other exception is raised once every job
    has run, the first in job order.  From Python 3.12 on os.fork warns in
    a process that runs other threads: a caller that runs threads of its
    own should pass threads=1.

    ``cycles``: iterable of N applied to every species (default: 2..18 for
    F and Cl, 2..8 for Br; ConfigError for a species with no default
    range).  Returns (points, failures), each in (species position, N)
    order whatever ``threads`` is; a failure is (name, N, exc).
    """
    processes = forkable(threads)
    jobs = []
    cycles = None if cycles is None else list(cycles)   # read once, for all species
    for sp in species_list:
        ns = DEFAULT_SWEEP_CYCLES.get(sp.name.lower()) if cycles is None else cycles
        if ns is None:
            raise ConfigError(f"no default cycle range for species {sp.name!r}; "
                              f"give the cycle counts (--cycles)")
        for n in ns:
            if not float(n).is_integer():
                raise ValueError(f"cycle counts must be integers, got {n}")
            jobs.append((sp, int(n)))
    pulses = {}     # N -> the positions in jobs of its points
    for i, (_, n) in enumerate(jobs):
        pulses.setdefault(n, []).append(i)

    # omega depends on the wavelength alone: one read-only grid serves all
    grid = MomentumGrid.build(units.wavelength_to_omega(wavelength_nm),
                              **grid_kw)
    # one job per pulse, longest first, so that no long one is left to run
    # alone at the end
    longest_first = sorted(pulses, reverse=True)

    def run(n):     # the points or SowpErrors of pulse n, or None and another error
        try:
            return _sweep_pulse([jobs[i][0] for i in pulses[n]], wavelength_nm,
                                intensity_wcm2, n, grid), None
        except Exception as exc:    # raised once every job has run
            return None, exc

    outcomes = [None] * len(jobs)
    done = _dealt(run, longest_first, min(processes, len(longest_first)))
    for n, (results, exc) in zip(longest_first, done):
        if exc is not None:     # the first in job order
            raise exc
        for i, result in zip(pulses[n], results):
            outcomes[i] = result
    points, failures = [], []
    for i, (sp, n) in enumerate(jobs):
        if isinstance(outcomes[i], SowpError):     # aggregate per-point failures
            failures.append((sp.name, n, outcomes[i]))
        else:
            points.append(outcomes[i])
    return points, failures


def _ratios_g(points):
    """(ratios, g) arrays from SweepPoints or (ratio, g) pairs."""
    pairs = [(p.ratio, p.g) if isinstance(p, SweepPoint) else p for p in points]
    return np.array(pairs, dtype=float).reshape(-1, 2).T


def gaussian_fit(points) -> FitResult:
    """Least-squares (g0, zeta) for g = g0 exp(-zeta r^2)."""
    r, g = _ratios_g(points)
    if r.size < 3:
        raise ValueError(f"need at least 3 points, got {r.size}")
    if not np.isfinite([r, g]).all():
        k = int(np.argmin(np.isfinite(r) & np.isfinite(g)))
        raise ValueError(f"point {k + 1} is not finite: ratio {r[k]}, g {g[k]}")
    if np.unique(r).size != r.size:
        raise ValueError("ratios must be distinct")

    pos = g > 0
    if pos.sum() < 2:
        raise FitError("need at least 2 points with g > 0 to seed the fit")
    design = np.column_stack([np.ones(int(pos.sum())), -r[pos] ** 2])
    sol, *_ = np.linalg.lstsq(design, np.log(g[pos]), rcond=None)
    g0, zeta = float(np.exp(sol[0])), float(sol[1])

    trace = [(g0, zeta)]
    for _ in range(FIT_MAX_ITERATIONS):
        model = np.exp(-zeta * r * r)
        resid = g - g0 * model
        jac = np.column_stack([-model, g0 * r * r * model])
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        done = max(abs(step[0]), abs(step[1])) < FIT_STEP_TOL
        # halve the step until it lowers the residual norm; the last step,
        # and one that no halving helps, is taken whole: the norm is flat
        # to rounding there, and only full steps converge
        scale = 1.0
        base = float(resid @ resid)
        for _ in range(0 if done else 30):
            cand = (g0 + scale * step[0], zeta + scale * step[1])
            res_c = g - cand[0] * np.exp(-cand[1] * r * r)
            if float(res_c @ res_c) < base:
                break
            scale *= 0.5
        else:
            scale = 1.0
        g0, zeta = g0 + scale * step[0], zeta + scale * step[1]
        trace.append((g0, zeta))
        if done:
            break
    else:
        raise FitError(f"Gauss-Newton did not converge in {FIT_MAX_ITERATIONS} "
                       f"iterations", trace=trace)
    if not (0.0 < g0 <= 1.0) or zeta <= 0.0:
        raise FitError(f"fit outside the physical domain: g0 = {g0}, "
                       f"zeta = {zeta}", trace=trace)
    residuals = g - g0 * np.exp(-zeta * r * r)
    return FitResult(g0=g0, zeta=zeta,
                     rms=float(np.sqrt(np.mean(residuals ** 2))),
                     residuals=tuple(float(x) for x in residuals))


def predict_g(ratio: float, fit: FitResult) -> float:
    """g0 exp(-zeta ratio^2)."""
    if ratio < 0:
        raise ValueError(f"ratio must be >= 0, got {ratio}")
    return fit.g0 * float(np.exp(-fit.zeta * ratio * ratio))


def invert_g(g: float, fit: FitResult) -> float:
    """Duration ratio at which the Gaussian law gives coherence g."""
    if not 0.0 < g < fit.g0:
        raise ValueError(f"g must lie in (0, g0 = {fit.g0}), got {g}")
    return float(np.sqrt(np.log(fit.g0 / g) / fit.zeta))


def write_sweep_csv(points, fh) -> None:
    """One column per SweepPoint field, in field order; floats to 17 digits."""
    fh.write(",".join(f.name for f in fields(SweepPoint)) + "\n")
    for p in points:
        fh.write(",".join(format(getattr(p, f.name), ".17g" if f.type is float else "")
                          for f in fields(SweepPoint)) + "\n")


def read_sweep_csv(fh):
    """The SweepPoints of a write_sweep_csv file, each value read by its
    field's type; ValueError on a wrong header, column count or value."""
    columns = fields(SweepPoint)
    header = fh.readline().strip().split(",")
    if header != [f.name for f in columns]:
        raise ValueError(f"unexpected sweep CSV header {header}")
    points = []
    for line in fh:
        if not line.strip():
            continue
        values = line.strip().split(",")
        if len(values) != len(columns):
            raise ValueError(f"expected {len(columns)} columns: {line.strip()!r}")
        points.append(SweepPoint(*(f.type(v) for f, v in zip(columns, values))))
    return points


def write_fit_csv(fit: FitResult, fh) -> None:
    fh.write("g0,zeta,rms\n")
    fh.write(f"{fit.g0:.17g},{fit.zeta:.17g},{fit.rms:.17g}\n")
