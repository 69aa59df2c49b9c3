import ctypes
import errno
import io
import math
import os
import signal
import time
import warnings

import numpy as np
import pytest

import sowp.analysis as analysis
from sowp import amplitude, cli, saddle, workers
from sowp.analysis import (BuildupTrace, FitResult, SweepPoint, buildup,
                           coherence_sweep, gaussian_fit, invert_g, predict_g)
from sowp.cli import read_sweep_csv
from sowp.densmat import (MomentumGrid, build_density_matrix, coherence_degree,
                          family, grid_nodes)
from sowp.errors import (ConfigError, FitError, NumericalError, SaddleError,
                         SaturationWarning)
from sowp.pulse import Pulse
from sowp.species import get_species

PAPER_FIT = FitResult(g0=0.89, zeta=1.15, rms=0.0)


def synthetic_points(g0=0.89, zeta=1.15, ratios=(0.1, 0.3, 0.5, 0.9, 1.4, 2.0)):
    return [(r, g0 * np.exp(-zeta * r * r)) for r in ratios]


class TestGaussianFit:
    def test_exact_recovery(self):
        fit = gaussian_fit(synthetic_points())
        assert fit.g0 == pytest.approx(0.89, abs=1e-8)
        assert fit.zeta == pytest.approx(1.15, abs=1e-8)
        assert fit.rms < 1e-10

    def test_recovery_from_poor_seed_region(self):
        # include a point with g ~ 1e-7 where the log-linear seed is biased
        fit = gaussian_fit(synthetic_points(ratios=(0.05, 0.4, 1.0, 3.7)))
        assert fit.g0 == pytest.approx(0.89, abs=1e-8)
        assert fit.zeta == pytest.approx(1.15, abs=1e-8)

    def test_accepts_sweep_points(self):
        pts = [SweepPoint("F", n, 1.0, r, g, 0.1)
               for n, (r, g) in enumerate(synthetic_points())]
        fit = gaussian_fit(pts)
        assert fit.g0 == pytest.approx(0.89, abs=1e-8)

    def test_residuals_reported(self):
        pts = [(r, g + d) for (r, g), d in zip(
            synthetic_points(), (0.01, -0.01, 0.02, 0.0, -0.02, 0.01))]
        fit = gaussian_fit(pts)
        assert len(fit.residuals) == len(pts)
        assert fit.rms == pytest.approx(
            np.sqrt(np.mean(np.array(fit.residuals) ** 2)), rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            gaussian_fit(synthetic_points()[:2])

    def test_duplicate_ratios(self):
        pts = synthetic_points()
        with pytest.raises(ValueError):
            gaussian_fit(pts + [pts[0]])

    @pytest.mark.parametrize("k, bad", [(2, (np.nan, 0.7)), (3, (0.7, np.inf))])
    def test_non_finite_point_named(self, k, bad):
        pts = [(0.1, 0.8), (0.3, 0.75), (0.5, 0.6), (0.9, 0.4)]
        pts[k - 1] = bad
        with pytest.raises(ValueError, match=f"point {k} is not finite"):
            gaussian_fit(pts)

    def test_unphysical_data_rejected(self):
        # increasing data drives zeta negative
        with pytest.raises(FitError):
            gaussian_fit([(0.1, 0.2), (0.5, 0.5), (1.0, 0.9), (1.5, 0.99)])

    def test_rounding_of_g_does_not_move_zeta(self):
        # the points of the frozen fit run (F, N = 2..4, 48 x 16 x 4 grid),
        # where the residual norm is flat to rounding over about 4e-9 in
        # zeta: each g moved by up to 3 ulp leaves zeta at the minimiser
        ratios = (0.052953264, 0.079429896, 0.105906528)
        g = np.array([0.8802946658368812, 0.8800184710602073, 0.8717213311262038])
        zeta = gaussian_fit(list(zip(ratios, g))).zeta
        assert f"{zeta:.10g}" == "1.209869456"
        for ulps in np.ndindex(7, 7, 7):
            moved = g + (np.array(ulps) - 3) * np.spacing(g)
            assert gaussian_fit(list(zip(ratios, moved))).zeta == pytest.approx(
                zeta, rel=1e-12, abs=0), ulps


class TestGaussianLaw:
    @pytest.mark.parametrize("ratio, expected", [
        (0.25, 0.83), (0.61, 0.58), (1.23, 0.16), (3.33, 0.00)])
    def test_forward_predictions(self, ratio, expected):
        assert round(predict_g(ratio, PAPER_FIT), 2) == expected

    def test_inverse_reference(self):
        assert float(f"{invert_g(0.21, PAPER_FIT):.3g}") == 1.12

    def test_inverse_at_one_efold(self):
        g = PAPER_FIT.g0 * np.exp(-PAPER_FIT.zeta)
        assert invert_g(g, PAPER_FIT) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("g", [1e-300, 1e-320, 5e-324])
    def test_inverse_of_a_tiny_g(self, g):
        # g0 / g overflows below about g0 1e-308; the logarithms do not
        expected = math.sqrt((math.log(PAPER_FIT.g0) - math.log(g)) / PAPER_FIT.zeta)
        assert invert_g(g, PAPER_FIT) == pytest.approx(expected, rel=1e-15)

    def test_round_trip(self):
        for ratio in (0.2, 0.77, 1.9):
            back = invert_g(predict_g(ratio, PAPER_FIT), PAPER_FIT)
            assert back == pytest.approx(ratio, rel=1e-12)

    def test_strictly_decreasing(self):
        ratios = np.linspace(0.0, 4.0, 200)
        vals = [predict_g(r, PAPER_FIT) for r in ratios]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            predict_g(-0.1, PAPER_FIT)
        with pytest.raises(ValueError):
            invert_g(0.90, PAPER_FIT)
        with pytest.raises(ValueError):
            invert_g(0.0, PAPER_FIT)


class TestBuildup:
    @pytest.mark.parametrize("intensity, saturates",
                             [(8e13, True), (1.3e13, False)],
                             ids=["saturated", "reference"])
    def test_saturation_warning(self, species_f, intensity, saturates):
        # the check build_density_matrix makes, on the full-sum matrix
        pulse = Pulse.from_lab(1800.0, 8, intensity)
        grid = MomentumGrid.build(pulse.omega, n_energy=48, n_theta=16, n_phi=4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = buildup(pulse, species_f, grid)
        warned = [w for w in caught if issubclass(w.category, SaturationWarning)]
        assert (trace.final.w > 0.5) == saturates
        assert len(warned) == int(saturates)

    def test_final_equals_full_matrix(self, ref_buildup, ref_rho):
        for name in ("F", "Br"):
            final = ref_buildup[name].final.matrix
            full = ref_rho[name].matrix
            scale = np.abs(full).max()
            assert np.abs(final - full).max() <= 1e-12 * scale

    def test_last_entries_read_the_final_matrix(self, ref_buildup):
        tr = ref_buildup["Br"]
        rho = tr.final
        assert (tr.pop_j32_m32[-1], tr.pop_j32_m12[-1], tr.pop_j12_m12[-1],
                tr.coherence[-1]) == family(rho.matrix)

    def test_times_monotone_and_match_count(self, ref_buildup, ref_pulse):
        tr = ref_buildup["F"]
        n_expected = 2 * ref_pulse.n_cycles + 2
        assert tr.t_fs.shape == (n_expected,)
        assert (np.diff(tr.t_fs) > 0).all()
        assert tr.t_fs[0] >= 0.0
        assert tr.t_fs[-1] <= ref_pulse.tau_p_fs

    def test_populations_accumulate(self, ref_buildup):
        # adding a saddle can interfere destructively with the partial sum,
        # so growth is monotone only up to sub-permille dips
        tr = ref_buildup["F"]
        for arr in (tr.pop_j32_m12, tr.pop_j12_m12, tr.pop_j32_m32):
            assert (np.diff(arr) > -1e-3 * arr.max()).all()
            assert arr[-1] > 0

    def test_first_threshold_high_purity(self, ref_buildup):
        # a single saddle leaves the m = 1/2 block almost rank one; the
        # small admixture of the |m_l| = 1 spin channel caps g below 1
        # (measured 0.967 for F at the reference pulse)
        tr = ref_buildup["F"]
        g1 = abs(tr.coherence[0]) / np.sqrt(tr.pop_j32_m12[0] * tr.pop_j12_m12[0])
        assert g1 == pytest.approx(0.967, abs=0.02)
        assert g1 < 1.0

    def test_f_coherence_growth_monotone(self, ref_buildup):
        # both quadratures of the F coherence grow monotonically within a
        # small tolerance (the early-time reversal is a few percent of the
        # final value); see the beat-phase convention note in the module
        tr = ref_buildup["F"]
        tol = 0.05 * abs(tr.coherence[-1])
        for comp in (tr.coherence.real, tr.coherence.imag):
            direction = np.sign(comp[-1] - comp[0])
            assert (direction * np.diff(comp) > -tol).all()

    def test_br_coherence_oscillates(self, ref_buildup):
        tr = ref_buildup["Br"]
        re = tr.coherence.real
        big = np.abs(re) > 1e-3 * np.abs(tr.coherence).max()
        signs = np.sign(re[big])
        assert (np.diff(signs) != 0).any()

    def test_field_overlay(self, ref_buildup, ref_pulse):
        tr = ref_buildup["F"]
        from sowp import units
        expected = [ref_pulse.electric_field(units.fs_to_au(t)) for t in tr.t_fs]
        assert np.allclose(tr.field, expected, rtol=0, atol=1e-14)

    def test_csv(self, ref_buildup, tmp_path, monkeypatch):
        # buildup.csv of the reference trace, as the CLI writes it
        monkeypatch.setattr(cli, "buildup", lambda *args, **kw: ref_buildup["F"])
        assert cli.main(["buildup", "--species", "f", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "buildup.csv").read_text().splitlines()
        assert lines[0] == "t_fs,element,re,im,abs,field"
        assert len(lines) == 1 + 4 * ref_buildup["F"].t_fs.size


def openblas_function(kind):
    """The ``kind`` ("get" or "set") thread-count function of the first
    OpenBLAS mapped into this process, or None if there is none (or no
    /proc/self/maps to find it by)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        return None
    for lib in map(ctypes.CDLL, paths):
        for name in workers._OPENBLAS_THREADS:
            if hasattr(lib, name.format(kind)):
                return getattr(lib, name.format(kind))
    return None


def openblas_threads():
    """The thread count of the first OpenBLAS mapped into this process, or
    None if there is none."""
    get = openblas_function("get")
    return None if get is None else get()


@pytest.fixture
def two_blas_threads():
    """OpenBLAS on two threads in the test, so that a pass that keeps one
    shows, and on its own count again after it."""
    get, put = openblas_function("get"), openblas_function("set")
    if get is None:
        pytest.skip("no OpenBLAS in this process")
    before = get()
    put(2)
    yield
    put(before)


def probe_blas_threads(monkeypatch, journal):
    """Each ``saddle_batch`` call of a pass appends (pid, OpenBLAS threads)
    to ``journal``, from whatever process makes it."""
    real = amplitude.saddle_batch

    def probe(*args, **kw):
        journal.append(os.getpid(), openblas_threads())
        return real(*args, **kw)

    monkeypatch.setattr(amplitude, "saddle_batch", probe)


class Journal:
    """Lines of fields appended by any process: each append is one write to
    a file opened with O_APPEND, so lines from several processes never
    mix."""

    def __init__(self, path):
        self.path = path

    def append(self, *fields):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, (" ".join(map(str, fields)) + "\n").encode())
        finally:
            os.close(fd)

    def read(self):
        """The lines appended so far, in order, each a tuple of strings."""
        if not self.path.exists():
            return []
        return [tuple(line.split()) for line in self.path.read_text().splitlines()]

    def clear(self):
        self.path.unlink(missing_ok=True)


@pytest.fixture
def journal(tmp_path):
    return Journal(tmp_path / "journal")


class TestCoherenceSweep:
    def test_small_sweep(self, species_f):
        pts, failures = coherence_sweep([species_f], 1800.0, 1.3e13,
                                        cycles=[2, 3], n_energy=64, n_theta=24)
        assert failures == []
        assert [p.n_cycles for p in pts] == [2, 3]
        tau_b = species_f.beat_period_fs
        for p in pts:
            assert p.ratio == pytest.approx(p.tau_fwhm_fs / tau_b, rel=1e-12)
            assert 0 < p.g <= 1
            assert p.w > 0

    def test_thread_determinism(self, species_f, species_cl):
        kw = dict(cycles=[2, 3], n_energy=48, n_theta=16)
        serial, _ = coherence_sweep([species_f, species_cl], 1800.0, 1.3e13, **kw)
        threaded, _ = coherence_sweep([species_f, species_cl], 1800.0, 1.3e13,
                                      threads=3, **kw)
        assert [(p.species, p.n_cycles) for p in serial] == \
               [(p.species, p.n_cycles) for p in threaded]
        for a, b in zip(serial, threaded):
            assert (a.g, a.w) == (b.g, b.w)

    def test_failures_collected(self, species_f, monkeypatch):
        real = analysis.build_density_matrix

        def flaky(pulse, species, grid):
            if pulse.n_cycles == 3:
                raise NumericalError("forced")
            return real(pulse, species, grid)

        monkeypatch.setattr(analysis, "build_density_matrix", flaky)
        pts, failures = coherence_sweep([species_f], 1800.0, 1.3e13,
                                        cycles=[2, 3, 4], n_energy=48,
                                        n_theta=16)
        assert [p.n_cycles for p in pts] == [2, 4]
        assert len(failures) == 1 and failures[0][1] == 3

    @pytest.mark.parametrize("threads", [1, 2])
    def test_programming_errors_propagate(self, species_f, monkeypatch, threads):
        def broken(group, lam, intensity, n, grid):
            if n == 3:
                raise TypeError("forced")
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", broken)
        with pytest.raises(TypeError, match="forced"):
            coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3, 4],
                            threads=threads)

    def test_longest_pulses_run_first(self, species_f, species_cl, monkeypatch):
        # one thread runs the jobs in submission order: descending N, one
        # job per N with its species in order; the points come back in
        # input order
        ran = []

        def recording(group, lam, intensity, n, grid):
            ran.extend((sp.name, n) for sp in group)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", recording)
        pts, failures = coherence_sweep([species_f, species_cl], 1800.0, 1.3e13,
                                        cycles=[3, 2, 5], threads=1)
        assert failures == []
        assert ran == [("F", 5), ("Cl", 5), ("F", 3), ("Cl", 3), ("F", 2), ("Cl", 2)]
        assert [(p.species, p.n_cycles) for p in pts] == [
            ("F", 3), ("F", 2), ("F", 5), ("Cl", 3), ("Cl", 2), ("Cl", 5)]

    def test_every_job_runs_once_on_more_threads_than_cores(
            self, species_f, species_cl, monkeypatch, journal, deadline):
        # eight processes on fewer cores share out 200 jobs: none is run
        # twice or lost, and the points come back in input order
        def recording(group, lam, intensity, n, grid):
            journal.append(n)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", recording)
        pts, failures = coherence_sweep(
            [species_f, species_cl], 1800.0, 1.3e13, cycles=range(1, 201),
            threads=8, n_energy=8, n_theta=3)
        assert failures == [] and sorted(int(n) for n, in journal.read()) == \
            list(range(1, 201))
        assert [(p.species, p.n_cycles) for p in pts] == [
            (name, n) for name in ("F", "Cl") for n in range(1, 201)]

    @pytest.mark.parametrize("threads, mine", [(2, [10, 7, 6, 3, 2]),
                                               (3, [10, 5, 4])])
    def test_caller_works_the_longest_job_first(self, species_f, monkeypatch,
                                                journal, threads, mine):
        # the jobs are dealt back and forth, so the calling process works
        # job 0, the longest pulse, and then its share in job order
        def recording(group, lam, intensity, n, grid):
            journal.append(os.getpid(), n)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", recording)
        coherence_sweep([species_f], 1800.0, 1.3e13, cycles=range(1, 11),
                        threads=threads)
        ran = journal.read()
        assert sorted(int(n) for _, n in ran) == list(range(1, 11))
        assert len({pid for pid, _ in ran}) == threads
        assert [int(n) for pid, n in ran if pid == str(os.getpid())] == mine

    def test_without_fork_the_caller_works_every_job(self, species_f, monkeypatch,
                                                     journal):
        def recording(group, lam, intensity, n, grid):
            journal.append(os.getpid(), n)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", recording)
        monkeypatch.delattr(os, "fork")
        points, _ = coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3, 4],
                                    threads=2)
        assert journal.read() == [(str(os.getpid()), n) for n in ("4", "3", "2")]
        assert [p.n_cycles for p in points] == [2, 3, 4]

    def test_processes_run_one_blas_thread(self, species_f, monkeypatch, journal,
                                           tmp_path, two_blas_threads):
        # idle OpenBLAS threads spin: every pass keeps one, in each sweep
        # process, and this one gets its own count back; so does a sweep
        # from the CLI, on one process too
        probe_blas_threads(monkeypatch, journal)
        coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3, 4], threads=2,
                        n_energy=8, n_theta=3)
        ran = journal.read()
        assert len({pid for pid, _ in ran}) == 2
        assert [threads for _, threads in ran] == ["1"] * 3
        assert openblas_threads() == 2
        journal.clear()
        assert cli.main(["sweep", "--species", "f", "--cycles", "2..3",
                         "--n-energy", "8", "--n-theta", "3", "--threads", "1",
                         "--out-dir", str(tmp_path / "out")]) == 0
        assert journal.read() == [(str(os.getpid()), "1")] * 2
        assert openblas_threads() == 2

    def test_library_pass_runs_one_blas_thread(self, ref_pulse, species_f, monkeypatch,
                                               journal, two_blas_threads):
        # the pass keeps one thread wherever it is called from, not only
        # under the CLI or in a forked worker
        probe_blas_threads(monkeypatch, journal)
        build_density_matrix(ref_pulse, species_f, MomentumGrid.build(ref_pulse.omega, 8, 3),
                             threads=1)
        assert journal.read() == [(str(os.getpid()), "1")]
        assert openblas_threads() == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pass_that_raises_gives_the_count_back(self, ref_pulse, species_f,
                                                   two_blas_threads, threads):
        seen = []

        def consume(nodes, rows):
            seen.append(openblas_threads())
            raise KeyError("consumer")

        with pytest.raises(KeyError, match="consumer"):
            amplitude.amplitude_profiles(ref_pulse, species_f, [0.1, 0.2], [0.3, 0.4],
                                         consume=consume, threads=threads)
        assert seen == [1] and openblas_threads() == 2

    def test_processes_keep_the_signal_mask(self, species_f, monkeypatch, journal):
        # a worker is forked with every signal blocked and unblocks them in
        # its try: its jobs, and this process after the fork, run with the
        # mask this process had
        before = signal.pthread_sigmask(signal.SIG_BLOCK, [])

        def recording(group, lam, intensity, n, grid):
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
            journal.append(os.getpid(), ",".join(str(int(s)) for s in sorted(mask)) or "-")
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", recording)
        coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3, 4], threads=2)
        want = ",".join(str(int(s)) for s in sorted(before)) or "-"
        ran = journal.read()
        assert len({pid for pid, _ in ran}) == 2
        assert [mask for _, mask in ran] == [want] * 3
        assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == before

    def test_first_error_in_job_order_is_raised(self, species_f, monkeypatch):
        # N = 4 (job 0, this process) and N = 3 (job 1, the worker) both
        # raise; the job order decides, not which process finishes first
        def broken(group, lam, intensity, n, grid):
            if n == 3:
                raise TypeError("N = 3")
            time.sleep(0.2)
            raise KeyError("N = 4")

        monkeypatch.setattr(analysis, "_sweep_pulse", broken)
        with pytest.raises(KeyError, match="N = 4"):
            coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[3, 4], threads=2)

    def test_worker_that_dies_is_named(self, species_f, monkeypatch, deadline):
        caller = os.getpid()

        def dying(group, lam, intensity, n, grid):
            if os.getpid() != caller:
                os._exit(1)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", dying)
        with pytest.raises(RuntimeError, match=r"sweep worker 1 ended with status 1 "
                           r"without the results of N = \[3, 2\]"):
            coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3, 4], threads=2)

    def test_unsendable_result_is_named(self, species_f, monkeypatch, capfd):
        # an error that pickle cannot send back: the worker says why on
        # stderr, and the caller names the jobs it lost
        def unsendable(group, lam, intensity, n, grid):
            if n == 2:
                raise ValueError(lambda: n)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", unsendable)
        with pytest.raises(RuntimeError, match=r"without the results of N = \[2\]"):
            coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3], threads=2)
        err = capfd.readouterr().err
        assert "Traceback" in err and "pickle" in err

    def test_interrupt_stops_the_workers(self, species_f, monkeypatch):
        # the caller is interrupted while it waits for a worker that would
        # run for a minute: the worker is stopped and reaped at once
        caller = os.getpid()

        def slow_elsewhere(group, lam, intensity, n, grid):
            if os.getpid() != caller:
                time.sleep(60)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(analysis, "_sweep_pulse", slow_elsewhere)
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.alarm(1)
            with pytest.raises(KeyboardInterrupt):
                coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3],
                                threads=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30

    def test_worker_warnings_reach_the_caller(self, species_f, monkeypatch):
        # N = 3 warns in this process, N = 2 in the worker: both reach
        # pytest.warns, with the text and location they were raised with
        def warning(group, lam, intensity, n, grid):
            warnings.warn(f"N = {n}", SaturationWarning)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", warning)
        with pytest.warns(SaturationWarning) as shown:
            coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3], threads=2)
        assert sorted(str(w.message) for w in shown) == ["N = 2", "N = 3"]
        assert len({(w.category, w.filename, w.lineno) for w in shown}) == 1
        assert shown[0].filename == __file__

    def test_worker_records_a_repeated_warning_once(self, species_f, monkeypatch):
        # every job warns alike: where one process shows it once, so does
        # each process of the sweep, the worker over its two jobs too
        def warning(group, lam, intensity, n, grid):
            warnings.warn("alike", SaturationWarning)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", warning)
        for threads, shows in ((1, 1), (2, 2)):
            with warnings.catch_warnings(record=True) as shown:
                warnings.simplefilter("default")
                coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3, 4],
                                threads=threads)
            assert [str(w.message) for w in shown] == ["alike"] * shows

    def test_one_job_per_pulse(self, species_f, species_cl, monkeypatch):
        # F and Cl share one job, and so one saddle pass, at every N
        jobs = []

        def recording(group, lam, intensity, n, grid):
            jobs.append((n, [sp.name for sp in group]))
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", recording)
        pts, failures = coherence_sweep([species_f, species_cl], 1800.0, 1.3e13,
                                        cycles=[2, 9], threads=1)
        assert failures == []
        assert jobs == [(9, ["F", "Cl"]), (2, ["F", "Cl"])]
        assert [(p.species, p.n_cycles) for p in pts] == [
            ("F", 2), ("F", 9), ("Cl", 2), ("Cl", 9)]

    def test_failing_species_leaves_its_group(self, species_f, species_cl,
                                              species_br, monkeypatch, journal):
        # every Cl j = 3/2 root is moved off its saddle by every Newton call,
        # re-seeds included: the grouped pass raises, so each species is
        # solved alone; F and Br keep their points, and Cl's error is the
        # one it raises alone, roots and all, also when a worker process
        # raised it (N = 2 on two processes)
        kw = dict(cycles=[2, 3], n_energy=24, n_theta=8)
        group = [species_f, species_cl, species_br]
        good, _ = coherence_sweep(group, 1800.0, 1.3e13, **kw)
        e_cl, newton = species_cl.e_bound(3), saddle._newton

        def off_for_cl(pu, e_bound, t, pz, pp2, **kwargs):
            roots = newton(pu, e_bound, t, pz, pp2, **kwargs)[0].copy()
            roots[np.broadcast_to(e_bound[..., 0] == e_cl, roots.shape[:-1]), 0] += 1e-4
            fields, f = saddle._evaluated(pu, e_bound, roots, pz, pp2)
            return (*fields, np.abs(f))

        batch = amplitude.saddle_batch

        def counting(pulse, e_bound, *args):
            journal.append(pulse.n_cycles, len(e_bound))
            return batch(pulse, e_bound, *args)

        monkeypatch.setattr(saddle, "_newton", off_for_cl)
        monkeypatch.setattr(amplitude, "saddle_batch", counting)
        alone = {}
        for n in (2, 3):
            pulse = Pulse.from_lab(1800.0, n, 1.3e13)
            grid = MomentumGrid.build(pulse.omega, n_energy=24, n_theta=8)
            with pytest.raises(SaddleError) as raised:
                build_density_matrix(pulse, species_cl, grid)
            alone[n] = raised.value
        journal.clear()
        for threads in (1, 2):
            points, failures = coherence_sweep(group, 1800.0, 1.3e13,
                                               threads=threads, **kw)
            passes = journal.read()
            for n in ("2", "3"):
                assert [int(k) for m, k in passes if m == n] == [6, 2, 2, 2]
            journal.clear()
            assert points == [good[0], good[1], good[4], good[5]]
            assert [(name, n) for name, n, _ in failures] == [("Cl", 2), ("Cl", 3)]
            for _, n, exc in failures:
                assert type(exc) is type(alone[n])
                assert str(exc) == str(alone[n])
                assert str(exc).startswith("saddle residual")
                np.testing.assert_array_equal(exc.roots, alone[n].roots)

    def test_no_worker_threads_rejected(self, species_f):
        # by the sweep and by every one-pulse entry point, before any pass
        pulse = Pulse.from_lab(1800.0, 2, 1.3e13)
        grid = MomentumGrid.build(pulse.omega, n_energy=8, n_theta=4)
        pz, pperp, _ = grid_nodes(grid)
        calls = [lambda t: coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2], threads=t),
                 lambda t: build_density_matrix(pulse, species_f, grid, threads=t),
                 lambda t: buildup(pulse, species_f, grid, threads=t),
                 lambda t: amplitude.amplitude_profiles(pulse, species_f, pz, pperp,
                                                        threads=t)]
        for call in calls:
            for threads in (0, -3):
                with pytest.raises(ValueError, match="threads must be at least 1"):
                    call(threads)

    def test_failing_fork_leaves_nothing_behind(self, species_f, monkeypatch):
        # os.fork raises: its error reaches the caller, and no child, pipe
        # end or file is left
        def failing():
            raise OSError(errno.EAGAIN, "forced")

        monkeypatch.setattr(os, "fork", failing)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="forced"):
            coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2, 3], threads=2,
                            n_energy=8, n_theta=4)
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cycles", [[2, 8.7], [np.nan]])
    def test_fractional_cycles_rejected(self, species_f, monkeypatch, cycles):
        # before any pulse runs
        monkeypatch.setattr(analysis, "_sweep_pulse", None)
        with pytest.raises(ValueError, match="cycle counts must be integers"):
            coherence_sweep([species_f], 1800.0, 1.3e13, cycles=cycles)

    def test_cycles_iterator_serves_every_species(self, species_f, species_cl,
                                                  monkeypatch):
        # a one-shot iterator is read once, for every species; the pulses
        # are listed, not solved
        def listed(species, wavelength_nm, intensity_wcm2, n_cycles, grid):
            return [SweepPoint(sp.name, n_cycles, 1.0, 1.0, 0.5, 0.1)
                    for sp in species]
        monkeypatch.setattr(analysis, "_sweep_pulse", listed)
        points, _ = coherence_sweep([species_f, species_cl], 1800.0, 1.3e13,
                                    cycles=iter([2, 3]))
        assert [(p.species, p.n_cycles) for p in points] == [
            ("F", 2), ("F", 3), ("Cl", 2), ("Cl", 3)]

    def test_default_cycles_mapping(self, species_f):
        with pytest.raises(ConfigError, match="Xq"):
            from sowp.species import Species
            weird = Species(name="Xq", ea_ev=3.0, splitting_cm1=500.0, b_au=1.0)
            coherence_sweep([weird], 1800.0, 1.3e13)


def _off_beyond(energy, p2_min):
    """A stand-in for saddle._newton that moves the first root of channel
    ``energy`` off its saddle at every node with p^2 > p2_min, re-seeds
    included: a pass of it fails the residual contract at the first row
    block that reaches p2_min, not before."""
    newton = saddle._newton

    def off(pu, e_bound, t, pz, pp2, **kwargs):
        roots = newton(pu, e_bound, t, pz, pp2, **kwargs)[0].copy()
        bad = (e_bound[..., 0] == energy) & (pz[..., 0] ** 2 + pp2[..., 0] > p2_min)
        roots[np.broadcast_to(bad, roots.shape[:-1]), 0] += 1e-4
        fields, f = saddle._evaluated(pu, e_bound, roots, pz, pp2)
        return (*fields, np.abs(f))
    return off


class TestChannelSplit:
    """threads=2: the first half of a pass's channels on this process, the
    rest on one forked worker, with the bits, errors and consumer calls of
    one process."""

    @staticmethod
    def coarse(n, n_theta=8):
        pulse = Pulse.from_lab(1800.0, n, 1.3e13)
        return pulse, MomentumGrid.build(pulse.omega, n_energy=24, n_theta=n_theta)

    @pytest.mark.parametrize("n, n_theta", [(1, 8), (2, 8), (8, 8), (18, 8), (8, 9)],
                             ids=["1", "2", "8", "18", "8-odd"])
    def test_matrix_and_buildup_bits(self, species_f, n, n_theta):
        # N = 1 aliases u into z's slot; an odd n_theta has a p_z = 0 line,
        # whose image this process forms for both processes' rows
        pulse, grid = self.coarse(n, n_theta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            one = build_density_matrix(pulse, species_f, grid)
            two = build_density_matrix(pulse, species_f, grid, threads=2)
            traces = [buildup(pulse, species_f, grid, threads=k) for k in (1, 2)]
        assert np.array_equal(one.matrix, two.matrix)
        for name in ("t_fs", "pop_j32_m32", "pop_j32_m12", "pop_j12_m12",
                     "coherence", "field"):
            assert np.array_equal(getattr(traces[0], name), getattr(traces[1], name))
        assert np.array_equal(traces[0].final.matrix, traces[1].final.matrix)

    def test_two_species_dealt_two_and_two(self, species_f, species_cl,
                                           monkeypatch, journal):
        pulse, grid = self.coarse(3)
        batch = amplitude.saddle_batch

        def counting(pulse, e_bound, *args):
            journal.append(os.getpid(), *np.ravel(e_bound))
            return batch(pulse, e_bound, *args)

        monkeypatch.setattr(amplitude, "saddle_batch", counting)
        one = build_density_matrix(pulse, [species_f, species_cl], grid)
        journal.clear()
        two = build_density_matrix(pulse, [species_f, species_cl], grid, threads=3)
        for a, b in zip(one, two):
            assert np.array_equal(a.matrix, b.matrix)
        passes = {pid: [float(e) for e in energies] for pid, *energies in journal.read()}
        assert passes.pop(str(os.getpid())) == [species_f.e_bound(3), species_f.e_bound(1)]
        assert list(passes.values()) == [[species_cl.e_bound(3), species_cl.e_bound(1)]]

    @pytest.mark.parametrize("cumulative", [False, True])
    def test_points_bits(self, species_f, cumulative, rng):
        pulse = Pulse.from_lab(1800.0, 4, 1.3e13)
        pz, pperp = rng.uniform(-0.5, 0.5, 37), rng.uniform(0.0, 0.5, 37)
        one, two = (amplitude.amplitude_profiles(pulse, species_f, pz, pperp,
                                                 cumulative=cumulative, threads=k)
                    for k in (1, 2))
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("cumulative", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sums_lie_in_the_lent_workspace(self, species_f, monkeypatch,
                                            threads, cumulative):
        # the rows each consumer call gets, and their images, lie in the
        # region that this process's saddle_batch block lends (on a grid
        # without a p_z = 0 line, whose images are left out by a copy); that
        # region lies in the workspace of this process's pass, the first it
        # makes, for its own channels; every workspace is arrays of this
        # process, as the worker's rows come through a pipe
        pulse, grid = self.coarse(8)
        pz, pperp, _ = grid_nodes(grid)
        batch, workspace = amplitude.saddle_batch, saddle._workspace
        lent, made, handed = [], [], []

        def lending(pulse, e_bound, pz, pperp2, consume):
            def seen(nodes, block):
                lent.append(block.spare)
                consume(nodes, block)
            return batch(pulse, e_bound, pz, pperp2, seen)

        def recording(n, deg):
            made.append((n, workspace(n, deg)))
            return made[-1][1]

        def consume(nodes, rows):
            handed.append(np.shares_memory(rows, lent[-1]))

        monkeypatch.setattr(amplitude, "saddle_batch", lending)
        monkeypatch.setattr(saddle, "_workspace", recording)
        amplitude.amplitude_profiles(pulse, species_f, pz, pperp, cumulative,
                                     consume, threads)
        assert len(handed) == 2 * len(lent) > 0 and all(handed)
        (n, buffers), *_ = made
        # the largest block: ROW_BLOCK_ROWS rows of the solved lines, or as
        # many as hold ROW_BLOCK_ROOTS roots per channel
        solved = saddle._solved_lines(pz, pperp ** 2)
        rows = min(saddle.ROW_BLOCK_ROWS, saddle.ROW_BLOCK_ROOTS // (solved * 18))
        assert n == (3 - threads) * min(rows, pz.shape[0]) * solved
        assert np.shares_memory(buffers[0], lent[-1])
        assert all(type(b) is np.ndarray and b.base is None for _, bs in made for b in bs)

    @pytest.mark.parametrize("pipe", ["raised", "default"])
    def test_rows_larger_than_a_default_pipe(self, species_f, monkeypatch,
                                             deadline, pipe):
        # F N = 18 build-up on 16 angles: the worker's rows of a block
        # (97 280 bytes) fill more than a pipe of Linux's default 2**16
        # bytes, which stays as it is where its size cannot be set
        import fcntl
        if pipe == "default":
            monkeypatch.delattr(fcntl, "F_SETPIPE_SZ", raising=False)
        pulse, grid = self.coarse(18, n_theta=16)
        pz, pperp, _ = grid_nodes(grid)
        solved = saddle._solved_lines(pz, pperp ** 2)
        rows = min(saddle.ROW_BLOCK_ROWS, saddle.ROW_BLOCK_ROOTS // (solved * 38))
        assert 2 * min(rows, pz.shape[0]) * solved * 38 * 16 > 1 << 16
        traces = [buildup(pulse, species_f, grid, threads=k) for k in (1, 2)]
        for name in ("pop_j32_m32", "pop_j32_m12", "pop_j12_m12", "coherence"):
            assert np.array_equal(getattr(traces[0], name), getattr(traces[1], name))
        assert np.array_equal(traces[0].final.matrix, traces[1].final.matrix)

    @pytest.mark.parametrize("j2", [3, 1], ids=["caller", "worker"])
    def test_failure_parity(self, species_f, monkeypatch, deadline, j2):
        # only E_3/2 (this process) or only E_1/2 (the worker) fails, from
        # the fifth row block on: the error and the blocks that reach the
        # consumer are those of one process
        pulse, grid = self.coarse(2)
        pz, pperp, _ = grid_nodes(grid)
        monkeypatch.setattr(saddle, "_newton", _off_beyond(
            species_f.e_bound(j2), grid.p_nodes[15] ** 2))
        seen = {}
        for threads in (1, 2):
            blocks = []

            def recording(nodes, rows):
                blocks.append((np.asarray(nodes).tolist(), rows.copy()))

            with pytest.raises(SaddleError) as raised:
                amplitude.amplitude_profiles(pulse, species_f, pz, pperp,
                                             consume=recording, threads=threads)
            seen[threads] = raised.value, blocks
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        (one, blocks_one), (two, blocks_two) = seen[1], seen[2]
        assert type(two) is type(one) and str(two) == str(one)
        assert str(one).startswith("saddle residual")
        assert f"e_bound = {species_f.e_bound(j2):.8g}" in str(one)
        np.testing.assert_array_equal(two.roots, one.roots)
        assert 0 < len(blocks_one) < 2 * len(grid.p_nodes)
        assert [nodes for nodes, _ in blocks_two] == [nodes for nodes, _ in blocks_one]
        for (_, a), (_, b) in zip(blocks_one, blocks_two):
            assert np.array_equal(a, b)

    def test_worker_that_dies_is_named(self, species_f, monkeypatch, deadline):
        caller, newton = os.getpid(), saddle._newton

        def dying(*args, **kwargs):
            if os.getpid() != caller:
                os._exit(1)
            return newton(*args, **kwargs)

        pulse, grid = self.coarse(2)
        monkeypatch.setattr(saddle, "_newton", dying)
        with pytest.raises(RuntimeError, match=rf"worker of e_bound = "
                           rf"\[{species_f.e_bound(1)!r}\] ended with status 1"):
            build_density_matrix(pulse, species_f, grid, threads=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_dies_within_a_block_is_named(self, species_f,
                                                      monkeypatch, deadline):
        # the worker writes half of its fourth block's rows and dies: the
        # blocks before it reach the consumer as on one process, that block
        # and no later one, and the error names the worker's channels
        caller, write = os.getpid(), os.write
        pulse, grid = self.coarse(2)
        pz, pperp, _ = grid_nodes(grid)
        seen = {}
        for threads in (1, 2):
            blocks, writes = [], []

            def dying(fd, data):
                if os.getpid() != caller:
                    writes.append(fd)   # in the worker's memory
                    if len(writes) == 4:
                        write(fd, data[:len(data) // 2])
                        os._exit(1)
                return write(fd, data)

            def recording(nodes, rows):
                blocks.append((np.asarray(nodes).tolist(), rows.copy()))

            monkeypatch.setattr(os, "write", dying)
            if threads == 1:
                amplitude.amplitude_profiles(pulse, species_f, pz, pperp,
                                             consume=recording)
            else:
                with pytest.raises(RuntimeError, match=rf"worker of e_bound = "
                                   rf"\[{species_f.e_bound(1)!r}\] ended with status 1"):
                    amplitude.amplitude_profiles(pulse, species_f, pz, pperp,
                                                 consume=recording, threads=2)
            seen[threads] = blocks
        # each block reaches the consumer as its rows and their mirror images
        assert len(seen[2]) == 2 * 3 < len(seen[1])
        for (nodes_one, a), (nodes_two, b) in zip(seen[1], seen[2]):
            assert nodes_two == nodes_one and np.array_equal(a, b)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_caller_failure_with_the_worker_on_a_full_pipe(self, species_f,
                                                          monkeypatch, deadline):
        # E_3/2 (this process) fails from the second row on, F N = 18
        # build-up sums on 16 angles: the worker's rows of the blocks from
        # there on fill its pipe, left at Linux's default size, which this
        # process no longer reads; the error and the blocks that reach the
        # consumer are those of one process, and the worker is stopped
        import fcntl
        monkeypatch.delattr(fcntl, "F_SETPIPE_SZ", raising=False)
        pipe, sizes = os.pipe, []

        def sized():
            read, write = pipe()
            sizes.append(fcntl.fcntl(write, fcntl.F_GETPIPE_SZ))
            return read, write

        monkeypatch.setattr(os, "pipe", sized)
        pulse, grid = self.coarse(18, n_theta=16)
        pz, pperp, _ = grid_nodes(grid)
        monkeypatch.setattr(saddle, "_newton", _off_beyond(
            species_f.e_bound(3), grid.p_nodes[1] ** 2))
        seen = {}
        for threads in (1, 2):
            blocks = []

            def recording(nodes, rows):
                blocks.append((np.asarray(nodes).tolist(), rows.copy()))

            with pytest.raises(SaddleError) as raised:
                amplitude.amplitude_profiles(pulse, species_f, pz, pperp, cumulative=True,
                                             consume=recording, threads=threads)
            seen[threads] = str(raised.value), blocks
        (one, blocks_one), (two, blocks_two) = seen[1], seen[2]
        assert two == one and f"e_bound = {species_f.e_bound(3):.8g}" in one
        assert len(blocks_two) == len(blocks_one) == 2  # row 0 and its image
        # the premise: the worker's rows after row 0 (two sums of its
        # channel per solved node) exceed every pipe of the split
        after = (pz.shape[0] - 1) * 2 * saddle._solved_lines(pz, pperp ** 2) * 38 * 16
        assert sizes and after > max(sizes)
        for (nodes_one, a), (nodes_two, b) in zip(blocks_one, blocks_two):
            assert nodes_two == nodes_one and np.array_equal(a, b)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unsendable_error_is_named(self, species_f, monkeypatch, capfd, deadline):
        # an error of the worker's pass that pickle cannot send back: the
        # worker says why on stderr, and this process names its channels
        caller, newton = os.getpid(), saddle._newton

        def unsendable(*args, **kwargs):
            if os.getpid() != caller:
                raise ValueError(lambda: 0)
            return newton(*args, **kwargs)

        pulse, grid = self.coarse(2)
        monkeypatch.setattr(saddle, "_newton", unsendable)
        with pytest.raises(RuntimeError, match=rf"worker of e_bound = "
                           rf"\[{species_f.e_bound(1)!r}\] ended with status 1"):
            build_density_matrix(pulse, species_f, grid, threads=2)
        err = capfd.readouterr().err
        assert "Traceback" in err and "pickle" in err

    def test_error_larger_than_a_pipe_comes_back(self, species_f, monkeypatch,
                                                 deadline):
        # the worker's error fills more than a pipe's buffer: it ends its
        # handshake first, so this process, waiting there, goes on to read it
        caller, newton = os.getpid(), saddle._newton
        payload = bytes(range(256)) * 4096

        def failing(*args, **kwargs):
            if os.getpid() != caller:
                raise ValueError(payload)
            return newton(*args, **kwargs)

        pulse, grid = self.coarse(2)
        monkeypatch.setattr(saddle, "_newton", failing)
        with pytest.raises(ValueError) as raised:
            build_density_matrix(pulse, species_f, grid, threads=2)
        assert raised.value.args == (payload,)

    def test_failing_fork_leaves_nothing_behind(self, species_f, monkeypatch):
        def failing():
            raise OSError(errno.EAGAIN, "forced")

        pulse, grid = self.coarse(2)
        monkeypatch.setattr(os, "fork", failing)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="forced"):
            build_density_matrix(pulse, species_f, grid, threads=2)
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_this_process_runs_the_pass(self, species_f, monkeypatch,
                                                     journal):
        # as the sweep's test_without_fork_the_caller_works_every_job: one
        # pass of both channels here, with the bits of threads=1
        pulse, grid = self.coarse(2)
        one = build_density_matrix(pulse, species_f, grid)
        batch = amplitude.saddle_batch

        def counting(pulse, e_bound, *args):
            journal.append(os.getpid(), len(e_bound))
            return batch(pulse, e_bound, *args)

        monkeypatch.setattr(amplitude, "saddle_batch", counting)
        monkeypatch.delattr(os, "fork")
        two = build_density_matrix(pulse, species_f, grid, threads=2)
        assert journal.read() == [(str(os.getpid()), "2")]
        assert np.array_equal(one.matrix, two.matrix)

    def test_worker_warnings_reach_the_caller(self, species_f, monkeypatch):
        # a warning in each process's pass: both reach pytest.warns, the
        # worker's with the text and location it was raised with
        caller, newton = os.getpid(), saddle._newton

        def warning(*args, **kwargs):
            warnings.warn("caller" if os.getpid() == caller else "worker",
                          SaturationWarning)
            return newton(*args, **kwargs)

        pulse, grid = self.coarse(2)
        monkeypatch.setattr(saddle, "_newton", warning)
        with pytest.warns(SaturationWarning) as shown:
            build_density_matrix(pulse, species_f, grid, threads=2)
        assert {str(w.message) for w in shown} == {"caller", "worker"}
        line = warning.__code__.co_firstlineno + 1
        assert {(w.filename, w.lineno) for w in shown} == {(__file__, line)}

    def test_interrupt_stops_the_worker(self, species_f, monkeypatch):
        # this process is interrupted while it waits for a worker that
        # would run for a minute: the worker is stopped and reaped at once
        caller, newton = os.getpid(), saddle._newton

        def slow_elsewhere(*args, **kwargs):
            if os.getpid() != caller:
                time.sleep(60)
            return newton(*args, **kwargs)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        pulse, grid = self.coarse(2)
        monkeypatch.setattr(saddle, "_newton", slow_elsewhere)
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.alarm(1)
            with pytest.raises(KeyboardInterrupt):
                buildup(pulse, species_f, grid, threads=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_sweep_jobs_do_not_split(self, monkeypatch, journal, tmp_path):
        # a sweep on two processes runs one pass per job, each with both
        # channels: no job forks again, which would oversubscribe the cores
        batch = amplitude.saddle_batch

        def counting(pulse, e_bound, *args):
            journal.append(os.getpid(), pulse.n_cycles, len(e_bound))
            return batch(pulse, e_bound, *args)

        monkeypatch.setattr(amplitude, "saddle_batch", counting)
        assert cli.main(["sweep", "--species", "f", "--cycles", "2..5", "--n-energy",
                         "24", "--n-theta", "8", "--threads", "2",
                         "--out-dir", str(tmp_path)]) == 0
        passes = journal.read()
        assert sorted(int(n) for _, n, _ in passes) == [2, 3, 4, 5]
        assert [channels for _, _, channels in passes] == ["2"] * 4
        assert len({pid for pid, _, _ in passes}) == 2


class TestCsvRoundTrips:
    def test_sweep_csv(self, tmp_path, monkeypatch):
        pts = [SweepPoint("F", 2, 4.371, 0.053, 0.88, 0.0619),
               SweepPoint("Br", 8, 17.484, 1.932, 0.0212, 0.531)]
        # sweep.csv of these points, as the CLI writes it
        monkeypatch.setattr(cli, "coherence_sweep", lambda *args, **kw: (pts, []))
        assert cli.main(["sweep", "--species", "f", "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv", encoding="utf-8") as buf:
            back = read_sweep_csv(buf)
        assert back == pts

    def test_sweep_csv_header_check(self):
        with pytest.raises(ValueError):
            read_sweep_csv(io.StringIO("a,b,c\n"))

    def test_fit_csv(self, tmp_path, monkeypatch):
        # fit.csv of this fit, as the CLI writes it
        monkeypatch.setattr(cli, "gaussian_fit",
                            lambda points: FitResult(g0=0.89, zeta=1.15, rms=0.012))
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("species,n_cycles,tau_fwhm_fs,ratio,g,w\n")
        assert cli.main(["fit", "--sweep-csv", str(sweep),
                         "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "fit.csv").read_text().splitlines()
        assert lines[0] == "g0,zeta,rms"
        vals = [float(x) for x in lines[1].split(",")]
        assert vals == [0.89, 1.15, 0.012]
