import io
import sys
import threading
import warnings

import numpy as np
import pytest

import sowp.analysis as analysis
from sowp import amplitude, saddle
from sowp.analysis import (BuildupTrace, FitResult, SweepPoint, buildup,
                           coherence_sweep, gaussian_fit, invert_g, predict_g,
                           read_sweep_csv, write_fit_csv, write_sweep_csv)
from sowp.densmat import (MomentumGrid, build_density_matrix, coherence_degree,
                          family)
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

    def test_csv(self, ref_buildup, tmp_path):
        path = tmp_path / "buildup.csv"
        with open(path, "w") as fh:
            ref_buildup["F"].write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_fs,element,re,im,abs,field"
        assert len(lines) == 1 + 4 * ref_buildup["F"].t_fs.size


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
        real = analysis._sweep_pulse

        def flaky(group, lam, intensity, n, grid):
            if n == 3:
                raise NumericalError("forced")
            return real(group, lam, intensity, n, grid)

        monkeypatch.setattr(analysis, "_sweep_pulse", flaky)
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
            self, species_f, species_cl, monkeypatch):
        # eight workers switching every microsecond take 200 jobs from one
        # shared iterator: none is taken twice or lost, and the points come
        # back in input order
        ran, swept = [], []

        def recording(group, lam, intensity, n, grid):
            ran.append(n)
            return [SweepPoint(sp.name, n, 1.0, 0.1, 0.5, 0.01) for sp in group]

        monkeypatch.setattr(analysis, "_sweep_pulse", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: swept.append(coherence_sweep(
                [species_f, species_cl], 1800.0, 1.3e13, cycles=range(1, 201),
                threads=8, n_energy=8, n_theta=3)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and swept
        pts, failures = swept[0]
        assert failures == [] and sorted(ran) == list(range(1, 201))
        assert [(p.species, p.n_cycles) for p in pts] == [
            (name, n) for name in ("F", "Cl") for n in range(1, 201)]

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
                                              species_br, monkeypatch):
        # every Cl j = 3/2 root is moved off its saddle by every Newton call,
        # re-seeds included: the grouped pass raises, so each species is
        # solved alone; F and Br keep their points, and Cl's error is the
        # one it raises alone
        kw = dict(cycles=[2], n_energy=24, n_theta=8)
        group = [species_f, species_cl, species_br]
        good, _ = coherence_sweep(group, 1800.0, 1.3e13, **kw)
        e_cl, newton = species_cl.e_bound(3), saddle._newton

        def off_for_cl(pu, e_bound, t, pz, pp2, **kwargs):
            roots = newton(pu, e_bound, t, pz, pp2, **kwargs)[0].copy()
            roots[np.broadcast_to(e_bound[..., 0] == e_cl, roots.shape[:-1]), 0] += 1e-4
            fields, f = saddle._evaluated(pu, e_bound, roots, pz, pp2)
            return (*fields, np.abs(f))

        passes, batch = [], amplitude.saddle_batch

        def counting(pulse, e_bound, *args):
            passes.append(len(e_bound))
            return batch(pulse, e_bound, *args)

        monkeypatch.setattr(saddle, "_newton", off_for_cl)
        monkeypatch.setattr(amplitude, "saddle_batch", counting)
        points, failures = coherence_sweep(group, 1800.0, 1.3e13, **kw)
        assert passes == [6, 2, 2, 2]
        assert points == [good[0], good[2]]
        [(name, n, exc)] = failures
        assert (name, n) == ("Cl", 2)
        pulse = Pulse.from_lab(1800.0, 2, 1.3e13)
        grid = MomentumGrid.build(pulse.omega, n_energy=24, n_theta=8)
        with pytest.raises(SaddleError) as alone:
            build_density_matrix(pulse, species_cl, grid)
        assert type(exc) is type(alone.value)
        assert str(exc) == str(alone.value)
        assert str(exc).startswith("saddle residual")
        np.testing.assert_array_equal(exc.roots, alone.value.roots)

    def test_no_worker_threads_rejected(self, species_f):
        with pytest.raises(ValueError):
            coherence_sweep([species_f], 1800.0, 1.3e13, cycles=[2], threads=0)

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


class TestCsvRoundTrips:
    def test_sweep_csv(self):
        pts = [SweepPoint("F", 2, 4.371, 0.053, 0.88, 0.0619),
               SweepPoint("Br", 8, 17.484, 1.932, 0.0212, 0.531)]
        buf = io.StringIO()
        write_sweep_csv(pts, buf)
        buf.seek(0)
        back = read_sweep_csv(buf)
        assert back == pts

    def test_sweep_csv_header_check(self):
        with pytest.raises(ValueError):
            read_sweep_csv(io.StringIO("a,b,c\n"))

    def test_fit_csv(self):
        buf = io.StringIO()
        write_fit_csv(FitResult(g0=0.89, zeta=1.15, rms=0.012), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "g0,zeta,rms"
        vals = [float(x) for x in lines[1].split(",")]
        assert vals == [0.89, 1.15, 0.012]
