import tracemalloc
from math import pi

import numpy as np
import pytest

from scalar_oracle import (action, alternating_sign, amplitude_set,
                           channel_amplitudes, complex_sph_harmonic,
                           detachment_amplitude)
from sowp import amplitude, analysis, densmat, saddle
from sowp.amplitude import CHANNELS, amplitude_profiles, clebsch_gordan
from sowp.analysis import buildup
from sowp.errors import DegenerateSaddleError, SaddleError
from sowp.pulse import Pulse, expi
from sowp.densmat import MomentumGrid, build_density_matrix, grid_nodes
from sowp.saddle import SaddleBatch, SaddlePoint, find_saddles, saddle_batch
from sowp.species import Species, get_species

SQ34 = np.sqrt(3.0 / (4.0 * np.pi))
SQ38 = np.sqrt(3.0 / (8.0 * np.pi))


def cg_bruteforce(l):
    """Oracle: diagonalize J^2 = (L+S)^2 in the |m_l, m_s> product basis
    (s = 1/2) and fix signs by making the highest-m_l component of each
    eigenvector positive, which reproduces the Condon-Shortley convention.

    Returns {(j2, m2): {(ml, ms2): coeff}}.
    """
    mls = range(-l, l + 1)
    basis = [(ml, ms2) for ml in mls for ms2 in (1, -1)]
    dim = len(basis)
    j2mat = np.zeros((dim, dim))
    for a, (ml, ms2) in enumerate(basis):
        j2mat[a, a] = l * (l + 1) + 0.75 + 2 * ml * (ms2 / 2)
        # L+ S- maps |ml, up> to |ml+1, down>; L- S+ is its adjoint
        if ms2 == 1 and ml + 1 <= l:
            b = basis.index((ml + 1, -1))
            amp = np.sqrt(l * (l + 1) - ml * (ml + 1))  # L+ on |l, ml>
            j2mat[b, a] += amp
            j2mat[a, b] += amp
    out = {}
    for m2 in range(-(2 * l + 1), 2 * l + 2, 2):
        idx = [i for i, (ml, ms2) in enumerate(basis) if 2 * ml + ms2 == m2]
        sub = j2mat[np.ix_(idx, idx)]
        vals, vecs = np.linalg.eigh(sub)
        for val, vec in zip(vals, vecs.T):
            j2 = int(round(np.sqrt(4 * val + 1) - 1))  # j(j+1) -> doubled j
            top = max(range(len(idx)), key=lambda k: basis[idx[k]][0])
            if vec[top] < 0:
                vec = -vec
            out[(j2, m2)] = {basis[i]: float(v) for i, v in zip(idx, vec)}
    return out


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(3, 3, 1) == 1.0

    def test_closed_form_values(self):
        assert clebsch_gordan(3, 1, 1) == pytest.approx(
            np.sqrt(2.0 / 3.0), rel=1e-15)
        assert clebsch_gordan(1, 1, 1) == pytest.approx(
            -np.sqrt(1.0 / 3.0), rel=1e-15)

    # the package couples only the np shell (l = 1)
    @pytest.mark.parametrize("l", [1])
    def test_against_bruteforce(self, l):
        table = cg_bruteforce(l)
        for (j2, m2), coeffs in table.items():
            for (ml, ms2), expected in coeffs.items():
                assert 2 * ml + ms2 == m2
                got = clebsch_gordan(j2, m2, ms2)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_column_orthonormality(self):
        for m2 in (-1, 1):
            for j2a in (1, 3):
                for j2b in (1, 3):
                    total = sum(clebsch_gordan(j2a, m2, ms2)
                                * clebsch_gordan(j2b, m2, ms2)
                                for ms2 in (-1, 1))
                    assert total == pytest.approx(1.0 if j2a == j2b else 0.0,
                                                  abs=1e-12)

    def test_selection_rule_returns_zero(self):
        # |m_l| = 2 and |m| > j
        assert clebsch_gordan(3, 3, -1) == 0.0
        assert clebsch_gordan(3, -3, 1) == 0.0
        assert clebsch_gordan(1, 3, 1) == 0.0


class TestSphericalHarmonic:
    def test_north_pole(self):
        assert complex_sph_harmonic(0, (0.0, 0.0, 1.0), 1.0) == pytest.approx(
            SQ34, rel=1e-15)

    def test_matches_angular_form(self, rng):
        for _ in range(25):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            v = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                 np.cos(theta))
            assert complex_sph_harmonic(0, v, 1.0) == pytest.approx(
                SQ34 * np.cos(theta), abs=1e-12)
            assert complex_sph_harmonic(1, v, 1.0) == pytest.approx(
                -SQ38 * np.sin(theta) * np.exp(1j * phi), abs=1e-12)
            assert complex_sph_harmonic(-1, v, 1.0) == pytest.approx(
                SQ38 * np.sin(theta) * np.exp(-1j * phi), abs=1e-12)

    def test_saddle_norm_consistency(self, ref_pulse, species_f):
        # at a saddle v.v = -kappa^2; with norm i kappa the harmonics obey
        # sum_ml |Y|^2 = (3/4pi) (v.conj(v)) / kappa^2
        kappa = species_f.kappa(3)
        p = (0.11, -0.07, 0.23)
        for sp in find_saddles(ref_pulse, species_f.e_bound(3), p):
            v = (p[0], p[1], p[2] + ref_pulse.vector_potential(sp.t))
            assert v[2] ** 2 + p[0] ** 2 + p[1] ** 2 == pytest.approx(
                -kappa ** 2, rel=1e-9)
            total = sum(abs(complex_sph_harmonic(ml, v, 1j * kappa)) ** 2
                        for ml in (-1, 0, 1))
            vv = abs(v[0]) ** 2 + abs(v[1]) ** 2 + abs(v[2]) ** 2
            assert total == pytest.approx(3 / (4 * np.pi) * vv / kappa ** 2,
                                          rel=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateSaddleError):
            complex_sph_harmonic(0, (0.0, 0.0, 1.0), 0.0)


class TestAlternatingSign:
    def test_odd_l_alternates(self):
        assert [alternating_sign(mu, 1) for mu in (1, 2, 3, 4)] == [1, -1, 1, -1]

    def test_even_l_constant(self):
        assert all(alternating_sign(mu, 0) == 1 for mu in range(1, 9))
        assert all(alternating_sign(mu, 2) == 1 for mu in range(1, 9))

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            alternating_sign(0, 1)


class TestDetachmentAmplitude:
    def test_forbidden_ml(self, ref_pulse, species_f):
        saddles = find_saddles(ref_pulse, species_f.e_bound(3), (0.0, 0.0, 0.1))
        amp = detachment_amplitude(ref_pulse, species_f, 1.5, 1.5, -0.5,
                                   (0.0, 0.0, 0.1), saddles)
        assert amp == 0.0

    def test_axial_emission_only_ml0(self, ref_pulse, species_f):
        profs = channel_amplitudes(amplitude_profiles(
            ref_pulse, species_f, np.array([0.05, 0.2]), np.array([0.0, 0.0])))
        for (j2, m2, ms2), vals in profs.items():
            if abs(m2 - ms2) == 2:   # |m_l| = 1
                assert np.abs(vals).max() == 0.0
            else:
                assert np.abs(vals).min() > 0.0

    def test_matches_vectorized_profiles(self, ref_pulse, species_f):
        # the literal alternating-sign times alternating-branch composition
        # must equal the fixed-norm fast path
        pz, pperp = 0.21, 0.13
        profs = channel_amplitudes(amplitude_profiles(
            ref_pulse, species_f, np.array([pz]), np.array([pperp])))
        for (j2, m2, ms2), vals in profs.items():
            saddles = find_saddles(ref_pulse, species_f.e_bound(j2),
                                   (pperp, 0.0, pz))
            lit = detachment_amplitude(ref_pulse, species_f, j2 / 2, m2 / 2,
                                       ms2 / 2, (pperp, 0.0, pz), saddles)
            assert lit == pytest.approx(complex(vals[0]), rel=1e-12)

    def test_matches_cumulative_line_profiles(self, ref_pulse, species_f):
        # the same oracle on the build-up path, over 2-D lines (continued
        # and mirrored saddles): partial sum k is the literal amplitude over
        # the first k saddles in order of Re t, and the last partial sum is
        # the summed profile
        grid = MomentumGrid.build(ref_pulse.omega, n_energy=12, n_theta=4)
        pz, pperp, _ = grid_nodes(grid)
        cumulative = channel_amplitudes(amplitude_profiles(
            ref_pulse, species_f, pz, pperp, cumulative=True))
        summed = channel_amplitudes(amplitude_profiles(ref_pulse, species_f,
                                                       pz, pperp))
        for j2 in (3, 1):
            batch = saddle_batch(ref_pulse, species_f.e_bound(j2), pz,
                                 pperp * pperp)
            for node in np.ndindex(pz.shape):
                saddles = [SaddlePoint(mu=k + 1, t=complex(batch.t[node][k]),
                                       action=complex(batch.action[node][k]),
                                       s2=complex(batch.s2[node][k]),
                                       prefactor=complex(batch.prefactor[node][k]))
                           for k in range(batch.t.shape[-1])]
                p = (pperp[node], 0.0, pz[node])
                for (jj2, m2, ms2), vals in cumulative.items():
                    if jj2 != j2:
                        continue
                    for k, val in enumerate(vals[node], start=1):
                        lit = detachment_amplitude(ref_pulse, species_f, j2 / 2,
                                                   m2 / 2, ms2 / 2, p, saddles[:k])
                        assert lit == pytest.approx(complex(val), rel=1e-12)
        for key, vals in cumulative.items():
            np.testing.assert_allclose(vals[..., -1], summed[key], rtol=1e-14,
                                       atol=0, err_msg=str(key))

    def test_azimuthal_phase(self, ref_pulse, species_f):
        # rotating p about z multiplies each m_l component by exp(i m_l phi)
        pz, pperp, phi0 = 0.15, 0.2, 1.234
        base = amplitude_set(ref_pulse, species_f, (pperp, 0.0, pz))
        rot = amplitude_set(ref_pulse, species_f,
                            (pperp * np.cos(phi0), pperp * np.sin(phi0), pz))
        for (j2, m2, ms2), val in base.values.items():
            ml = (m2 - ms2) // 2
            assert rot.values[(j2, m2, ms2)] == pytest.approx(
                val * np.exp(1j * ml * phi0), rel=1e-10, abs=1e-14)

    def test_reflection_symmetry(self, ref_pulse, species_f, rng):
        # |A^{j m}_{m_s}| = |A^{j -m}_{-m_s}| at p_y = 0 (reflection in the
        # xz-plane)
        for _ in range(4):
            pz = rng.uniform(-0.5, 0.5)
            pperp = rng.uniform(0.0, 0.5)
            profs = channel_amplitudes(amplitude_profiles(
                ref_pulse, species_f, np.array([pz]), np.array([pperp])))
            for (j2, m2, ms2), vals in profs.items():
                mirror = profs[(j2, -m2, -ms2)]
                assert abs(vals[0]) == pytest.approx(abs(mirror[0]), rel=1e-12)

    def test_linear_in_b(self, ref_pulse, species_f):
        doubled = Species(name="F2B", ea_ev=species_f.ea_ev,
                          splitting_cm1=species_f.splitting_cm1,
                          b_au=2 * species_f.b_au, l=1)
        p = np.array([0.3]), np.array([0.1])
        a1 = channel_amplitudes(amplitude_profiles(ref_pulse, species_f, *p))
        a2 = channel_amplitudes(amplitude_profiles(ref_pulse, doubled, *p))
        for key in a1:
            assert a2[key][0] == pytest.approx(2 * a1[key][0], rel=1e-14)


# --- the streamed final pass --------------------------------------------------

def batch_sums(pulse, species, pz, pperp, cumulative):
    """The four saddle sums rebuilt from whole-batch SaddleBatch fields, in
    the operation order of amplitude_profiles.  At p_z = 0 one saddle lies
    on the edge Re t = 0 of the strip, which also holds it as Re t = tau_p:
    there the sums are the mean of the two root sets, the edge saddle first
    in one and, moved by tau_p, last in the other."""
    deg = 2 * pulse.n_cycles + 2
    # the sums as amplitude_profiles takes them: one product with ones, or
    # for the partial sums with the upper triangle of ones
    summing = (np.triu(np.ones((deg, deg), dtype=complex)) if cumulative
               else np.ones(deg, dtype=complex))

    def saddle_sum(a, axis):
        return a @ summing

    pperp_ = pperp[..., None] if cumulative else pperp
    centre = pz == 0
    rows = []
    for j2 in (3, 1):
        batch = saddle_batch(pulse, species.e_bound(j2), pz, pperp * pperp)
        core = expi(batch.action) * batch.prefactor
        vz = batch.vz
        if centre.any():
            t, c, vz_c = batch.t[centre], core[centre], vz[centre]
            first = t.real[:, 0] < pulse.tau_p - t.real[:, -1]
            edge = np.where(first, 0, -1)
            at = np.arange(len(t)), edge
            moved = t[at] + np.where(first, pulse.tau_p, -pulse.tau_p)
            c_moved = expi(saddle._action_terms(
                pulse, moved, 0.0, (pperp * pperp)[centre],
                species.e_bound(j2))) * batch.prefactor[centre][at]
            other_c = np.where(first[:, None], np.roll(c, -1, axis=-1),
                               np.roll(c, 1, axis=-1))
            other_vz = np.where(first[:, None], np.roll(vz_c, -1, axis=-1),
                                np.roll(vz_c, 1, axis=-1))
            other_c[np.arange(len(t)), np.where(first, -1, 0)] = c_moved
        scale = -((2.0 * pi) ** 1.5) * species.b_au / (1j * species.kappa(j2))
        pair = [saddle_sum(core * vz, axis=-1) * scale,
                saddle_sum(core, axis=-1) * pperp_ * scale]
        if centre.any():
            others = (saddle_sum(other_c * other_vz, axis=-1) * scale,
                      saddle_sum(other_c, axis=-1) * pperp_[centre] * scale)
            for row, other in zip(pair, others):
                row[centre] = 0.5 * (row[centre] + other)
        rows += pair
    return np.array(rows)


def flat_derivative_at(monkeypatch, target):
    """Make A'(t), and so S'', exactly zero at the root ``target``."""
    derivative = Pulse.vector_potential_derivative

    def flat(self, t, **kwargs):
        return np.where(t == target, 0.0, derivative(self, t, **kwargs))

    monkeypatch.setattr(Pulse, "vector_potential_derivative", flat)


class TestStreamedFinalPass:
    """amplitude_profiles adds each evaluated block of saddle_batch into its
    sums; the SaddleBatch fields are the reference it must equal."""

    @pytest.fixture(scope="class")
    def coarse(self):
        return {n: Pulse.from_lab(1800.0, n, 1.3e13) for n in (1, 2, 18)}

    @staticmethod
    def nodes(pulse, layout):
        n_theta = {"points": 6, "even": 6, "odd": 7}[layout]
        pz, pperp, _ = grid_nodes(MomentumGrid.build(pulse.omega, n_energy=20,
                                                     n_theta=n_theta))
        if layout == "points":      # every third node, each seeded alone
            return pz.ravel()[::3], pperp.ravel()[::3]
        return pz, pperp

    @pytest.mark.parametrize("cumulative", [False, True])
    @pytest.mark.parametrize("layout", ["points", "even", "odd"])
    @pytest.mark.parametrize("n_cycles", [1, 2, 18])
    def test_sums_equal_saddle_batch_sums(self, coarse, species_f, monkeypatch,
                                          n_cycles, layout, cumulative):
        pulse = coarse[n_cycles]
        pz, pperp = self.nodes(pulse, layout)
        # blocks of 3 rows from row 3 on: many blocks and a partial last one
        monkeypatch.setattr(saddle, "ROW_BLOCK_ROWS", 3)
        got = amplitude_profiles(pulse, species_f, pz, pperp, cumulative)
        want = batch_sums(pulse, species_f, pz, pperp, cumulative)
        # want solves every line directly, so on the mirrored lines this
        # checks the reflection identity s(-p_z) = exp(i S_tau) sigma
        # conj(s(p_z)) that amplitude_profiles maps its solved lines with.
        # The solved lines off p_z = 0 agree to the bit; the p_z = 0 line
        # and the mirrored lines to the rounding of an action of up to 2500
        # (N = 18): 1.6e-13 x max measured, where each side is about 6e-14
        # off the sums from long-double actions
        solved = np.s_[:] if layout == "points" else np.s_[:, :, :pz.shape[1] // 2]
        np.testing.assert_array_equal(got[solved], want[solved])
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=2e-13 * np.abs(want).max())

    def test_peak_memory_is_bounded(self, species_f):
        """Traced peak of one default-grid F matrix at N = 18 within 1.0
        times one channel's saddle times, though none are held past their
        row block (whole-grid fields need 7.6, the saddle times of the
        solved lines alone 1.3; the row blocks' fields and the continuation
        window take 0.84)."""
        pulse = Pulse.from_lab(1800.0, 18, 1.3e13)
        pz, pperp, _ = grid_nodes(MomentumGrid.build(pulse.omega))
        t_nbytes = pz.size * (2 * pulse.n_cycles + 2) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            amplitude_profiles(pulse, species_f, pz, pperp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * t_nbytes, f"peak {peak / t_nbytes:.2f} x t.nbytes"

    def test_buildup_stream_adds_no_block_sized_array(self, ref_pulse, species_f):
        """The partial sums of a block and their images live in the
        workspace regions that the block lends, so the traced peak of the
        F, N = 8 build-up stream on the default grid exceeds that of the
        plain stream by less than one (4, nodes, 2N+2) complex array of its
        largest block."""
        pz, pperp, weights = grid_nodes(MomentumGrid.build(ref_pulse.omega))
        deg = 2 * ref_pulse.n_cycles + 2
        solved = pz.shape[1] // 2
        rows = min(saddle.ROW_BLOCK_ROWS, saddle.ROW_BLOCK_ROOTS // (solved * deg))
        block_nbytes = 4 * rows * solved * deg * np.dtype(complex).itemsize

        def peak(partial_sums):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                amplitude_profiles(ref_pulse, species_f, pz, pperp,
                                   cumulative=partial_sums > 1,
                                   consume=densmat.Gram(weights, partial_sums))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        plain, cumulative = peak(1), peak(deg)
        assert cumulative - plain < block_nbytes, (cumulative - plain, block_nbytes)

    PZ = np.array([0.05, 0.3, -0.2])
    PPERP = np.sqrt(np.array([0.0, 0.04, 0.09]))

    @pytest.mark.parametrize("layout", ["three", "even", "odd"])
    @pytest.mark.parametrize("tol, value", [
        ("RESIDUAL_TOL", 0.0), ("DISTINCT_TOL", 1e6), ("DEGENERATE_S2_TOL", 1e6),
    ])
    def test_contract_failure_matches_saddle_batch(self, ref_pulse, species_f,
                                                    monkeypatch, tol, value,
                                                    layout):
        # the same node, contract, value and count of failing nodes in the
        # whole grid, mirrored lines included
        pz, pperp = ((self.PZ, self.PPERP) if layout == "three"
                     else self.nodes(ref_pulse, layout))
        monkeypatch.setattr(saddle, tol, value)
        # on lines, a tolerance no row meets re-seeds every row, and Newton
        # may overflow on the way
        with pytest.raises(SaddleError) as expected, np.errstate(
                over="ignore", invalid="ignore"):
            saddle_batch(ref_pulse, species_f.e_bound(3), pz, pperp * pperp)
        with pytest.raises(SaddleError) as streamed, np.errstate(
                over="ignore", invalid="ignore"):
            amplitude_profiles(ref_pulse, species_f, pz, pperp)
        assert type(streamed.value) is type(expected.value)
        assert str(streamed.value) == str(expected.value)
        np.testing.assert_array_equal(streamed.value.roots, expected.value.roots)

    def test_zero_curvature_stops_before_the_prefactor(self, ref_pulse,
                                                       species_f, monkeypatch):
        # one node of a later block gets S'' = 0: the error is the
        # DegenerateSaddleError of that node (1/sqrt(0) would warn first,
        # an error under pytest), and only the blocks before it reach the
        # consumer
        e_bound = species_f.e_bound(3)
        pz, pperp = self.nodes(ref_pulse, "odd")
        # rows 0, 1 and 2, then blocks of two rows: the node's row 9 starts
        # the seventh block
        monkeypatch.setattr(saddle, "ROW_BLOCK_ROWS", 2)
        good = saddle_batch(ref_pulse, e_bound, pz, pperp * pperp)
        node = (9, 2)
        flat_derivative_at(monkeypatch, good.t[node][4])
        handed = []
        with pytest.raises(DegenerateSaddleError, match=r"\|S''\| = 0\.000e\+00") as info:
            saddle_batch(ref_pulse, e_bound, pz, pperp * pperp,
                         lambda nodes, block: handed.append(nodes))
        assert f"p_z = {pz[node]:.6g}," in str(info.value)
        np.testing.assert_array_equal(info.value.roots, good.t[node])
        # the blocks run over the solved lines, the first four of seven: the
        # consumer is handed the flat nodes of each block before the node's
        solved = np.arange(pz.size).reshape(pz.shape)[:, :4]
        assert [len(nodes) for nodes in handed] == [4, 4, 4, 8, 8, 8]
        np.testing.assert_array_equal(np.concatenate(handed),
                                      solved[:node[0]].ravel())
        with pytest.raises(DegenerateSaddleError) as streamed:
            amplitude_profiles(ref_pulse, species_f, pz, pperp)
        assert str(streamed.value) == str(info.value)


@pytest.mark.parametrize("shape", [(0,), (0, 6), (0, 7), (4, 0)])
def test_empty_inputs_give_empty_results(ref_pulse, species_f, shape):
    # no points, no rows or no lines: empty fields and sums, no error, on
    # one process or two (whose shared workspace then holds no element)
    deg = 2 * ref_pulse.n_cycles + 2
    pz = np.zeros(shape)
    batch = saddle_batch(ref_pulse, species_f.e_bound(3), pz, pz)
    for name in SaddleBatch.__slots__:
        assert getattr(batch, name).shape == shape + (deg,), name
    for threads in (1, 2):
        assert amplitude_profiles(ref_pulse, species_f, pz, pz,
                                  threads=threads).shape == (4,) + shape
        assert amplitude_profiles(ref_pulse, species_f, pz, pz, cumulative=True,
                                  threads=threads).shape == (4,) + shape + (deg,)


def test_saddle_batch_import_site_sees_whole_grid(ref_pulse, species_f,
                                                  monkeypatch):
    """The traced benchmark counts the nodes at sowp.amplitude.saddle_batch
    from its third positional argument: one call per matrix, for both
    channel energies, with the whole 2-D p_z grid.  It also requires
    the spans of amplitude_profiles at its sowp.densmat and sowp.analysis
    import sites: build_density_matrix and buildup call it once each."""
    grid = MomentumGrid.build(ref_pulse.omega, n_energy=12, n_theta=4)
    pz, _, _ = grid_nodes(grid)
    calls = []

    def recording(name, fn):
        def record(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)
        return record

    for module in (amplitude, densmat, analysis):
        name = module.__name__
        attr = "saddle_batch" if module is amplitude else "amplitude_profiles"
        monkeypatch.setattr(module, attr,
                            recording(name, getattr(module, attr)))
    build_density_matrix(ref_pulse, species_f, grid)
    buildup(ref_pulse, species_f, grid)
    assert [name for name, _ in calls] == [
        "sowp.densmat", "sowp.amplitude", "sowp.analysis", "sowp.amplitude"]
    solves = [args for name, args in calls if name == "sowp.amplitude"]
    assert [list(args[1]) for args in solves] == [[species_f.e_bound(3),
                                                   species_f.e_bound(1)]] * 2
    for args in solves:
        assert args[0] is ref_pulse
        np.testing.assert_array_equal(args[2], pz)


def test_evaluated_block_allocates_nothing_of_its_size(species_f, monkeypatch):
    """From the prefactor of a row block (N = 18, both F channels, 20
    nodes) to its consumer, the kernels and the stream take their scratch
    and sums from the block and the workspace regions it lends: a block's
    traced peak above entry stays within 8192 bytes, under half of one
    block array, so no array of the block's size is allocated; what is
    left is numpy's fixed cost per call, which does not grow with the
    block."""
    pulse = Pulse.from_lab(1800.0, 18, 1.3e13)
    # 2 of 4 lines solved: rows 0-2 alone, then three blocks of 10 rows
    pz, pperp, _ = grid_nodes(MomentumGrid.build(pulse.omega, n_energy=33, n_theta=4))
    rsqrt, entry, peaks = saddle._rsqrt, [], []

    def entered(x, out, scratch):
        entry.append((tracemalloc.get_traced_memory()[0], x.nbytes))
        tracemalloc.reset_peak()
        return rsqrt(x, out, scratch)

    def consume(nodes, rows):
        if len(peaks) < len(entry):     # the solved nodes, not their images
            peaks.append((len(nodes), tracemalloc.get_traced_memory()[1] - entry[-1][0]))

    monkeypatch.setattr(saddle, "_rsqrt", entered)
    tracemalloc.start()
    try:
        amplitude_profiles(pulse, species_f, pz, pperp, consume=consume)
    finally:
        tracemalloc.stop()
    assert [n for n, _ in peaks] == [2, 2, 2, 20, 20, 20]
    block_bytes = entry[-1][1]
    assert all(peak <= 8192 < block_bytes / 2 for _, peak in peaks), peaks


def test_buildup_sums_reach_the_consumer_unbuffered(ref_pulse, species_f, monkeypatch):
    """From the prefactor of a row block of the F, N = 8 build-up on the
    default grid to the consumer's call with its partial sums, the traced
    peak above entry stays within 8192 bytes and two float (4, nodes)
    arrays (S_tau, and the per-node terms it is formed from): the stream
    scales its sums by their factors row by row, where a (4, 1, 1) factor
    broadcast over the (4, nodes, 2N+2) sums made numpy allocate a ufunc
    buffer of up to 8192 complex elements, and forms S_tau row by row."""
    pz, pperp, _ = grid_nodes(MomentumGrid.build(ref_pulse.omega))
    rsqrt, entry, peaks = saddle._rsqrt, [], []

    def entered(x, out, scratch):
        entry.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return rsqrt(x, out, scratch)

    def consume(nodes, rows):
        if len(peaks) < len(entry):     # the sums, not their images
            peaks.append((rows.shape[1], tracemalloc.get_traced_memory()[1] - entry[-1]))

    monkeypatch.setattr(saddle, "_rsqrt", entered)
    tracemalloc.start()
    try:
        amplitude_profiles(ref_pulse, species_f, pz, pperp, cumulative=True,
                           consume=consume)
    finally:
        tracemalloc.stop()
    assert len(peaks) == len(entry) > 3
    assert all(peak <= 8192 + 2 * 4 * n * 8 for n, peak in peaks), peaks


# --- time-integral oracle ---------------------------------------------------
#
# The amplitude can be evaluated without the saddle approximation as
#     A(p) = int_0^tau_p F(t) dM/dq_z|_{q = p + A(t)} exp(i S(t)) dt
# where M(q) is the z-dipole matrix element of the asymptotic orbital
# B exp(-kappa r)/r Y_{1 m_l} in plane-wave normalization.  For m_l = 0 and
# p along z,
#     dM/dq_z = 4 pi B sqrt(3/4pi) R'(|q_z|),
#     R(q) = arctan(q/kappa)/q^2 - kappa/(q (q^2 + kappa^2)),
# (R is the radial Fourier integral of j_1(qr) e^{-kappa r} r; verified
# against direct numerical integration).  The saddle formula carries a
# systematic modulus offset of about +30% at the reference intensity, but
# must reproduce the positions of the interference extrema exactly; the
# opposite relative sign between half-cycle bursts shifts them by half a
# period and is thereby excluded.

def _radial_ft_derivative(q, kappa):
    return (2 * kappa / (q * q * (q * q + kappa ** 2))
            + 2 * kappa / (q * q + kappa ** 2) ** 2
            - 2 * np.arctan(q / kappa) / q ** 3)


def exact_amplitude_z(pulse, species, p, t_lo=None, t_hi=None, n=160001):
    """Simpson quadrature of the exact time integrand at theta = 0, m_l = 0."""
    kappa = species.kappa(3)
    e_bound = species.e_bound(3)
    t_lo = 0.0 if t_lo is None else t_lo
    t_hi = pulse.tau_p if t_hi is None else t_hi
    t = np.linspace(t_lo, t_hi, n)
    qz = p + pulse.vector_potential(t)
    field = pulse.electric_field(t)
    s_t = action(pulse, e_bound, (0.0, 0.0, p), t)
    dm = (4 * np.pi * species.b_au * SQ34
          * _radial_ft_derivative(np.abs(qz), kappa))
    integrand = field * dm * np.exp(1j * s_t)
    h = t[1] - t[0]
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return np.sum(integrand * w) * h / 3.0


def saddle_amplitude_z(pulse, species, p, flip_relative_sign=False):
    """Saddle sum for the bare m_l = 0 orbital amplitude (no coupling
    coefficient); optionally with the (wrong) opposite half-cycle sign."""
    kappa = species.kappa(3)
    saddles = find_saddles(pulse, species.e_bound(3), (0.0, 0.0, p))
    total = 0.0j
    for sp in saddles:
        vz = p + pulse.vector_potential(sp.t)
        term = (SQ34 * vz / (1j * kappa)) * np.exp(1j * sp.action) * sp.prefactor
        if flip_relative_sign:
            term *= alternating_sign(sp.mu, 1)
        total += term
    return -(2 * np.pi) ** 1.5 * species.b_au * total


@pytest.fixture(scope="module")
def oracle_setup():
    return Pulse.from_lab(1800.0, 8, 1.3e13), get_species("F")


class TestTimeIntegralOracle:
    def test_single_saddle_window_modulus(self, oracle_setup):
        # strongest central saddle versus the time integral over its own
        # stationary window; the plain saddle formula overshoots by ~30%
        # at gamma = 0.66 (the asymptotic parameter is only moderately
        # large), measured 1.298 here and frozen as the expected ratio
        pulse, species = oracle_setup
        kappa = species.kappa(3)
        saddles = find_saddles(pulse, species.e_bound(3), (0.0, 0.0, 0.05))
        terms = []
        for sp in saddles:
            vz = 0.05 + pulse.vector_potential(sp.t)
            terms.append(-(2 * np.pi) ** 1.5 * species.b_au * SQ34 * vz
                         / (1j * kappa) * np.exp(1j * sp.action) * sp.prefactor)
        mu = int(np.argmax(np.abs(terms)))
        lo = 0.5 * (saddles[mu - 1].t.real + saddles[mu].t.real)
        hi = 0.5 * (saddles[mu].t.real + saddles[mu + 1].t.real)
        window = exact_amplitude_z(pulse, species, 0.05, lo, hi)
        ratio = abs(terms[mu]) / abs(window)
        assert ratio == pytest.approx(1.298, abs=0.08)

    def test_interference_positions_pin_the_sign(self, oracle_setup):
        # scan across one above-threshold oscillation: the shipped
        # convention tracks the exact modulus pattern, the flipped relative
        # sign anti-correlates
        pulse, species = oracle_setup
        u_p = pulse.a0 ** 2 / 4
        e_eff = -species.e_bound(3) + u_p
        energies = (np.arange(11.8, 13.01, 0.15) * pulse.omega) - e_eff
        ps = np.sqrt(2 * energies)
        exact = np.array([abs(exact_amplitude_z(pulse, species, p, n=80001))
                          for p in ps])
        ours = np.array([abs(saddle_amplitude_z(pulse, species, p)) for p in ps])
        flipped = np.array([abs(saddle_amplitude_z(pulse, species, p, True))
                            for p in ps])
        assert np.argmax(exact) == np.argmax(ours)
        assert np.argmin(exact) == np.argmin(ours)
        corr_ours = np.corrcoef(exact, ours)[0, 1]
        corr_flip = np.corrcoef(exact, flipped)[0, 1]
        assert corr_ours > 0.95
        assert corr_flip < corr_ours - 0.5


def test_channel_listing():
    assert len(CHANNELS) == 10
    for j2, m2, ms2 in CHANNELS:
        assert abs(m2 - ms2) <= 2
    # |m| = 3/2 states have one (m_l, m_s) contribution, |m| = 1/2 have two
    from collections import Counter
    counts = Counter((j2, m2) for j2, m2, _ in CHANNELS)
    for (j2, m2), n in counts.items():
        assert n == (1 if abs(m2) == 3 else 2)
