"""The invariants that hold for any pulse, checked on pulses drawn from
the envelope where every saddle contract held on a coarse scan: F, Cl or
Br, 400-3600 nm, 1e11-1e14 W/cm^2, N = 1-18, on coarse grids whose odd
polar counts put a line at p_z = 0.  A drawn point that fails is a finding
about the code, not a reason to narrow the draws."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sowp.amplitude import STATES, amplitude_profiles
from sowp.densmat import (MomentumGrid, build_density_matrix, coherence_degree,
                          grid_nodes)
from sowp.errors import SaddleError, SaturationWarning
from sowp.pulse import Pulse
from sowp.saddle import saddle_batch
from sowp.species import get_species
from test_amplitude import batch_sums
from test_dynamics import centre_coherence
from test_saddle import assert_same_roots_modulo_period

SPECIES = {name: get_species(name) for name in ("F", "Cl", "Br")}


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(name=st.sampled_from(sorted(SPECIES)),
       wavelength_nm=st.floats(400.0, 3600.0),
       log_intensity=st.floats(11.0, 14.0),
       n_cycles=st.integers(1, 18),
       n_energy=st.integers(8, 40),
       n_theta=st.integers(3, 17))
def test_density_matrix_invariants(name, wavelength_nm, log_intensity,
                                   n_cycles, n_energy, n_theta):
    pulse = Pulse.from_lab(wavelength_nm, n_cycles, 10.0 ** log_intensity)
    grid = MomentumGrid.build(pulse.omega, n_energy=n_energy, n_theta=n_theta)
    try:
        assert_invariants(SPECIES[name], pulse, grid)
    except SaddleError as exc:
        pytest.fail(f"{type(exc).__name__} for {name} at {wavelength_nm!r} nm, "
                    f"1e{log_intensity!r} W/cm^2, N = {n_cycles} on the "
                    f"{n_energy} x {n_theta} grid: {exc}")


def assert_invariants(species, pulse, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        rho = build_density_matrix(pulse, species, grid)
    matrix, w = rho.matrix, rho.w
    scale = np.abs(matrix).max()
    assert w > 0
    # C G C^T of a Gram matrix: Hermitian and positive semidefinite
    assert np.abs(matrix - matrix.conj().T).max() <= 1e-14 * scale
    assert np.linalg.eigvalsh(matrix).min() >= -1e-14 * w
    assert 0.0 <= coherence_degree(rho) <= 1.0
    centre_coherence(rho, species, pulse)
    # with analytic phi, states of different m never mix
    m2 = np.array([m for _, m in STATES])
    assert (matrix[m2[:, None] != m2] == 0).all()
    # one saddle pass shared by the three species gives each its matrix
    # alone, bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        shared = build_density_matrix(pulse, list(SPECIES.values()), grid)
        for other, got in zip(SPECIES.values(), shared):
            alone = rho if other is species else build_density_matrix(pulse, other, grid)
            assert got.matrix.tobytes() == alone.matrix.tobytes(), other.name
    # the mirrored consumer path against saddles solved on every line
    pz, pperp, _ = grid_nodes(grid)
    want = batch_sums(pulse, species, pz, pperp, cumulative=False)
    got = amplitude_profiles(pulse, species, pz, pperp)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    # independent points against the line solve at the corners and centre
    # of the grid; a saddle on the p_z = 0 line may lie at Re t = 0 or
    # tau_p, so that line is compared modulo tau_p
    rows, cols = np.ix_([0, pz.shape[0] // 2, -1], [0, pz.shape[1] // 2, -1])
    centre = pz[rows, cols] == 0
    for j2 in (3, 1):
        lines = saddle_batch(pulse, species.e_bound(j2), pz, pperp * pperp)
        points = saddle_batch(pulse, species.e_bound(j2),
                              pz[rows, cols].ravel(),
                              pperp[rows, cols].ravel() ** 2)
        on_lines = lines.t[rows, cols]
        alone = points.t.reshape(on_lines.shape)
        np.testing.assert_allclose(alone[~centre], on_lines[~centre], rtol=0,
                                   atol=1e-10 * pulse.tau_p)
        if centre.any():
            assert_same_roots_modulo_period(alone[centre], on_lines[centre],
                                            pulse.tau_p)
