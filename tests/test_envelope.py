"""The invariants that hold for any pulse, checked on pulses drawn from
the envelope where every saddle contract held on a coarse scan: F, Cl or
Br, 400-3600 nm, 1e11-1e14 W/cm^2, N = 1-18, on coarse grids whose odd
polar counts put a line at p_z = 0.  A drawn point that fails is a finding
about the code, not a reason to narrow the draws."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from sowp.amplitude import STATES, amplitude_profiles
from sowp.densmat import (MomentumGrid, build_density_matrix, coherence_degree,
                          grid_nodes)
from sowp.errors import SaturationWarning
from sowp.pulse import Pulse
from sowp.species import get_species
from test_amplitude import batch_sums
from test_dynamics import centre_coherence

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
    species = SPECIES[name]
    pulse = Pulse.from_lab(wavelength_nm, n_cycles, 10.0 ** log_intensity)
    grid = MomentumGrid.build(pulse.omega, n_energy=n_energy, n_theta=n_theta)
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
