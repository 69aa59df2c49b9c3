"""Shared fixtures: the reference pulse (1800 nm, 1.3e13 W/cm^2, 8 cycles)
and cached density matrices, reused across the unit and acceptance suites."""

import os
import signal
import warnings

import numpy as np
import pytest

from sowp.densmat import MomentumGrid, build_density_matrix
from sowp.errors import SaturationWarning
from sowp.pulse import Pulse
from sowp.species import get_species

REF_WAVELENGTH_NM = 1800.0
REF_INTENSITY_WCM2 = 1.3e13
REF_CYCLES = 8


@pytest.fixture(scope="session")
def ref_pulse():
    return Pulse.from_lab(REF_WAVELENGTH_NM, REF_CYCLES, REF_INTENSITY_WCM2)


@pytest.fixture(scope="session")
def species_f():
    return get_species("F")


@pytest.fixture(scope="session")
def species_cl():
    return get_species("Cl")


@pytest.fixture(scope="session")
def species_br():
    return get_species("Br")


@pytest.fixture(scope="session")
def ref_grid(ref_pulse):
    return MomentumGrid.build(ref_pulse.omega)


@pytest.fixture(scope="session")
def ref_rho(ref_pulse, ref_grid):
    """Density matrices of F, Cl, Br at the reference pulse, default grid."""
    out = {}
    for name in ("F", "Cl", "Br"):
        with warnings.catch_warnings():
            # Br saturates (w > 0.5) at the reference pulse; tested explicitly
            warnings.simplefilter("ignore", SaturationWarning)
            out[name] = build_density_matrix(ref_pulse, get_species(name), ref_grid)
    return out


@pytest.fixture(scope="session")
def ref_buildup(ref_pulse, ref_grid):
    """Cumulative build-up traces of F and Br at the reference pulse."""
    from sowp.analysis import buildup
    out = {}
    for name in ("F", "Br"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            out[name] = buildup(ref_pulse, get_species(name), ref_grid)
    return out


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test this process has no child: every process a test
    starts, the sweep's workers included, has ended and been reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """TimeoutError in this process if the test runs past a minute."""
    def expire(signum, frame):
        raise TimeoutError("the test did not end within a minute")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
