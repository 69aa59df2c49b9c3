"""Spin-orbit wave packets from short-pulse photodetachment.

Keldysh-type (strong-field, saddle-point) calculation of the density matrix
of the neutral atom left behind when a linearly polarized few-cycle laser
pulse detaches an electron from a halogen negative ion (F-, Cl-, Br-).
The package computes fine-structure populations, the 3/2-1/2 coherence and
its degree g, the pump-probe alignment beat signal, and the dependence of g
on the ratio of pulse duration to spin-orbit beat period.
"""

from sowp.errors import (
    SowpError,
    ConfigError,
    SpeciesFileError,
    NumericalError,
    SaddleError,
    DegenerateSaddleError,
    FitError,
    CoherenceUndefinedError,
    ProbabilityError,
)
from sowp.pulse import Pulse
from sowp.species import Species, load_species, get_species
from sowp.densmat import MomentumGrid, DensityMatrix, build_density_matrix
from sowp.analysis import SweepPoint, FitResult, BuildupTrace

__version__ = "0.1.0"

__all__ = [
    "SowpError", "ConfigError", "SpeciesFileError", "NumericalError",
    "SaddleError", "DegenerateSaddleError", "FitError",
    "CoherenceUndefinedError", "ProbabilityError",
    "Pulse", "Species", "load_species", "get_species",
    "MomentumGrid", "DensityMatrix", "build_density_matrix",
    "SweepPoint", "FitResult", "BuildupTrace",
    "__version__",
]
