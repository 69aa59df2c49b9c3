"""Anion/atom registry: binding energies, asymptotic constants, beat periods.

Energies of the two detachment channels (labelled by the total angular
momentum j of the residual atom):

    E_{3/2} = -EA                      (atom left in the 2P_{3/2} ground level)
    E_{1/2} = -EA - Delta_fs           (atom left in the excited 2P_{1/2} level)

so the j=1/2 channel is the more strongly bound one.  kappa_j = sqrt(-2 E_j).
"""

import os
from dataclasses import dataclass
from importlib import resources

from sowp import units
from sowp.errors import SpeciesFileError

ENV_SPECIES_FILE = "SOWP_SPECIES_FILE"

_REQUIRED_FIELDS = ("name", "ea_ev", "splitting_cm1", "b_au", "l")


@dataclass(frozen=True)
class Species:
    """One photodetachment target; immutable after load."""

    name: str
    ea_ev: float          # electron affinity to the j=3/2 atomic level, eV
    splitting_cm1: float  # atomic fine-structure splitting, cm^-1
    b_au: float           # asymptotic normalization constant B, a.u.
    l: int = 1            # valence orbital angular momentum

    def __post_init__(self):
        if self.ea_ev <= 0:
            raise SpeciesFileError(
                f"{self.name}: ea_ev must be positive (bound anion), got {self.ea_ev}")
        if self.splitting_cm1 <= 0:
            raise SpeciesFileError(
                f"{self.name}: splitting_cm1 must be positive, got {self.splitting_cm1}")
        if self.b_au <= 0:
            raise SpeciesFileError(
                f"{self.name}: b_au must be positive, got {self.b_au}")
        if self.l != 1:
            raise SpeciesFileError(
                f"{self.name}: only l=1 (np valence shells) is implemented, got l={self.l}")

    def e_bound(self, j2: int) -> float:
        """Bound-state energy E_j < 0 (a.u.) of the channel with doubled
        total angular momentum j2 (3 for j=3/2, 1 for j=1/2)."""
        e32 = -units.ev_to_hartree(self.ea_ev)
        if j2 == 3:
            return e32
        if j2 == 1:
            return e32 - units.cm1_to_hartree(self.splitting_cm1)
        raise ValueError(f"j2 must be 3 or 1, got {j2}")

    def kappa(self, j2: int) -> float:
        """kappa_j = sqrt(-2 E_j)."""
        return (-2.0 * self.e_bound(j2)) ** 0.5

    @property
    def omega_b(self) -> float:
        """Beat (fine-structure) angular frequency in a.u."""
        return units.cm1_to_hartree(self.splitting_cm1)

    @property
    def beat_period_fs(self) -> float:
        """Spin-orbit beat period tau_b in fs."""
        return units.splitting_to_beat_period(self.splitting_cm1)


def _parse_blocks(lines):
    """Yield (first_line_number, {key: (value, line_number)}) per blank-line
    separated block."""
    block = {}
    first = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if block:
                yield first, block
                block, first = {}, None
            continue
        if "=" not in line:
            raise SpeciesFileError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in block:
            raise SpeciesFileError(f"line {lineno}: duplicate field {key!r}")
        block[key] = (value.strip(), lineno)
        if first is None:
            first = lineno
    if block:
        yield first, block


def load_species(path) -> list[Species]:
    """Parse a species data file into validated Species records."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpeciesFileError(f"cannot read species file {path}: {exc}") from exc

    out = []
    for first, block in _parse_blocks(lines):
        for fieldname in _REQUIRED_FIELDS:
            if fieldname not in block:
                raise SpeciesFileError(
                    f"block starting at line {first}: missing field {fieldname!r}")
        unknown = set(block) - set(_REQUIRED_FIELDS)
        if unknown:
            raise SpeciesFileError(
                f"block starting at line {first}: unknown fields {sorted(unknown)}")

        def num(key, conv):
            value, lineno = block[key]
            try:
                return conv(value)
            except ValueError as exc:
                raise SpeciesFileError(
                    f"line {lineno}: field {key!r} is not a number: {value!r}") from exc

        out.append(Species(
            name=block["name"][0],
            ea_ev=num("ea_ev", float),
            splitting_cm1=num("splitting_cm1", float),
            b_au=num("b_au", float),
            l=num("l", int),
        ))
    if not out:
        raise SpeciesFileError(f"species file {path} contains no records")
    names = [s.name.lower() for s in out]
    if len(set(names)) != len(names):
        raise SpeciesFileError(f"species file {path} has duplicate names")
    return out


def default_species_path() -> str:
    """Path of the species file: $SOWP_SPECIES_FILE if set, else the
    packaged defaults."""
    env = os.environ.get(ENV_SPECIES_FILE)
    if env:
        return env
    return str(resources.files("sowp").joinpath("data/species.dat"))


def get_species(name: str, path=None) -> Species:
    """Load one species by (case-insensitive) name."""
    path = path or default_species_path()
    for sp in load_species(path):
        if sp.name.lower() == name.lower():
            return sp
    raise SpeciesFileError(f"species {name!r} not found in {path}")
