"""Anion/atom registry: binding energies, asymptotic constants, beat periods.

Energies of the two detachment channels (labelled by the total angular
momentum j of the residual atom):

    E_{3/2} = -EA                      (atom left in the 2P_{3/2} ground level)
    E_{1/2} = -EA - Delta_fs           (atom left in the excited 2P_{1/2} level)

so the j=1/2 channel is the more strongly bound one.  kappa_j = sqrt(-2 E_j).
"""

import math
import os
from dataclasses import dataclass, fields
from importlib import resources
from itertools import groupby

from sowp import units
from sowp.errors import SpeciesFileError

ENV_SPECIES_FILE = "SOWP_SPECIES_FILE"


@dataclass(frozen=True)
class Species:
    """One photodetachment target; immutable after load."""

    name: str
    ea_ev: float          # electron affinity to the j=3/2 atomic level, eV
    splitting_cm1: float  # atomic fine-structure splitting, cm^-1
    b_au: float           # asymptotic normalization constant B, a.u.
    l: int = 1            # valence orbital angular momentum

    def __post_init__(self):
        for key in ("ea_ev", "splitting_cm1", "b_au"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise SpeciesFileError(
                    f"{self.name}: {key} must be finite and positive, got {value}")
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


_FIELDS = {f.name: f for f in fields(Species)}


def _content(raw: str) -> str:
    """A line without its '#' comment and surrounding whitespace."""
    return raw.split("#", 1)[0].strip()


def numbered_lines(path, error, source) -> list:
    """(line number, text) pairs of a file; an OSError is raised as ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return list(enumerate(fh, start=1))
    except OSError as exc:
        raise error(f"cannot read {source}: {exc}") from exc


def parse_key_values(lines, schema, error, source) -> dict:
    """{key: value} from (line number, text) pairs in the 'key = value'
    dialect of species and config files.  Keys are lower-cased, must name a
    field of ``schema`` (name -> dataclass Field) and may appear once; each
    value is converted by the field's annotated type.  The first bad line
    raises ``error`` naming ``source`` and the line."""
    values = {}
    for lineno, raw in lines:
        line = _content(raw)
        if not line:
            continue
        where = f"{source}, line {lineno}"
        key, eq, text = line.partition("=")
        key, text = key.strip().lower(), text.strip()
        if not eq:
            raise error(f"{where}: expected 'key = value', got {raw.strip()!r}")
        if key not in schema:
            raise error(f"{where}: unknown key {key!r}")
        if key in values:
            raise error(f"{where}: repeated key {key!r}")
        kind = schema[key].type
        try:
            values[key] = kind(text)
        except ValueError as exc:
            raise error(f"{where}: {key!r} is not a valid {kind.__name__}: "
                        f"{text!r}") from exc
    return values


def load_species(path) -> list[Species]:
    """Parse a species data file into validated Species records, one per
    run of non-blank lines with content (comment lines may sit inside a
    record); every Species field is required."""
    source = f"species file {path}"
    numbered = numbered_lines(path, SpeciesFileError, source)
    out = []
    for _, lines in groupby(numbered, key=lambda nl: bool(nl[1].strip())):
        record = [nl for nl in lines if _content(nl[1])]
        if not record:      # blank lines, or comments alone
            continue
        values = parse_key_values(record, _FIELDS, SpeciesFileError, source)
        missing = [name for name in _FIELDS if name not in values]
        if missing:
            raise SpeciesFileError(f"{source}, record starting at line "
                                   f"{record[0][0]}: missing field {missing[0]!r}")
        out.append(Species(**values))
    if not out:
        raise SpeciesFileError(f"{source} contains no records")
    names = [s.name.lower() for s in out]
    if len(set(names)) != len(names):
        raise SpeciesFileError(f"{source} has duplicate names")
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
