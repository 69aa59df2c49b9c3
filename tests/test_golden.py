"""Golden regression gate: the full-precision 6x6 density matrices of F, Cl
and Br and the F build-up coherence trace at the reference pulse, and the
density matrices of the duration-sweep points F at N = 1, 2, 8, 18 and Br at
N = 8 (reference wavelength and intensity), all on the default grid,
frozen in ``data/golden_reference.json``.

The acceptance tolerances (g +/- 0.05) would not notice an optimisation
that moved rho by 1e-4; this gate holds every element to 1e-10 of the
largest one.  Regenerate the file only from a commit whose results are
trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import warnings

import numpy as np
import pytest

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "golden_reference.json")
REL_TOL = 1e-10
SWEEP_POINTS = (("F", 1), ("F", 2), ("F", 8), ("F", 18), ("Br", 8))


def _complex(pairs):
    return np.array([complex(re, im) for re, im in pairs])


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _assert_close(got, ref):
    scale = float(np.abs(ref).max())
    dev = float(np.abs(got - ref).max())
    assert dev <= REL_TOL * scale, f"max deviation {dev:.3e} > {REL_TOL:g} * {scale:.3e}"


@pytest.mark.parametrize("name", ["F", "Cl", "Br"])
def test_reference_density_matrix(golden, ref_rho, name):
    ref = _complex(golden["rho"][name]).reshape(6, 6)
    _assert_close(ref_rho[name].matrix, ref)


def test_f_buildup_coherence_trace(golden, ref_buildup):
    ref = _complex(golden["buildup_coherence"]["F"])
    _assert_close(ref_buildup["F"].coherence, ref)


@pytest.mark.parametrize("name, n_cycles", SWEEP_POINTS)
def test_sweep_point_density_matrix(golden, ref_rho, name, n_cycles):
    from conftest import REF_CYCLES, REF_INTENSITY_WCM2, REF_WAVELENGTH_NM
    from sowp.densmat import build_density_matrix
    from sowp.pulse import Pulse
    from sowp.species import get_species

    ref = _complex(golden["sweep_rho"][name][str(n_cycles)]).reshape(6, 6)
    if n_cycles == REF_CYCLES:
        rho = ref_rho[name]
    else:
        pulse = Pulse.from_lab(REF_WAVELENGTH_NM, n_cycles, REF_INTENSITY_WCM2)
        rho = build_density_matrix(pulse, get_species(name))
    _assert_close(rho.matrix, ref)


def _freeze(path=GOLDEN_PATH):
    from conftest import REF_CYCLES, REF_INTENSITY_WCM2, REF_WAVELENGTH_NM
    from sowp.analysis import buildup
    from sowp.densmat import build_density_matrix
    from sowp.errors import SaturationWarning
    from sowp.pulse import Pulse
    from sowp.species import get_species

    def pairs(arr):
        return [[float(z.real), float(z.imag)] for z in np.ravel(arr)]

    pulse = Pulse.from_lab(REF_WAVELENGTH_NM, REF_CYCLES, REF_INTENSITY_WCM2)
    out = {"pulse": {"wavelength_nm": REF_WAVELENGTH_NM,
                     "intensity_wcm2": REF_INTENSITY_WCM2,
                     "cycles": REF_CYCLES, "grid": "default"},
           "rho": {}, "buildup_coherence": {}, "sweep_rho": {}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        for name in ("F", "Cl", "Br"):
            rho = build_density_matrix(pulse, get_species(name))
            out["rho"][name] = pairs(rho.matrix)
        out["buildup_coherence"]["F"] = pairs(
            buildup(pulse, get_species("F")).coherence)
        for name, n_cycles in SWEEP_POINTS:
            point = Pulse.from_lab(REF_WAVELENGTH_NM, n_cycles, REF_INTENSITY_WCM2)
            rho = build_density_matrix(point, get_species(name))
            out["sweep_rho"].setdefault(name, {})[str(n_cycles)] = pairs(rho.matrix)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    _freeze()
