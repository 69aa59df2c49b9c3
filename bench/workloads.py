"""Benchmark workloads, seeded input variants, output parsing and the
reference comparator.

A workload is one `sowp` CLI command.  Its inputs come from a seed: the
seed selects one of ``N_VARIANTS`` input variants (seed mod N_VARIANTS).
Variant 0 is the paper's reference pulse (1800 nm, 1.3e13 W/cm^2); the
others apply a small deterministic wavelength/intensity jitter that stays
inside the saddle contracts.  Every variant has frozen reference outputs in
``references.json`` (written by ``freeze.py`` from the seed code), so every
seed can be checked.
"""

import csv
import json
import os
import random
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

REF_WAVELENGTH_NM = 1800.0
REF_INTENSITY_WCM2 = 1.3e13
N_VARIANTS = 8

# relative tolerance against the frozen references: tight enough to catch a
# 1e-4 drift that the +/-0.05 acceptance tolerances miss, loose enough for
# reordered floating-point sums
REL_TOL = 1e-9

NODES_PER_MATRIX = 200 * 64  # default grid, analytic phi


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # CLI sub-command
    species: str
    cycles: str
    threads: int
    matrices: int             # density matrices per invocation

    @property
    def nodes(self) -> int:
        """Grid nodes integrated by one invocation."""
        return self.matrices * NODES_PER_MATRIX

    def argv(self, variant: dict, out_dir: str) -> list:
        args = [self.command, "--species", self.species,
                "--cycles", self.cycles,
                "--wavelength-nm", repr(variant["wavelength_nm"]),
                "--intensity-wcm2", repr(variant["intensity_wcm2"]),
                "--out-dir", out_dir]
        if self.threads > 1:
            args += ["--threads", str(self.threads)]
        return args


# Why each workload was chosen, and what it should and should not move, is
# in README.md.
WORKLOADS = {w.name: w for w in (
    Workload("ref_buildup", "buildup", "f", "8", threads=1, matrices=1),
    Workload("long_pulse", "evolve", "f", "18", threads=1, matrices=1),
    Workload("short_sweep", "sweep", "f,cl,br", "2..3", threads=2, matrices=6),
)}


def variant(seed: int) -> dict:
    """Pulse parameters for a workload seed."""
    v = int(seed) % N_VARIANTS
    if v == 0:
        return {"variant": 0, "wavelength_nm": REF_WAVELENGTH_NM,
                "intensity_wcm2": REF_INTENSITY_WCM2}
    rng = random.Random(v)
    return {"variant": v,
            "wavelength_nm": round(REF_WAVELENGTH_NM
                                   * (1.0 + rng.uniform(-0.01, 0.01)), 3),
            "intensity_wcm2": float(f"{REF_INTENSITY_WCM2 * (1.0 + rng.uniform(-0.03, 0.03)):.4e}")}


# --- CLI output parsing --------------------------------------------------

def read_densmat(path: str) -> dict:
    """densmat.csv -> {"rho": 6x6 complex array, "w": float, "g": float}."""
    header = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key.strip()] = float(val)
            elif not line.startswith("jp,"):
                rows.append(line)
    vals = [float(r.split(",")[4]) + 1j * float(r.split(",")[5]) for r in rows]
    if len(vals) != 36:
        raise ValueError(f"{path}: expected 36 matrix rows, got {len(vals)}")
    return {"rho": np.array(vals).reshape(6, 6), "w": header["w"],
            "g": header["g"]}


def read_sweep(path: str) -> list:
    """sweep.csv -> [{"species", "n_cycles", "g", "w"}, ...] in file order."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [{"species": r["species"], "n_cycles": int(r["n_cycles"]),
                 "g": float(r["g"]), "w": float(r["w"])}
                for r in csv.DictReader(fh)]


def read_outputs(workload: Workload, out_dir: str):
    """The checked outputs of one invocation, in the references' layout."""
    if workload.command == "sweep":
        return {"points": read_sweep(os.path.join(out_dir, "sweep.csv"))}
    return read_densmat(os.path.join(out_dir, "densmat.csv"))


# --- frozen references ---------------------------------------------------

def encode(outputs: dict) -> dict:
    """JSON form of read_outputs(); complex entries become [re, im]."""
    if "points" in outputs:
        return {"points": outputs["points"]}
    rho = outputs["rho"]
    return {"rho": [[[z.real, z.imag] for z in row] for row in rho],
            "w": outputs["w"], "g": outputs["g"]}


def decode(ref: dict) -> dict:
    if "points" in ref:
        return ref
    rho = np.array([[complex(re, im) for re, im in row] for row in ref["rho"]])
    return {"rho": rho, "w": ref["w"], "g": ref["g"]}


def load_references(path: str = REFERENCES_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(refs: dict, workload: Workload, seed: int) -> dict:
    entry = refs["variants"][str(variant(seed)["variant"])]
    return decode(entry[workload.name])


def _close(x: float, ref: float, scale: float, tol: float) -> bool:
    return abs(x - ref) <= tol * scale


def compare_matrix(got: dict, ref: dict, tol: float = REL_TOL) -> list:
    """Mismatch messages for one density matrix; empty when it matches.

    rho is compared element-wise at tol * max|rho_ref|, w at tol * w_ref
    and g (in [0, 1]) at tol absolute.
    """
    problems = []
    rho, rho_ref = np.asarray(got["rho"]), np.asarray(ref["rho"])
    scale = float(np.abs(rho_ref).max())
    dev = float(np.abs(rho - rho_ref).max())
    if not dev <= tol * scale:
        problems.append(f"rho deviates by {dev:.3e} > {tol:g} * max|rho| = {tol * scale:.3e}")
    if not _close(got["w"], ref["w"], abs(ref["w"]), tol):
        problems.append(f"w = {got['w']!r}, reference {ref['w']!r}")
    if not _close(got["g"], ref["g"], 1.0, tol):
        problems.append(f"g = {got['g']!r}, reference {ref['g']!r}")
    return problems


def compare_sweep(got: dict, ref: dict, tol: float = REL_TOL) -> tuple:
    """(points checked, mismatch messages) for a sweep; a reference point
    that is missing from the output counts as a mismatch."""
    by_key = {(p["species"], p["n_cycles"]): p for p in got["points"]}
    problems = []
    for rp in ref["points"]:
        key = (rp["species"], rp["n_cycles"])
        p = by_key.get(key)
        if p is None:
            problems.append(f"{key[0]} N={key[1]}: point missing")
        elif not (_close(p["g"], rp["g"], 1.0, tol)
                  and _close(p["w"], rp["w"], abs(rp["w"]), tol)):
            problems.append(f"{key[0]} N={key[1]}: (g, w) = ({p['g']!r}, "
                            f"{p['w']!r}), reference ({rp['g']!r}, {rp['w']!r})")
    return len(ref["points"]), problems
