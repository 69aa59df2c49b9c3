"""Self-tests of the benchmark: span arithmetic, the tracer's parent links
across threads, and the reference comparator.

    python3 -m pytest -q bench
"""

import concurrent.futures
import json
import os
import sys
import threading

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import (Span, TraceError, Tracer, count_matrices, count_points,  # noqa: E402
                     self_times, union_length)
from workloads import (N_VARIANTS, REFERENCES_PATH, WORKLOADS, compare_matrix,  # noqa: E402
                       compare_sweep, decode, encode, read_densmat, variant)


# --- self-time arithmetic -----------------------------------------------

def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(1.0, 4.0), (2.0, 3.0)]) == 3.0
    assert union_length([(0.0, 1.0), (2.0, 5.0), (4.0, 6.0)]) == 5.0
    assert union_length([(2.0, 3.0), (0.0, 1.0)]) == 2.0


def test_self_time_of_nested_spans():
    spans = [Span(0, -1, "root", 1, 0.0, 10.0),
             Span(1, 0, "child", 1, 1.0, 4.0),
             Span(2, 1, "grandchild", 1, 2.0, 3.0),
             Span(3, 0, "child", 1, 5.0, 9.0)]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(4.0)


def test_self_time_with_two_overlapping_threads():
    # a sweep on thread 1 whose two workers overlap: the covered part is
    # the union [1, 8], not the sum 5 + 5
    spans = [Span(0, -1, "sweep", 1, 0.0, 10.0),
             Span(1, 0, "point", 2, 1.0, 6.0),
             Span(2, 0, "point", 3, 3.0, 8.0),
             Span(3, 1, "inner", 2, 2.0, 5.0)]
    st = self_times(spans)
    assert st[0] == pytest.approx(3.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(5.0)


def test_child_interval_is_clipped_to_its_parent():
    spans = [Span(0, -1, "p", 1, 0.0, 4.0), Span(1, 0, "c", 2, 3.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_nests_worker_spans_under_the_submitting_span():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)

    def point(x):
        barrier.wait()           # both workers are inside "point" at once
        sum(i * i for i in range(20000))
        return traced_inner(x)

    traced_point = tracer.wrap("point", point)
    with tracer.span("sweep"):
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(traced_point, [1, 2]))
    assert results == [2, 3]

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (sweep,) = by_name["sweep"]
    points = by_name["point"]
    assert len(points) == 2 and len({p.thread for p in points}) == 2
    assert all(p.parent == sweep.id for p in points)
    point_ids = {p.id: p.thread for p in points}
    for s in by_name["inner"]:
        assert point_ids[s.parent] == s.thread
    st = self_times(tracer.spans)
    covered = union_length((p.start, p.end) for p in points)
    assert st[sweep.id] == pytest.approx(sweep.duration - covered)
    assert 0.0 <= st[sweep.id] <= sweep.duration
    assert all(0.0 < p.cpu for p in points)
    assert tracer.overhead_s > 0.0


def test_tracer_install_wraps_the_module_attribute():
    original = json.dumps
    tracer = Tracer()
    try:
        tracer.install([("json.dumps", "json", "dumps", lambda a, k: (0, 0))])
        assert json.dumps is not original and json.dumps([1]) == "[1]"
    finally:
        json.dumps = original
    assert [s.name for s in tracer.spans] == ["json.dumps"]


def test_vanished_name_fails_loudly():
    with pytest.raises(TraceError, match="vanished"):
        Tracer().install([("x", "json", "no_such_function", lambda a, k: (0, 0))])
    with pytest.raises(TraceError, match="vanished"):
        Tracer().install([("x", "json:NoSuchClass", "f", lambda a, k: (0, 0))])


def test_counts_from_arguments():
    assert count_matrices((np.zeros((5, 38, 38), complex),), {}) == (5, 38)
    assert count_points((None, -0.1, np.zeros(12800), np.zeros(12800)), {}) == (12800, 0)
    assert count_points((None, -0.1), {"pz": np.zeros(3), "pperp2": np.zeros(3)}) == (3, 0)


# --- reference comparator ------------------------------------------------

def _hermitian(seed=3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = 1e-3 * (a @ a.conj().T)
    return {"rho": rho, "w": float(np.trace(rho).real), "g": 0.8369}


def _perturbed(ref, rel):
    rho = ref["rho"].copy()
    rho[4, 2] += rel * np.abs(ref["rho"]).max()
    return {"rho": rho, "w": ref["w"], "g": ref["g"]}


def test_comparator_passes_identical_and_roundoff_level_changes():
    ref = _hermitian()
    assert compare_matrix(ref, ref) == []
    assert compare_matrix(_perturbed(ref, 1e-13), ref) == []
    scaled = {"rho": ref["rho"] * (1 + 1e-13), "w": ref["w"] * (1 + 1e-13),
              "g": ref["g"] + 1e-13}
    assert compare_matrix(scaled, ref) == []


def test_comparator_fails_a_1e6_perturbation():
    ref = _hermitian()
    assert compare_matrix(_perturbed(ref, 1e-6), ref)
    scaled = {"rho": ref["rho"] * (1 + 1e-6), "w": ref["w"] * (1 + 1e-6),
              "g": ref["g"]}
    assert len(compare_matrix(scaled, ref)) == 2
    assert compare_matrix({**ref, "g": ref["g"] + 1e-6}, ref)
    assert compare_matrix({**ref, "rho": ref["rho"] * np.nan}, ref)


def test_sweep_comparator_counts_missing_and_drifted_points():
    ref = {"points": [{"species": s, "n_cycles": n, "g": 0.5, "w": 1e-3}
                      for s in ("F", "Cl") for n in (2, 3)]}
    got = {"points": [dict(p) for p in ref["points"]]}
    assert compare_sweep(got, ref) == (4, [])
    got["points"][1]["g"] += 1e-6
    del got["points"][3]
    n, problems = compare_sweep(got, ref)
    assert n == 4 and len(problems) == 2


def test_densmat_csv_round_trip(tmp_path):
    ref = _hermitian()
    lines = [f"# w = {ref['w']:.17g}", f"# g = {ref['g']:.17g}", "jp,mp,j,m,re,im"]
    lines += [f"1.5,0.5,0.5,0.5,{z.real:.17g},{z.imag:.17g}" for z in ref["rho"].ravel()]
    path = tmp_path / "densmat.csv"
    path.write_text("\n".join(lines) + "\n")
    got = read_densmat(str(path))
    assert np.array_equal(got["rho"], ref["rho"]) and got["w"] == ref["w"]
    assert compare_matrix(decode(json.loads(json.dumps(encode(got)))), ref) == []


@pytest.mark.skipif(not os.path.exists(REFERENCES_PATH), reason="references not frozen")
def test_frozen_references_cover_every_variant_and_reject_drift():
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    assert sorted(refs["variants"], key=int) == [str(v) for v in range(N_VARIANTS)]
    for v, entry in refs["variants"].items():
        assert entry["wavelength_nm"] == variant(int(v))["wavelength_nm"]
        for name in WORKLOADS:
            ref = decode(entry[name])
            if "points" in ref:
                assert len(ref["points"]) == 6
                continue
            assert compare_matrix(ref, ref) == []
            assert compare_matrix(_perturbed(ref, 1e-6), ref)
            assert compare_matrix(_perturbed(ref, 1e-13), ref) == []


# --- seeds ---------------------------------------------------------------

def test_seed_zero_is_the_paper_reference_and_seeds_are_deterministic():
    assert variant(0) == {"variant": 0, "wavelength_nm": 1800.0,
                          "intensity_wcm2": 1.3e13}
    assert variant(N_VARIANTS + 3) == variant(3)
    seen = set()
    for v in range(1, N_VARIANTS):
        var = variant(v)
        assert abs(var["wavelength_nm"] / 1800.0 - 1.0) <= 0.01
        assert abs(var["intensity_wcm2"] / 1.3e13 - 1.0) <= 0.03
        seen.add((var["wavelength_nm"], var["intensity_wcm2"]))
    assert len(seen) == N_VARIANTS - 1
