"""sowp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  Every CLI invocation is a fresh child process (bench/child.py)
with one BLAS thread, so a process never runs more compute threads than
the sweep's two workers.  Each output is checked against the frozen
references in bench/references.json.

--trace 0 measures the end-to-end metrics with tracing off: several
set-up probes, then full invocations until S seconds have passed (at least
one).  --trace 1 runs the same invocations with timing spans around each
module's entry points and reports the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  Details of
each run are kept in .bench_work/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from child import TRACE_ERROR_STATUS
from tracing import Span, self_times
from workloads import (WORKLOADS, compare_matrix, compare_sweep,
                       load_references, read_outputs, reference_for, variant)

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".bench_work"
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0

# The environment of every child process: identical across runs.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
_PASSED_THROUGH = ("PATH", "HOME", "PYTHONPATH")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("nodes_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("saddle.batch_s", "s"),
    ("saddle.eig_s", "s"),
    ("saddle.self_s", "s"),
    ("saddle.eig_frac", "ratio"),
    ("saddle.eig_matrices", "count"),
    ("saddle.eig_degree", "count"),
    ("saddle.eig_per_node", "count"),
    ("saddle.eig_gflops_computed", "Gflop"),
    ("saddle.eig_bytes_computed", "B"),
    ("saddle.solves_per_node", "count"),
    ("pulse.eval_s", "s"),
    ("pulse.eval_elems", "count"),
    ("pulse.eval_calls", "count"),
    ("amplitude.self_s", "s"),
    ("densmat.self_s", "s"),
    ("analysis.buildup_self_s", "s"),
    ("analysis.sweep_busy_s", "s"),
    ("analysis.sweep_parallel_eff", "ratio"),
    ("dynamics.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
)

# Spans that must fire at least once on each workload.
_COMMON_SPANS = {"cli.main", "cli.signal_parameters", "amplitude.saddle_batch",
                 "numpy.linalg.eigvals", "pulse.vector_potential",
                 "pulse.vector_potential_derivative"}
EXPECTED_SPANS = {
    "ref_buildup": _COMMON_SPANS | {"cli.buildup", "analysis.amplitude_profiles",
                                    "analysis.find_saddles", "saddle.saddle_batch"},
    "long_pulse": _COMMON_SPANS | {"cli.build_density_matrix", "cli.signal_trace",
                                   "densmat.amplitude_profiles"},
    "short_sweep": {"cli.main", "cli.coherence_sweep",
                    "analysis.build_density_matrix", "densmat.amplitude_profiles",
                    "amplitude.saddle_batch", "numpy.linalg.eigvals",
                    "pulse.vector_potential", "pulse.vector_potential_derivative"},
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def child_env() -> dict:
    env = {k: os.environ[k] for k in _PASSED_THROUGH if k in os.environ}
    env.update(CHILD_ENV)
    return env


def environment_record() -> dict:
    """Machine, interpreter, numpy/BLAS and the child environment."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": dict(CHILD_ENV),
    }


def spawn(mode: str, cli_argv: list, tag: str, work: str) -> dict:
    """Run one child; returns its wall time, start time, exit status,
    peak RSS and report."""
    report_path = os.path.join(work, f"{tag}.report.json")
    log_path = os.path.join(work, f"{tag}.log")
    cmd = [sys.executable, CHILD, report_path, mode, "--", *cli_argv]
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    report = {}
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    with open(log_path, encoding="utf-8") as fh:
        log_text = fh.read()
    return {"t0": t0, "wall": t1 - t0, "status": proc.returncode,
            "rss_mib": usage.ru_maxrss / 1024.0, "report": report,
            "log": log_text}


def check_outputs(workload, refs, seed, status, out_dir) -> tuple:
    """(ops attempted, ops failed, problems) for one full invocation."""
    ref = reference_for(refs, workload, seed)
    ops = len(ref["points"]) if workload.command == "sweep" else 1
    if status != 0:
        return ops, ops, [f"exit status {status}"]
    try:
        got = read_outputs(workload, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return ops, ops, [f"unreadable output: {exc}"]
    if workload.command == "sweep":
        _, problems = compare_sweep(got, ref)
        return ops, len(problems), problems
    problems = compare_matrix(got, ref)
    return ops, (1 if problems else 0), problems


def _sum(xs) -> float:
    return float(sum(xs))


def layer_metrics(spans, overhead_s, workload, out_dir, wall) -> dict:
    """Per-layer metrics of one traced invocation."""
    selfs = self_times(spans)
    names = {}
    for s in spans:
        names.setdefault(s.name, []).append(s)

    def pick(*wanted):
        return [s for n in wanted for s in names.get(n, [])]

    def dur(*wanted):
        return _sum(s.duration for s in pick(*wanted))

    def self_of(*wanted):
        return _sum(selfs[s.id] for s in pick(*wanted))

    batches = ("amplitude.saddle_batch", "saddle.saddle_batch")
    pulse = ("pulse.vector_potential", "pulse.vector_potential_derivative")
    eig = pick("numpy.linalg.eigvals")
    node_channels = 2 * workload.nodes
    batch_s, eig_s = dur(*batches), dur("numpy.linalg.eigvals")
    sweep_s = dur("cli.coherence_sweep")
    busy = _sum(s.cpu for s in pick("analysis.build_density_matrix"))
    written = _sum(os.path.getsize(os.path.join(out_dir, f))
                   for f in os.listdir(out_dir))
    return {
        "saddle.batch_s": batch_s,
        "saddle.eig_s": eig_s,
        "saddle.self_s": self_of(*batches),
        "saddle.eig_frac": eig_s / batch_s if batch_s else 0.0,
        "saddle.eig_matrices": _sum(s.n for s in eig),
        "saddle.eig_degree": float(max((s.deg for s in eig), default=0)),
        "saddle.eig_per_node": _sum(s.n for s in eig) / node_channels,
        "saddle.eig_gflops_computed": _sum(10.0 * s.n * s.deg ** 3 for s in eig) / 1e9,
        "saddle.eig_bytes_computed": _sum(16.0 * s.n * s.deg ** 2 for s in eig),
        "saddle.solves_per_node": _sum(s.n for s in pick(*batches)) / node_channels,
        "pulse.eval_s": dur(*pulse),
        "pulse.eval_elems": _sum(s.n for s in pick(*pulse)),
        "pulse.eval_calls": float(len(pick(*pulse))),
        "amplitude.self_s": self_of("analysis.amplitude_profiles",
                                    "densmat.amplitude_profiles"),
        "densmat.self_s": self_of("cli.build_density_matrix",
                                  "analysis.build_density_matrix"),
        "analysis.buildup_self_s": self_of("cli.buildup"),
        "analysis.sweep_busy_s": busy,
        "analysis.sweep_parallel_eff": (busy / (sweep_s * workload.threads)
                                        if sweep_s else 0.0),
        "dynamics.self_s": self_of("cli.signal_parameters", "cli.signal_trace"),
        "cli.self_s": self_of("cli.main"),
        "cli.bytes_written": written,
        "trace.overhead_s": overhead_s,
        "trace.spans": float(len(spans)),
        "trace.wall_s": wall,
    }


def run_benchmark(workload, seed, seconds, trace, work) -> dict:
    refs = load_references()
    var = variant(seed)
    samples = {"wall_s": [], "setup_s": [], "nodes_per_s": [], "peak_rss_mib": []}
    layers = []
    attempted = failed = 0
    problems = []

    if not trace:
        for i in range(SETUP_PROBES):
            r = spawn("setup", workload.argv(var, os.path.join(work, f"setup{i}")),
                      f"setup{i}", work)
            first = r["report"].get("first_compute")
            if r["status"] != 0 or first is None:
                raise BenchError(f"set-up probe failed (status {r['status']}):\n{r['log']}")
            samples["setup_s"].append(first - r["t0"])

    started = time.monotonic()
    i = 0
    while True:
        out_dir = os.path.join(work, f"inv{i}")
        r = spawn("trace" if trace else "run", workload.argv(var, out_dir),
                  f"inv{i}", work)
        if r["status"] == TRACE_ERROR_STATUS:
            raise BenchError(r["report"].get("trace_error", r["log"]))
        ops, bad, why = check_outputs(workload, refs, seed, r["status"], out_dir)
        attempted += ops
        failed += bad
        problems += why
        if why and r["log"]:
            problems.append(r["log"].strip()[-2000:])
        first = r["report"].get("first_compute")
        if trace and r["status"] == 0:
            spans = [Span(*s) for s in r["report"]["spans"]]
            fired = {s.name for s in spans}
            missing = sorted(EXPECTED_SPANS[workload.name] - fired)
            if missing:
                raise BenchError(f"spans with zero calls on {workload.name}: {missing}")
            layers.append(layer_metrics(spans, r["report"]["overhead_s"],
                                        workload, out_dir, r["wall"]))
        elif not trace and r["status"] == 0 and first is not None:
            setup = first - r["t0"]
            samples["wall_s"].append(r["wall"])
            samples["setup_s"].append(setup)
            samples["nodes_per_s"].append(workload.nodes / (r["wall"] - setup))
            samples["peak_rss_mib"].append(r["rss_mib"])
        shutil.rmtree(out_dir, ignore_errors=True)
        i += 1
        elapsed = time.monotonic() - started
        if elapsed >= seconds or elapsed + r["wall"] > RUN_BUDGET_S:
            break

    if trace:
        if not layers:
            raise BenchError("no traced invocation succeeded:\n" + "\n".join(problems))
        metrics = {name: (statistics.median(l[name] for l in layers), unit)
                   for name, unit in PER_LAYER}
        counts = {"invocations": len(layers)}
    else:
        if not samples["wall_s"]:
            raise BenchError("no invocation succeeded:\n" + "\n".join(problems))
        metrics = {name: (statistics.median(samples[name]), unit)
                   for name, unit in END_TO_END}
        counts = {name: len(v) for name, v in samples.items()}
    return {"workload": workload.name, "seed": seed, "variant": var,
            "trace": trace, "attempted": attempted, "failed": failed,
            "problems": problems, "metrics": metrics, "samples": counts,
            "raw": samples if not trace else layers,
            "env": environment_record()}


def report_lines(res: dict) -> list:
    var = res["variant"]
    lines = [f"# workload {res['workload']}  seed {res['seed']}  variant "
             f"{var['variant']} ({var['wavelength_nm']:g} nm, "
             f"{var['intensity_wcm2']:.4g} W/cm^2)  trace {int(res['trace'])}",
             f"# env {json.dumps(res['env'], sort_keys=True)}"]
    for name, (value, unit) in res["metrics"].items():
        n = res["samples"].get(name, res["samples"].get("invocations"))
        lines.append(f"{name:30s} {value:16.6g} {unit:6s} median of {n}")
    frac = res["failed"] / res["attempted"]
    lines.append(f"{'ops_failed_frac':30s} {frac:16.6g} {'ratio':6s} "
                 f"{res['failed']} of {res['attempted']} ops")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sowp", "cli.py")):
        print("bench: no src/sowp/cli.py here; run from the root of a sowp "
              "source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        res = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = os.path.join(WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-seed{args.seed}-trace"
                           f"{args.trace}-{os.getpid()}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    for problem in res["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print("\n".join(report_lines(res)))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
