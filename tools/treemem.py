"""Peak memory of one `sowp` command together with every process it starts.

    python tools/treemem.py [--interval S] -- SOWP-ARGS...

Runs `python -m sowp.cli SOWP-ARGS` (sowp imported from ./src) in a child
process, with the environment that the benchmark gives its children
(`child_env` of bench/run.py: one BLAS thread, a fixed hash seed, and of
this process's environment only the variables it passes through), so that
the figures compare with its `peak_rss_mib`.  Every S seconds (default
0.002) it finds the child's descendants by the parent pid in each
/proc/<pid>/stat, reads the proportional set size (the Pss line of
/proc/<pid>/smaps_rollup) of the child and of each of them, and sums
these.  A page shared by k processes adds 1/k of its size to
each Pss, so pages that a forked worker shares with the process it was
forked from count once in the sum.  Everything under /proc is only read.

Prints the peak of the sum, the most processes seen at once, the number of
samples and the interval, and the ru_maxrss that wait4 reports for the
child, which reads only the largest process of the tree.  The last line is
one JSON object with the same figures.  A process that starts and ends
between two samples is not seen.  Linux only.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def child_environment() -> dict:
    """The benchmark's child environment, with ./src first on PYTHONPATH."""
    sys.path.insert(0, BENCH)   # the bench modules import each other by name
    try:
        import run as bench_run
    finally:
        sys.path.remove(BENCH)
    env = bench_run.child_env()
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def children_by_parent() -> dict:
    """{parent pid: [child pids]} over every process listed in /proc."""
    tree = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:     # ended since the listing
            continue
        # pid (comm) state ppid ...: comm may hold spaces and parentheses
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def descendants(root: int) -> list:
    """root and every process below it."""
    tree, found = children_by_parent(), [root]
    for pid in found:
        found.extend(tree.get(pid, []))
    return found


def pss_kib(pid: int):
    """Pss of one process in KiB, or None if it has ended."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--interval", type=float, default=0.002,
                        help="seconds between samples")
    parser.add_argument("sowp_args", nargs=argparse.REMAINDER,
                        help="-- then the sowp command line")
    args = parser.parse_args(argv)
    sowp_args = args.sowp_args[1:] if args.sowp_args[:1] == ["--"] else args.sowp_args
    if not sowp_args or args.interval <= 0:
        parser.error("give a positive --interval and a sowp command after --")

    child = subprocess.Popen([sys.executable, "-m", "sowp.cli", *sowp_args],
                             env=child_environment())
    peak_kib = peak_procs = samples = 0
    while True:
        sizes = [kib for kib in map(pss_kib, descendants(child.pid)) if kib is not None]
        samples += 1
        peak_kib = max(peak_kib, sum(sizes))
        peak_procs = max(peak_procs, len(sizes))
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        time.sleep(args.interval)
    child.returncode = os.waitstatus_to_exitcode(status)

    result = {"command": ["sowp", *sowp_args], "exit_status": child.returncode,
              "interval_s": args.interval, "samples": samples,
              "peak_tree_pss_mib": peak_kib / 1024.0, "peak_processes": peak_procs,
              "ru_maxrss_mib": usage.ru_maxrss / 1024.0}
    for key, value in result.items():
        print(f"{key:20s} {value}")
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
