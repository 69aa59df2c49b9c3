"""One `sowp` CLI invocation in a fresh benchmark process.

    python3 bench/child.py REPORT MODE -- CLI-ARGS...

Run from the root of a source checkout; `sowp` is imported from ./src.
MODE is one of

    run     the plain CLI run
    setup   stop at the first call into a compute layer (set-up probe)
    trace   the CLI run with timing spans around every traced entry point

The child writes a JSON report to REPORT (the CLOCK_MONOTONIC time of the
first compute call, the CLI exit status and, when traced, the spans) and
exits with the CLI's exit status.
"""

import dataclasses
import json
import os
import sys
import time

# sowp.cli names through which every command reaches a compute layer
COMPUTE_ENTRIES = ("build_density_matrix", "buildup", "coherence_sweep")
TRACE_ERROR_STATUS = 97


class _SetupDone(BaseException):
    """Unwinds the CLI at the first compute call of a set-up probe."""


def _first_call_stamp(fn, stamps, stop):
    def first_call(*args, **kwargs):
        if not stamps:
            stamps.append(time.monotonic())
            if stop:
                raise _SetupDone
        return fn(*args, **kwargs)
    return first_call


def main(argv) -> int:
    report_path, mode, sep, *cli_argv = argv
    if sep != "--" or mode not in ("run", "setup", "trace"):
        raise SystemExit("usage: child.py REPORT run|setup|trace -- CLI-ARGS...")
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, src)
    import sowp.cli as cli
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"sowp imported from {cli.__file__}, not from {src}")

    stamps = []
    for name in COMPUTE_ENTRIES:
        setattr(cli, name, _first_call_stamp(getattr(cli, name), stamps,
                                             mode == "setup"))
    report = {"mode": mode}
    tracer = None
    if mode == "trace":
        from tracing import SITES, TraceError, Tracer
        tracer = Tracer()
        try:
            tracer.install(SITES)
        except TraceError as exc:
            report["trace_error"] = str(exc)
            _write(report_path, report)
            return TRACE_ERROR_STATUS

    try:
        if tracer is None:
            status = cli.main(cli_argv)
        else:
            with tracer.span("cli.main"):
                status = cli.main(cli_argv)
    except _SetupDone:
        status = 0
    report["status"] = status
    report["first_compute"] = stamps[0] if stamps else None
    if tracer is not None:
        report["overhead_s"] = tracer.overhead_s
        report["spans"] = [dataclasses.astuple(s) for s in tracer.spans]
    _write(report_path, report)
    return status


def _write(path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
