"""Forked worker processes, for the two parallel paths of the package.

A sweep deals its pulses to workers (``sowp.analysis``), and a pass of
one pulse gives half of its channels to one worker
(``sowp.amplitude``).  Both start and reap their workers with ``Forks``,
and send results back pickled, with the warnings they showed
(``recorded``, ``show_again``).
"""

import contextlib
import ctypes
import os
import signal
import sys
import warnings

# the thread-count functions of OpenBLAS, by the symbol names of its builds
_OPENBLAS_THREADS = [f"{prefix}_{{}}_num_threads{suffix}"
                     for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_")]


@contextlib.contextmanager
def _one_blas_thread():
    """Each OpenBLAS mapped into this process (as /proc/self/maps lists it)
    on one thread inside the block, and on its own count again after it;
    nothing changes where none is found.  Its idle threads spin, so
    processes that each keep several would take turns on the cores."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        paths = []
    restore = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:     # not loadable by that name, e.g. deleted since
            continue
        name = next((n for n in _OPENBLAS_THREADS if hasattr(lib, n.format("set"))), None)
        if name is not None:
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            restore.append((put, get()))
            put(1)
    try:
        yield
    finally:
        for put, threads in restore:
            put(threads)


class Forks:
    """A with block whose processes are forked by ``start``.  OpenBLAS runs
    on one thread in this process and in every worker until the block
    ends (_one_blas_thread).  On leaving it, each worker is killed if the
    block raised, and every one is reaped; ``statuses`` then holds their
    exit statuses, in start order."""

    def __init__(self):
        self.pids, self.statuses = [], []
        self._blas = _one_blas_thread()

    def __enter__(self):
        self._blas.__enter__()
        return self

    def __exit__(self, kind, value, traceback):
        try:
            if kind is not None:    # stop the workers still running
                for pid in self.pids:
                    os.kill(pid, signal.SIGKILL)
            for pid in self.pids:   # reap every worker, whatever happened
                self.statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        finally:
            self._blas.__exit__(None, None, None)

    def start(self, work) -> None:
        """Fork a worker that runs work() and exits: with status 0 once it
        returns, else 1, after the traceback of an Exception on stderr.
        It is forked with every signal blocked, and takes this process's
        signal mask only inside its try, so no signal handler's exception
        can carry it back into this process's frames."""
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        try:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    work()
                    status = 0
                except Exception:   # say why on stderr; the caller names what it lost
                    sys.excepthook(*sys.exc_info())
                    sys.stderr.flush()
                finally:
                    os._exit(status)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self.pids.append(pid)


def recorded(fn):
    """(fn(), the warnings it showed), the warnings as the arguments of
    ``warnings.showwarning``, so that they can be pickled."""
    with warnings.catch_warnings(record=True) as shown:
        result = fn()
    return result, [(w.message, w.category, w.filename, w.lineno) for w in shown]


def show_again(shown) -> None:
    """Show the warnings of ``recorded`` in this process, in their order."""
    for warning in shown:
        warnings.showwarning(*warning)
