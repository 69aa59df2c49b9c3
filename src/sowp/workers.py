"""Forked worker processes, for the two parallel paths of the package.

A sweep deals its pulses to workers (``sowp.analysis``), and a pass of
one pulse gives half of its channels to one worker
(``sowp.amplitude``).  ``forkable`` decides for both how many processes
may work, and ``Forks`` starts them, brings back what each sends, and
reaps them.  This module alone knows how a worker's result comes back:

- ``Forks.start(work, failure)`` forks a worker that runs work() with
  every warning it shows recorded, once over the whole of work() as in
  one process (so a warning that the worker repeats identically is
  recorded once where one process shows it once), and pickles
  (the value of work(), the warnings) into a pipe of its own.
- ``Forks.results()`` reads each pipe to its end, in start order, reaps
  that worker, shows its warnings again in this process, in their order,
  and returns the values.  A worker that ends without sending its value
  (it died, or work() raised, or the value cannot be pickled: the
  traceback of an Exception is on its stderr) raises
  RuntimeError(failure), its ``{status}`` field filled in with the
  worker's exit status.

A worker exchanges nothing else with this process through ``Forks``; a
path that needs more (the channel split's rows, block by block) keeps its
own pipe, and a worker that writes one must close it before work()
returns, as the value may fill its pipe and wait for this process.

``Forks`` sets no thread policy.  The one such policy of the package,
OpenBLAS on one thread (``_one_blas_thread``), is the saddle-sum pass's:
``sowp.amplitude.amplitude_profiles`` holds it over every pass, in
whatever process runs the pass, and a worker forked inside a pass keeps it.
"""

import contextlib
import ctypes
import os
import pickle
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
    nothing changes where none is found, and the counts come back however
    the block ends.  Its idle threads spin, so processes that each keep
    several would take turns on the cores.  A function decorated with it
    runs so on each call."""
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


def forkable(threads: int) -> int:
    """How many processes may work a command of ``threads`` processes:
    ``threads``, or 1 where os.fork does not exist.  ValueError unless
    ``threads`` >= 1."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return threads if hasattr(os, "fork") else 1


@contextlib.contextmanager
def _blocked():
    """Every signal blocked inside the block; yields the mask before it."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


class Forks:
    """A with block whose processes are forked by ``start`` (see the
    module docstring).  On leaving it, each worker that ``results`` has
    not reaped is killed and reaped: it is still running only if the block
    raised before reading it."""

    def __init__(self):
        self._workers = []      # (pid, the read end of its pipe, failure), not yet reaped

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        for pid, _, _ in self._workers:
            os.kill(pid, signal.SIGKILL)
        for pid, pipe, _ in self._workers:
            pipe.close()
            os.waitpid(pid, 0)

    def start(self, work, failure: str) -> None:
        """Fork a worker that runs work() and sends back its value and
        warnings, then exits: with status 0 once they are sent, else 1,
        after the traceback of an Exception on stderr.  ``failure`` is the
        message of the RuntimeError of ``results`` if the worker ends
        without sending them, with a ``{status}`` field.  It is forked with every signal blocked, and
        takes this process's signal mask only inside its try, so no signal
        handler's exception can carry it back into this process's frames."""
        read, write = os.pipe()
        pipe = os.fdopen(read, "rb")
        try:
            with _blocked() as mask:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        with warnings.catch_warnings(record=True) as shown:
                            value = work()
                        with os.fdopen(write, "wb") as out:
                            pickle.dump((value, [(w.message, w.category, w.filename, w.lineno)
                                                 for w in shown]), out)
                        status = 0
                    except Exception:   # say why on stderr; the caller names what it lost
                        sys.excepthook(*sys.exc_info())
                        sys.stderr.flush()
                    finally:
                        os._exit(status)
                self._workers.append((pid, pipe, failure))
        except BaseException:   # no worker to read from: os.fork raised
            pipe.close()
            raise
        finally:
            os.close(write)

    def results(self) -> list:
        """The values of the workers' work(), in start order (see the
        module docstring); each worker is reaped once its pipe is read."""
        values = []
        while self._workers:
            pid, pipe, failure = self._workers[0]
            sent = pipe.read()      # to its end: the worker has sent or ended
            with _blocked():        # no signal between reaping it and its leaving the list
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del self._workers[0]
            pipe.close()
            if status != 0:
                raise RuntimeError(failure.format(status=status))
            value, shown = pickle.loads(sent)
            for warning in shown:
                warnings.showwarning(*warning)
            values.append(value)
        return values
