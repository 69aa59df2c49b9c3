"""The return path of a forked worker (sowp.workers.Forks)."""

from sowp.workers import Forks


def test_value_larger_than_a_pipe_comes_back_whole(deadline):
    # a value that fills the pipe many times over: the caller reads it to
    # its end before it reaps the worker
    payload = bytes(range(256)) * 4096
    with Forks() as forks:
        forks.start(lambda: payload, "worker ended with status {status}")
        assert forks.results() == [payload]
