"""Shared test settings and helpers.

Property tests run under a derandomized Hypothesis profile with no
per-example deadline: the same examples every run, and no flaky failures
when a loaded machine makes one example slow.
"""

import functools
import os
import pathlib
import resource
import signal
import subprocess
import sys

import pytest
from hypothesis import settings

settings.register_profile("ccfmap", derandomize=True, deadline=None)
settings.load_profile("ccfmap")

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _child_env(threads: str) -> dict:
    # one BLAS thread: OpenBLAS reserves a stack per thread, which counts
    # toward the child's address space
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", CCF_THREADS=threads)


@functools.cache
def _numpy_base() -> int:
    """Bytes of address space a child has after `import numpy`."""
    code = ("import numpy\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmSize:')))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env("1"), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return int(out) * 1024


def _run_ccfmap(argv, above_base=None, threads="1", cwd=None, timeout=120, prelude=None):
    """Run `python -m ccfmap ARGV` in a child at CCF_THREADS=threads; with
    above_base, under RLIMIT_AS of the child's base after `import numpy`
    plus above_base bytes, which forked workers inherit. With prelude, the
    child runs that code first and then ccfmap's main. A child still
    running after timeout seconds is killed with its workers and the run
    fails the test, and so does a worker that outlives the child. Returns
    the CompletedProcess."""
    limit = None if above_base is None else _numpy_base() + above_base

    def limit_address_space():
        if limit is not None:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    run = ["-m", "ccfmap"] if prelude is None else [
        "-c", f"{prelude}\nimport sys\nfrom ccfmap.cli import main\nsys.exit(main(sys.argv[1:]))"]
    proc = subprocess.Popen([sys.executable, *run, *map(str, argv)], cwd=cwd,
                            env=_child_env(threads), preexec_fn=limit_address_space,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"ccfmap {argv[0]} still running after {timeout} s")
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # its session: the workers it forked
    except ProcessLookupError:
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)
    pytest.fail(f"ccfmap {argv[0]} left a worker running")


@pytest.fixture
def run_ccfmap():
    """_run_ccfmap: a ccfmap command in a child process, optionally under
    an address-space limit. The base is read from /proc, so Linux only."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("the address-space base is read from /proc/self/status")
    return _run_ccfmap


@pytest.fixture
def stand_in_pool(monkeypatch):
    """Replace ProcessPoolExecutor with a pool that runs each task in this
    process only when its result is read. Returns its log: ("submit",
    task) for each submit and ("cancel", task) for each cancel."""
    from concurrent import futures

    from ccfmap import forest

    log = []

    class Future:
        def __init__(self, fn, task):
            self.fn, self.task = fn, task

        def result(self, timeout=None):
            return self.fn(self.task)

        def cancel(self):
            log.append(("cancel", self.task))
            return True

    class Pool:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            log.append(("submit", task))
            return Future(fn, task)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(forest, "_held_task", None)  # the initializer sets it here
    return log
