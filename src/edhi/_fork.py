"""Two-core work: a job's second share run in one forked child.

Two stages run on two cores this way: the generic CSV parse
(``data.parse_generic``) and the reconstruction-error target curves
(``pipeline``). Each stage decides for itself whether its job is large
enough to split, then asks ``can_fork`` whether a child would get a core of
its own: on Linux, with at least two usable CPUs and no other OS thread in
the process. ``run_split`` then runs the two shares, one in the parent and
one in the child, and returns both results as a serial run would. A child
that fails in any way costs only time: its share is run again in the
parent, so errors are those of a serial run. No child outlives the call,
whether it returns or raises.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return 1 if getaffinity is None else len(getaffinity(0))


def _single_threaded() -> bool:
    """Whether this process runs one OS thread: no other Python thread and
    no native one, such as a BLAS pool's. False where /proc cannot say."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def can_fork() -> bool:
    """Whether a forked child would get a core of its own.

    A child forked beside other threads inherits their locks but not the
    threads. A BLAS pool would also run in both processes and fight over the
    cores: with OpenBLAS on two threads, forked FD001 targets took 1.45 s
    against 0.56 s serially.
    """
    return _usable_cpus() >= 2 and _single_threaded()


def _reap(pid: int) -> int | None:
    """Wait for a child; its wait status, or None if something else reaped
    it (a process that ignores SIGCHLD, or a handler that waits for any
    child)."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return None


def _send_pickled(result, pipe) -> None:
    pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)


def _receive_pickled(pipe, first):
    return pickle.load(pipe)


def run_split(first, second, send=_send_pickled, receive=_receive_pickled) -> tuple:
    """``(first(), second())``, with ``second()`` run in a forked child.

    The child writes its result into a pipe with ``send(result, pipe)``.
    Once ``first()`` has returned here, ``receive(pipe, first_result)``
    reads it back; by default the result travels pickled. If the child
    exits nonzero for any reason (an exception, a signal, a fault in
    ``send``), or was reaped elsewhere, whatever ``receive`` made of its
    pipe is dropped and ``second()`` runs here, so a failure raises what a
    serial run raises. If this process raises, the child is killed and
    reaped before the error propagates.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            result = second()
            with os.fdopen(write_fd, "wb") as pipe:
                send(result, pipe)
            code = 0
        finally:
            # no atexit handlers, no second flush of inherited buffers
            os._exit(code)
    os.close(write_fd)
    fault = None
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            mine = first()
            try:
                theirs = receive(pipe, mine)
            except Exception as exc:  # the child stopped mid-way, or a fault here
                fault = exc
            # to EOF before waitpid: a child blocked on a full pipe never exits
            pipe.read()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):  # reaped elsewhere
            os.kill(pid, signal.SIGKILL)
        _reap(pid)
        raise
    if _reap(pid) != 0:
        theirs = None  # dropped before the share is run again
        return mine, second()
    if fault is not None:
        raise fault
    return mine, theirs
