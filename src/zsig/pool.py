"""The fork-and-pipe pool of a sweep over more than one worker; nothing else
imports it, and it imports nothing from ``zsig``.

``imap`` forks its children up front.  Child k runs tasks k, k + workers, ...
of its own copy of the task iterator and sends the results back over its one
pipe as pickles, in batches.  The parent reads result i from child
i % workers and writes nothing to a child: a child that runs ahead blocks on
its full pipe, and the parent waits only on the child whose result is next.
Nothing here starts a thread, so the fork of a single-threaded caller (the
CLI is one) copies no lock that another thread holds.
"""

from __future__ import annotations

import os
import pickle
import signal
from itertools import cycle, islice
from typing import BinaryIO, Callable, Iterable, Iterator

# Largest batch of results: batches grow 1, 2, 4, ... up to it, so the first
# result waits for one task and a long share pays one message per _BATCH.
_BATCH = 32
_END = object()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def imap(run: Callable, workers: int, tasks: Iterable) -> Iterator:
    """``run`` of each task, in order, over ``workers`` forked children.

    Each child reads ``tasks`` from the state it had at the fork, so its state
    must live in this process's memory (a generator or a list iterator, not a
    file); this process never advances it.  An exception that ``run`` or
    ``tasks`` raises in a child re-raises here, in place of the batch it
    stopped.  However the iteration ends (exhausted, closed, an exception or a
    Ctrl-C), every child is killed and reaped before it does.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for k in range(workers):
            _fork(run, islice(tasks, k, None, workers), children)
        for results in cycle([_results(*child) for child in children]):
            result = next(results, _END)
            if result is _END:
                return
            yield result
    finally:
        _stop(children)


def _fork(run: Callable, share: Iterator, children: list[tuple[int, BinaryIO]]) -> None:
    """Fork one more child into ``children``.  SIGINT stays blocked until the
    child ignores it and the parent has listed its pid."""
    reader, writer = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        parent_ends = [reader, *(r.fileno() for _, r in children)]
        pid = os.fork()
        if pid == 0:
            _serve(run, share, writer, mask, parent_ends)
        children.append((pid, open(reader, "rb")))
    except BaseException:  # no child to read from
        os.close(reader)
        raise
    finally:
        os.close(writer)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _serve(run: Callable, share: Iterator, writer: int, mask, parent_ends: list[int]):
    """A child's whole life: send the results of its share in batches, then an
    empty batch, or the exception raised and stop.  It leaves through
    ``os._exit``, so it never returns into the parent's stack and never
    flushes a buffer it inherited."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C stops the parent alone
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in parent_ends:  # else a pipe would not end when the parent closes it
            os.close(fd)
        out, size, ok, batch = open(writer, "wb"), 1, True, [None]
        while ok and batch:  # until an empty batch or an exception is sent
            try:
                batch = [run(task) for task in islice(share, size)]
            except Exception as exc:
                ok, batch = False, exc
            pickle.dump((ok, batch), out, pickle.HIGHEST_PROTOCOL)
            out.flush()
            size = min(2 * size, _BATCH)
        code = 0
    finally:
        os._exit(code)


def _results(pid: int, reader: BinaryIO) -> Iterator:
    """The results one child sends, batch by batch, up to its empty batch."""
    while True:
        try:
            ok, batch = pickle.load(reader)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"pool worker {pid} ended without its results") from None
        if not ok:
            raise batch
        if not batch:
            return
        yield from batch


def _stop(children: list[tuple[int, BinaryIO]]) -> None:
    """With SIGINT blocked, close every pipe, kill each child and reap them all.
    A child whose pipe is closed ends by itself at its next batch, so one that
    a failed kill missed is reaped too."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for _, reader in children:
            reader.close()
        try:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        finally:
            for pid, _ in children:
                os.waitpid(pid, 0)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
