"""The fork-and-pipe pool of a sweep over more than one worker; nothing else
imports it.

``imap`` forks its children up front, each with a task pipe and a result pipe
that carry length-prefixed pickles.  Chunk j goes to child j % workers and the
results are read back in chunk order.  Nothing here starts a thread, so the
fork of a single-threaded caller (the CLI is one) copies no lock that another
thread holds.  The parent never blocks on a write: its task pipes do not
block, and the bytes they do not take go out while it waits for a result, so
it never waits on a child that is itself blocked writing a result, whatever
the message sizes.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator

# Largest number of tasks in one chunk.  Chunks grow 1, 2, 4, ... up to it, so
# the first result waits for one task, a short list of heavy tasks still
# reaches every child, and a long one pays one message per _CHUNK.
_CHUNK = 32
_HEADER = struct.Struct("<Q")  # the byte length of the pickle that follows


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Child:
    """A forked child as the parent sees it: its pid, the write end of its task
    pipe, the read end of its result pipe, and the task bytes not yet written."""

    def __init__(self, pid: int, tasks: int, results: int) -> None:
        self.pid, self.tasks, self.results, self.unsent = pid, tasks, results, bytearray()


def imap(run: Callable, workers: int, tasks: Iterable) -> Iterator:
    """``run`` of each task, in order, over ``workers`` forked children.

    At most 2 x workers chunks are out at once, so ``tasks`` is read only as
    far as that window reaches.  An exception that ``run`` raises in a child
    re-raises here.  However the iteration ends (exhausted, closed, an
    exception or a Ctrl-C), every child is killed and reaped before it does.
    """
    sizes = chain((2**i for i in range(_CHUNK.bit_length() - 1)), repeat(_CHUNK))
    chunks = iter(lambda: list(islice(tasks, next(sizes))), [])
    children: list[_Child] = []
    sent = received = 0
    try:
        for _ in range(workers):
            _fork(run, children)
        for chunk in islice(chunks, 2 * workers):
            _post(children[sent % workers], chunk)
            sent += 1
        while received < sent:
            results = _collect(children[received % workers], children)
            received += 1
            for chunk in islice(chunks, 1):
                _post(children[sent % workers], chunk)
                sent += 1
            yield from results
    finally:
        _stop(children)


def _fork(run: Callable, children: list[_Child]) -> None:
    """Fork one more child into ``children``.  SIGINT stays blocked until the
    child ignores it and the parent has listed its pid."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            parent_ends = [task_w, result_r, *(fd for c in children for fd in (c.tasks, c.results))]
            _serve(run, task_r, result_w, mask, parent_ends)
        children.append(_Child(pid, task_w, result_r))
        os.close(task_r)
        os.close(result_w)
        os.set_blocking(task_w, False)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _serve(run: Callable, tasks: int, results: int, mask, parent_ends: list[int]):
    """A child's whole life: answer each chunk with its results or the
    exception raised, until the task pipe ends.  It leaves through
    ``os._exit``, so it never returns into the parent's stack and never
    flushes a buffer it inherited."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C stops the parent alone
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in parent_ends:  # else a task pipe would not end when the parent closes it
            os.close(fd)
        while (chunk := _recv(tasks)) is not None:
            try:
                reply = True, [run(task) for task in chunk]
            except Exception as exc:
                reply = False, exc
            data = _pack(reply)
            while data:
                data = data[os.write(results, data):]
        code = 0
    finally:
        os._exit(code)


def _pack(obj) -> memoryview:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return memoryview(_HEADER.pack(len(data)) + data)


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``; b"" if it ends before the first of them."""
    parts, left = [], size
    while left:
        part = os.read(fd, left)
        if not part:
            if left < size:
                raise EOFError("a pool message ended early")
            return b""
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def _recv(fd: int):
    """The next message on ``fd``, or None where the pipe ends before one."""
    header = _read(fd, _HEADER.size)
    return pickle.loads(_read(fd, *_HEADER.unpack(header))) if header else None


def _post(child: _Child, chunk: list) -> None:
    """Queue ``chunk`` for ``child`` and write what its task pipe takes now."""
    child.unsent += _pack(chunk)
    _flush(child)


def _flush(child: _Child) -> None:
    try:
        while child.unsent:
            del child.unsent[: os.write(child.tasks, child.unsent)]
    except BlockingIOError:
        pass


def _collect(child: _Child, children: list[_Child]) -> list:
    """The results of the oldest chunk out at ``child``.  Until they come, the
    unsent task bytes go out as their pipes take them; the child may need its
    own, but once its answer starts it needs nothing more to finish it."""
    readable = []
    while not readable:
        pending = [c.tasks for c in children if c.unsent]
        readable, writable, _ = select.select([child.results], pending, [])
        for c in children:
            if c.tasks in writable:
                _flush(c)
    reply = _recv(child.results)
    if reply is None:
        raise RuntimeError(f"pool worker {child.pid} ended without its results")
    ok, value = reply
    if not ok:
        raise value
    return value


def _stop(children: list[_Child]) -> None:
    """With SIGINT blocked, close every pipe, kill each child and reap them all.
    A child whose pipes are closed ends by itself after its chunk, so one that
    a failed kill missed is reaped too."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for child in children:
            os.close(child.tasks)
            os.close(child.results)
        try:
            for child in children:
                os.kill(child.pid, signal.SIGKILL)
        finally:
            for child in children:
                os.waitpid(child.pid, 0)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
