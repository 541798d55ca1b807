"""Running a sweep spec into a JSONL record file: loading the spec, the grid's
verdicts in grid order through ``pool.imap``, the record format and the
resume.

A record is one line, ``{"v":1,"key":...}`` and then the verdict's fields,
written and flushed as its verdict comes.  A resume reads the file once from
its start and checks each complete record's key against the grid's next point
as it reads it.  An unterminated last line that starts as every record does,
or is a prefix of that start, is a record a killed run tore: the resume drops
it and recomputes its point.  Any other last line, a malformed record, or a
file that is not a prefix of the grid is refused, and the whole pass ends
before the first write, so a refused file is left byte for byte.  What one
grid point is, its key and its verdict, lives in ``verifiers``, which never
imports this module.
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from . import pool, verifiers
from .config import RunConfig
from .verifiers import SweepSpec, TheoremVerdict, point_key

_RECORD_START = b'{"v":1,"key":"'


def _load_json(text: str | bytes):
    """json.loads that reports nesting too deep for its recursion as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def iter_sweep(
    spec: SweepSpec, config: RunConfig | None = None, done: Iterable[str] = ()
) -> Iterator[tuple[str, TheoremVerdict]]:
    """Yield ``(key, verdict)`` in grid order as the verdicts complete, past
    the points whose keys ``done`` holds in file order.  ``done`` is consumed
    before this returns: unless it holds the keys of the grid's first points,
    this raises ValueError.  ``run`` keys and verifies a point, here or in pool
    children that carry the walk on from here; its failures are in the verdict."""
    cfg = (config or RunConfig()).with_overrides(**dict(spec.budgets))
    walk = spec.walk()
    for n, key in enumerate(done, 1):
        point = next(walk, None)
        if point is None or key != point_key(verifiers.classify_point(*point), *point):
            raise ValueError(f"record {n} of the file is not point {n} of this grid")

    run = partial(verifiers._run_point, horizon=spec.horizon, cfg=cfg)
    return pool.imap(run, cfg.workers, walk)


def run_sweep(spec: SweepSpec, config: RunConfig | None = None) -> list[TheoremVerdict]:
    """Dispatch every grid point to its applicable verifier; output order
    equals grid order regardless of worker count."""
    return [verdict for _, verdict in iter_sweep(spec, config)]


class _Resume:
    """The keys of a sweep file's complete records, in one pass that counts
    them in ``kept``, lists the inconsistent ones and stops before a torn line."""

    def __init__(self, out: BinaryIO) -> None:
        self.out, self.kept, self.inconsistent = out, 0, []

    def __iter__(self) -> Iterator[str]:
        self.out.seek(0)
        for number, line in enumerate(self.out, 1):
            if not line.endswith(b"\n"):
                if not _RECORD_START.startswith(line[:len(_RECORD_START)]):
                    raise ValueError("the output file ends in a line that no sweep wrote")
                self.out.seek(-len(line), os.SEEK_CUR)
                return
            try:  # a JSON error names its place within this one line, not the file's
                record = _load_json(line)
            except ValueError:
                record = None
            if not (isinstance(record, dict) and isinstance(record.get("key"), str)
                    and isinstance(record.get("consistent"), bool)):
                raise ValueError(f"malformed sweep record on line {number}")
            self.kept = number
            if not record["consistent"]:
                self.inconsistent.append(record["key"])
            yield record["key"]


def run_into(spec_path: str, out_path: str, config: RunConfig, fixed=()) -> tuple[int, list]:
    """Run a spec file into a record file, resuming it; return the file's record
    count and inconsistent keys, old and new.  ``fixed`` names the budgets that
    a flag or variable set, which the spec may pin only to the same value."""
    spec = SweepSpec.from_dict(_load_json(Path(spec_path).read_text()))
    for key, pinned in spec.budgets:
        if key in fixed and (asked := getattr(config, key)) != pinned:
            raise ValueError(f"the spec pins {key} = {pinned}, a flag or variable sets {asked}")
    with open(out_path, "a+b") as out:
        resume = _Resume(out)
        verdicts = iter_sweep(spec, config, resume)  # refuses a file that another grid wrote
        out.truncate()  # where the pass stopped: a torn last line goes
        points = resume.kept
        for points, (key, verdict) in enumerate(verdicts, points + 1):
            record = {"v": 1, "key": key, **vars(verdict)}
            out.write(json.dumps(record, separators=(",", ":")).encode() + b"\n")
            out.flush()
            if not verdict.consistent:
                resume.inconsistent.append(key)
    return points, resume.inconsistent
