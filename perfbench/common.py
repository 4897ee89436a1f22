"""Shared helpers: operation records, percentiles, answer digests, the
host probe and the run environment."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

#: the seed runs use unless told otherwise
DEFAULT_SEED = 1
#: the seed kept for confirming a claimed gain on data it was not tuned on
HELD_OUT_SEED = 9001

#: a timed percentile needs at least this many samples beyond it
TAIL_SAMPLES = 10

#: :class:`HostProbe`'s best time on the host the benchmark was defined
#: on (2 vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11.7)
PROBE_REFERENCE_S = 1.7e-3
PROBE_LINES = 1000


@dataclass
class Op:
    """One operation of a run, as the answer check and the
    zero-perturbation check see it."""

    kind: str  # "query" | "update" | "probe"
    revision: int  # updates applied before this op
    via: str = ""
    text: str = ""
    wall: float = 0.0
    ok: bool = True  # completed (answer arrived, update acked)
    error: Optional[str] = None
    coverage: Optional[str] = None
    digest: str = ""
    rows: int = 0
    messages: int = 0
    bytes: int = 0
    vt: float = 0.0
    counts: dict = field(default_factory=dict)

    def fingerprint(self) -> Tuple:
        return (self.kind, self.via, self.text, self.ok, self.error,
                self.coverage, self.digest, self.messages, self.bytes, self.vt)


#: reused by every probe: clearing a dict allocates nothing
_TERMS: dict = {}
_INDEX: dict = {}


def _probe_work() -> int:
    """Fixed interpreter work of the kind a set-up does: cut
    N-Triples-like lines into terms, intern them, index the triples.
    It makes only strings and ints, which the garbage collector does
    not count, so it neither triggers nor moves the program's
    collections."""
    terms, index = _TERMS, _INDEX
    for i in range(PROBE_LINES):
        line = f"<http://example.org/s{i % 211}> <http://example.org/p{i % 7}> \"o{i % 503}\" ."
        first = line.find(" ")
        second = line.find(" ", first + 1)
        s = terms.setdefault(line[:first], line[:first])
        p = terms.setdefault(line[first + 1:second], line[first + 1:second])
        o = terms.setdefault(line[second + 1:-2], line[second + 1:-2])
        index[s + p + o] = p
    count = len(index)
    terms.clear()
    index.clear()
    return count


class HostProbe:
    """The host's speed over a run, from a fixed workload the program
    does not touch.

    On a shared host the speed of this process's CPU drifts by up to
    1.5x over minutes, longer than a run, so even an operation's best
    repetition carries it.  :meth:`tick`, called between operations,
    times :func:`_probe_work` every ``every`` seconds of operation time
    and keeps the best time; :attr:`scale` is that best over
    :data:`PROBE_REFERENCE_S`."""

    def __init__(self, every: float = 0.5, repeats: int = 3):
        self.every = every
        self.repeats = repeats
        self.best = math.inf
        self.due = 0.0

    def tick(self, measured: float) -> None:
        if measured < self.due:
            return
        self.due = measured + self.every
        for _ in range(self.repeats):
            started = perf_counter()
            _probe_work()
            self.best = min(self.best, perf_counter() - started)

    @property
    def scale(self) -> float:
        return self.best / PROBE_REFERENCE_S


def digest(table) -> str:
    """An order-free digest of a binding table (rows as N3 tuples over
    sorted columns)."""
    if table is None:
        return ""
    columns = sorted(table.columns)
    order = [table.columns.index(c) for c in columns]
    rows = sorted(tuple(row[i].n3() for i in order) for row in table.rows)
    return hashlib.sha1(repr((columns, rows)).encode()).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_quantile(n: int, wanted: float = 0.95) -> float:
    """The highest quantile up to ``wanted`` with at least
    :data:`TAIL_SAMPLES` samples beyond it (never below the median)."""
    if n <= 0:
        return 0.5
    return max(0.5, min(wanted, 1.0 - TAIL_SAMPLES / n))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child) in MiB; ``ru_maxrss`` is KiB on Linux."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "seed": seed,
        "commit": commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def split(ops: List[Op], kind: str) -> List[Op]:
    return [op for op in ops if op.kind == kind]
