"""Shared pieces of the suite: paths, timing summaries, spans, bookkeeping.

Nothing here knows about a particular workload.  A workload module builds
its inputs from a seed, runs the system through public entry points, and
hands back a :class:`Report`; the CLI turns reports into the driver's JSON
line and the suite's own result files.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = SUITE_DIR / "out"
CONTRACT_PATH = REPO_ROOT / "BENCHMARK.json"

#: A run sets up from scratch at least, and at most, this many times, going
#: past the minimum until set-up has taken ``SETUP_SECONDS`` in all;
#: ``setup_s`` is the median.
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 3.0


def load_contract() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json`` (names, units, bounds)."""
    return json.loads(CONTRACT_PATH.read_text(encoding="utf-8"))


def child_env(tmpdir: Optional[Path] = None) -> Dict[str, str]:
    """Environment for subprocesses: ``repro`` importable, temp files local.

    The driver's checkout is the only place the benchmark may write, so the
    fleet supervisor's ``tempfile`` spool is pointed into the work
    directory too.
    """
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + extra if extra else "")
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return env


@contextlib.contextmanager
def work_directory() -> Iterator[Path]:
    """A scratch directory inside the suite's ``out/``, removed on exit."""
    path = OUT_DIR / "work" / f"{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- timing summaries -----------------------------------------------------------


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (which need not be sorted)."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Timer:
    """``with Timer() as t: ...`` then ``t.seconds``."""

    __slots__ = ("started", "seconds")

    def __enter__(self) -> "Timer":
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self.started


def timed(span, name: str):
    """A context whose ``.seconds`` is the block's duration afterwards: a
    span called ``name`` when ``span`` (a ``Tracer.span``) is given, a bare
    :class:`Timer` otherwise."""
    return span(name) if span is not None else Timer()


# -- spans ----------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: name, start, end, the span that caused it, query id."""

    index: int
    name: str
    parent: Optional[int]
    query: Optional[int]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans recorded by the suite around its calls into each layer.

    Kept in memory and written out once at the end of a traced run.  A
    layer's self time is its span's duration minus what its child spans
    cover.  In-program spans are a later change (ROADMAP item 2); these sit
    at the boundary the suite can see.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()  # each thread nests its own spans

    @contextlib.contextmanager
    def span(self, name: str, query: Optional[int] = None) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if query is None and parent is not None:
            query = self.spans[parent].query
        with self._lock:
            record = Span(len(self.spans), name, parent, query, 0.0)
            self.spans.append(record)
        stack.append(record.index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def self_seconds(self) -> Dict[str, List[float]]:
        """Per span name, each span's self time in seconds."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.seconds
        result: Dict[str, List[float]] = {}
        for record in self.spans:
            result.setdefault(record.name, []).append(
                record.seconds - covered[record.index])
        return result

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        payload = [{"id": s.index, "name": s.name, "parent": s.parent,
                    "query": s.query, "start_us": (s.start - origin) * 1e6,
                    "end_us": (s.end - origin) * 1e6} for s in self.spans]
        path.write_text(json.dumps(payload), encoding="utf-8")


# -- memory ---------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_field(pid: int, key: str) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, from ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            ppid = _status_field(int(entry), "PPid")
            if ppid is not None:
                parents[int(entry)] = int(ppid)
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items()
                    if parent == pid)
    return tree


def tree_peak_rss_mb(root: int) -> float:
    """Sum of the peak resident sets (``VmHWM``) of a process tree."""
    total = 0.0
    for pid in process_tree(root):
        value = _status_field(pid, "VmHWM")
        if value is not None:
            total += float(value.split()[0]) / 1024.0
    return total


# -- processes ------------------------------------------------------------------


def adopt_orphans() -> None:
    """Have orphaned descendants reparented to this process, not to init.

    A fleet supervisor that dies before its workers would otherwise leave
    them where :func:`stop_descendants` can neither see nor wait for them.
    """
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, as before


def stop_descendants() -> int:
    """Stop every process below this one and wait until each has ended.

    Workloads stop what they start themselves (a fleet drains on SIGTERM, a
    probe is waited for).  This is the net under them on every way out of a
    run, and the one place that knows the processes the *system* starts
    unasked: the columnar engine's fork pool, which the engine map of a
    traced ``pdbench_au`` run fills, and the resource tracker that
    ``multiprocessing`` launches beside its shared memory and that would
    outlive this process by a moment.  Returns how many had to be killed.
    """
    parallel = sys.modules.get("repro.db.engine.parallel")
    if parallel is not None:
        parallel.shutdown()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop_tracker = getattr(getattr(tracker, "_resource_tracker", None),
                           "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes its pipe and waits for it
    killed = set()
    for _ in range(100):
        below = process_tree(os.getpid())[1:]
        if not below:
            break
        for pid in below:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
                killed.add(pid)
        for pid in below:
            # A grandchild is not ours to wait for until its parent is gone
            # and it has been handed to us: the next turn finds it.
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        time.sleep(0.01)
    return len(killed)


# -- bookkeeping ----------------------------------------------------------------


def digest_of(value: Any) -> str:
    """A short stable digest of an answer (rows, labels, counts)."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


#: A timed window runs as this many consecutive parts.
PARTS = 5


@dataclass
class Part:
    """What one part of a timed window observed."""

    latencies: List[float] = field(default_factory=list)
    #: Latencies of the baseline calls interleaved with them.
    base: List[float] = field(default_factory=list)
    failed: int = 0
    #: Seconds the part spent on the measured traffic (baseline excluded).
    wall: float = 0.0
    #: CPU seconds this process (the load generator) used meanwhile.
    cpu: float = 0.0
    #: Some served ``(key, answer)`` pairs, for the answer digest.
    sample: List[Any] = field(default_factory=list)
    #: ``overhead_x`` of this part when it is not median / median of base.
    ratio: Optional[float] = None

    @property
    def per_second(self) -> float:
        return (len(self.latencies) - self.failed) / self.wall


def in_parts(seconds: float, run: Any) -> List[Part]:
    """``run(seconds / PARTS)`` five times over: the parts of one window."""
    return [run(seconds / PARTS) for _ in range(PARTS)]


def pooled(parts: Sequence[Part]) -> List[float]:
    return [latency for part in parts for latency in part.latencies]


@dataclass
class Report:
    """What one run of one workload produced."""

    workload: str
    seed: int
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Named answer checks that did not hold; each also counts as a failure.
    broken: List[str] = field(default_factory=list)
    #: Sample counts, ratio bases, digests: what a reader needs beside a value.
    notes: Dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one answer check; a broken check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.broken.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.broken

    def window(self, parts: Sequence[Part]) -> None:
        """The four window metrics, each the median over the window's parts.

        This VM slows down in bursts of a second or so.  A burst covering a
        twentieth of the window moves a 95th percentile taken over the whole
        window, and any burst moves a mean rate; it moves the median of five
        parts only when it covers three of them.
        """
        self.put("query_p50_ms",
                 median([median(p.latencies) for p in parts]) * 1e3, "ms")
        self.put("query_p95_ms",
                 median([percentile(p.latencies, 0.95) for p in parts]) * 1e3,
                 "ms")
        self.put("queries_per_s", median([p.per_second for p in parts]), "1/s")
        self.put("overhead_x", median([
            p.ratio if p.ratio is not None
            else median(p.latencies) / median(p.base) for p in parts]), "x")
        samples = sum(len(p.latencies) for p in parts)
        self.count(samples, sum(p.failed for p in parts))
        self.notes["query_samples"] = samples
        self.notes["query_samples_beyond_p95"] = sum(
            len(p.latencies) - math.ceil(0.95 * len(p.latencies))
            for p in parts)
        self.notes["window_parts"] = len(parts)


def fingerprint() -> Dict[str, Any]:
    """The machine and versions a result was recorded on."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
