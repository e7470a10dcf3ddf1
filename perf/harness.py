"""Measuring tools shared by the workloads and the run drivers.

Layers are measured from outside: :func:`timed` wraps a call into a
public function with wall and CPU clocks, :class:`Spans` records the
harness's own call tree in memory, and :func:`sample_setup` times
set-up in fresh interpreters.  Nothing here reaches into ``src/``.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import metrics

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
LEDGER = PERF / "BENCH_trajectory.jsonl"

#: Fresh interpreters per ``setup_s`` sample set.  One in-process
#: sample disagreed with itself by 15 % between runs of the same code;
#: the best quarter of five parent-measured interpreter walls does not.
SETUP_SAMPLES = 5


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed(fn: Callable[[], object]) -> Tuple[object, float, float]:
    """``(fn(), wall seconds, user+sys CPU seconds of this process)``.

    ``RUSAGE_SELF`` covers every thread, so the timer threads
    ``FaultyTransport`` starts are charged to the op that caused them.
    """
    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - wall0
    return out, wall, _cpu_seconds() - cpu0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_call_us(fn: Callable[[], object], calls: int) -> float:
    """Mean wall microseconds of ``fn()`` over ``calls`` calls."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls * 1e6


# -- spans -------------------------------------------------------------------


class Spans:
    """The harness's call tree: ``{id, parent, op, name, start, end}``.

    Kept in memory and written once at exit.  ``span`` nests by a
    stack, so it must only be entered from one task at a time.
    """

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self._stack: List[int] = []
        self._op: Optional[str] = None

    @contextlib.contextmanager
    def op(self, label: str) -> Iterator[dict]:
        """The root span of one traced op; children carry its label."""
        self._op = label
        try:
            with self.span("op") as row:
                yield row
        finally:
            self._op = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        row = {
            "id": len(self.rows),
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str, op: Optional[str] = None) -> float:
        """Summed duration of the spans called ``name`` (in one op)."""
        return sum(
            r["end"] - r["start"]
            for r in self.rows
            if r["name"] == name and (op is None or r["op"] == op)
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")


class _NoSpans:
    """What plain ops are handed: same surface, records nothing."""

    _null = contextlib.nullcontext()

    def op(self, label: str):
        return self._null

    def span(self, name: str):
        return self._null


NO_SPANS = _NoSpans()


# -- per-run bookkeeping -----------------------------------------------------


@dataclass
class OpLog:
    """What a run's ops cost and whether they were right.

    ``cost`` is seconds per node-round of whichever clock bounds the
    workload (wall on the CPU-bound ones, CPU on paced ``aio_stream``).
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: The in-process first op's cost over a steady op's of equal size.
    first_op_ratio: Optional[float] = None
    plain_costs: List[float] = field(default_factory=list)
    traced_costs: List[float] = field(default_factory=list)

    def count(self, attempted: int, failed: int, errors: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed + (1 if errors else 0)
        self.errors.extend(errors)

    def harness_metrics(self) -> Dict[str, float]:
        plain = metrics.best_quarter(self.plain_costs)
        return {
            "harness.trace_overhead": metrics.best_quarter(self.traced_costs)
            / plain,
            "harness.first_op_ratio": self.first_op_ratio,
            "harness.op_wall_iqr_ratio": metrics.iqr_ratio(
                self.plain_costs + self.traced_costs
            ),
        }


# -- scratch space -----------------------------------------------------------


@contextlib.contextmanager
def scratch() -> Iterator[Path]:
    """A fresh directory under ``perf/out`` (the benchmark writes only
    inside its checkout), removed on exit."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- child processes ---------------------------------------------------------


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants (Linux), so a
    grandchild whose parent was killed becomes ours to stop, not init's."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    pids = []
    for task in Path("/proc/self/task").glob("*/children"):
        with contextlib.suppress(OSError):
            pids.extend(int(pid) for pid in task.read_text().split())
    return pids


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Python 3.11 leaves multiprocessing's resource tracker (started by
    the first shared-memory segment) to outlive its parent; closing its
    pipe ends it, and ``_stop`` waits for it.  Whatever else is still
    there — a pool worker after an exception, an adopted orphan — is
    killed, then everything is reaped.
    """
    with contextlib.suppress(Exception):
        resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


# -- set-up time -------------------------------------------------------------


def sample_setup(workload: str, seed: int, toy: bool, samples: int) -> float:
    """Best-quarter wall of ``samples`` fresh interpreters, each going
    from process start through import and input generation to the
    workload's ready state (see ``Workload.ready``)."""
    command = [
        sys.executable, str(PERF / "run.py"),
        "--setup-only", workload, "--seed", str(seed),
    ]
    if toy:
        command.append("--toy")
    walls = []
    for _ in range(samples):
        start = time.perf_counter()
        done = subprocess.run(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120,
        )
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up of {workload} exited {done.returncode}: "
                f"{done.stderr.decode(errors='replace')[-2000:]}"
            )
    return metrics.best_quarter(walls)


# -- the ledger --------------------------------------------------------------


def commit_id() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def append_ledger(bench: str, n: int, values: Dict[str, float]) -> None:
    """Append one row per metric to ``perf/BENCH_trajectory.jsonl`` —
    the ROADMAP ledger schema; rows are only ever added."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    commit = commit_id()
    with open(LEDGER, "a", encoding="utf-8") as handle:
        for name, value in values.items():
            row = {
                "bench": bench,
                "layer": metrics.layer_of(name),
                "metric": name,
                "value": value,
                "unit": metrics.UNITS[name],
                "n": n,
                "commit": commit,
                "cpu_count": os.cpu_count(),
                "timestamp": stamp,
            }
            handle.write(json.dumps(row) + "\n")
