"""Shared plumbing for the repository benchmark: statistics, schedules,
the work directory, child processes, and memory accounting.

Nothing here imports :mod:`repro`; the workloads do that themselves,
after :func:`prepare_environment` has pointed every cache at the
checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import selectors
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 80.0, 90.0, 99.0, 99.9)

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Everything a run writes lives under this directory of the checkout.
WORK_DIR_NAME = ".perfbench_work"


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def supported_percentile(n: int) -> float | None:
    """Highest of :data:`PERCENTILES` with >= 10 of ``n`` samples beyond it.

    ``None`` when even the median is unsupported (fewer than 20 samples).
    """
    best = None
    for q in PERCENTILES:
        if n * (100.0 - q) >= MIN_TAIL_SAMPLES * 100.0 - 1e-6:
            best = q
    return best


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, linearly interpolated (numpy's default)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(arr, q))


def median(values) -> float:
    return percentile(values, 50.0)


def tail(values, q: float) -> float | None:
    """``percentile(values, q)``, or ``None`` for a tail the sample cannot support."""
    supported = supported_percentile(len(values))
    return None if supported is None or supported < q else percentile(values, q)


# ----------------------------------------------------------------------
# Seeds and schedules.
# ----------------------------------------------------------------------
def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator for one named input stream of a seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def poisson_schedule(
    rng: np.random.Generator, rate: float, seconds: float, dead_time: float = 0.0
) -> np.ndarray:
    """Send offsets (seconds from start) of a Poisson process at ``rate``.

    Conditioned on its expected count ``n = round(rate * seconds)``:
    given the count, Poisson arrival times are sorted independent
    uniforms, so the sample size of every run -- and with it the
    supported percentile -- is fixed while the gaps stay exponential and
    unsynchronised between independently seeded schedules.

    ``dead_time`` > 0 gives a Poisson process with a dead time: every gap
    is ``dead_time`` plus an exponential gap (the uniforms are drawn over
    ``seconds - n * dead_time`` and each arrival is pushed back by the
    dead time of those before it).
    """
    count = int(round(rate * seconds))
    spread = seconds - count * dead_time
    if spread <= 0:
        raise ValueError(f"{count} arrivals with dead time {dead_time}s overflow {seconds}s")
    return np.sort(rng.uniform(0.0, spread, size=count)) + dead_time * np.arange(count)


def zipf_items(rng: np.random.Generator, universe: int, count: int, exponent: float = 1.2) -> np.ndarray:
    """``count`` item ids in ``[0, universe)`` with Zipf(``exponent``) popularity.

    Ids are a seeded permutation of popularity ranks, so hot items are
    spread over the id space rather than packed at zero.
    """
    weights = 1.0 / np.arange(1, universe + 1, dtype=float) ** exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(count), side="right")
    ranks = np.minimum(ranks, universe - 1)
    ids = rng.permutation(universe)
    return ids[ranks].astype(np.int64)


def repetitions(seconds: float, minimum: int):
    """Indices ``0, 1, ...``: at least ``minimum``, then as many as end within ``seconds``.

    Another repetition starts only if one as long as the longest so far
    still ends inside the window, so a run does not overshoot it by a
    whole repetition.
    """
    began = time.monotonic()
    longest = 0.0
    i = 0
    while True:
        start = time.monotonic()
        if i >= minimum and start - began + longest > seconds:
            return
        yield i
        longest = max(longest, time.monotonic() - start)
        i += 1


# ----------------------------------------------------------------------
# Environment.
# ----------------------------------------------------------------------
def checkout_root() -> Path:
    """The checkout the benchmark runs from (its working directory)."""
    return Path.cwd()


def work_dir() -> Path:
    path = checkout_root() / WORK_DIR_NAME
    path.mkdir(exist_ok=True)
    return path


def run_dir(workload: str, seed: int) -> Path:
    """A fresh directory for one run's inputs, data directories and outputs."""
    path = work_dir() / f"{workload}-{seed}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir()
    return path


def clean_run_dir(path: Path, keep: tuple[str, ...] = ("samples.npz",)) -> None:
    """Delete what a run left in ``path`` except the ``keep`` files.

    Inputs, data directories and spans take tens of megabytes per run;
    left behind, a set of runs fills the page cache and disk of the
    checkout and slows the runs that follow.
    """
    if not path.is_dir():
        return
    for entry in path.iterdir():
        if entry.name in keep:
            continue
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()


def prepare_environment() -> dict[str, str]:
    """Point imports and every cache of this and child processes into the checkout.

    Returns the environment for child processes.  ``src`` goes on
    ``sys.path`` here and on ``PYTHONPATH`` for children; the native
    kernel build cache and temporary files stay under the work directory.
    """
    root = checkout_root()
    work = work_dir()
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["REPRO_NATIVE_CACHE"] = str(work / "native")
    os.environ["TMPDIR"] = str(tmp)
    os.environ.pop("REPRO_EVAL_BACKEND", None)
    os.environ.pop("REPRO_WORKERS", None)
    os.environ.pop("REPRO_EVAL_KERNEL", None)
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    """The commit of a git working tree; ``None`` in an exported checkout."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Everything a result needs to be compared with another one."""
    from repro.db import _native

    native = _native.load()
    root = checkout_root()
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernels": native is not None,
        "native_reason": None if native is not None else _native.unavailable_reason(),
        "commit": git_commit(root),
        "src_digest": source_digest(root),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Child processes.
# ----------------------------------------------------------------------
class ChildFailed(RuntimeError):
    """A program process exited badly or never became ready."""


@dataclass
class Processes:
    """Every child this run started; :meth:`stop_all` leaves none behind.

    Children run in their own session, so a signal to the group also
    reaches their own children (pool workers).
    """

    env: dict[str, str]
    children: list[subprocess.Popen] = field(default_factory=list)

    def spawn(self, argv: list[str], *, stdout=subprocess.DEVNULL, log: Path | None = None) -> subprocess.Popen:
        stderr = open(log, "ab") if log is not None else subprocess.DEVNULL
        try:
            proc = subprocess.Popen(
                argv, env=self.env, cwd=checkout_root(), stdout=stdout,
                stderr=stderr, stdin=subprocess.DEVNULL, start_new_session=True,
            )
        finally:
            if log is not None:
                stderr.close()
        self.children.append(proc)
        return proc

    def run(self, argv: list[str], *, timeout: float = 120.0) -> tuple[float, str]:
        """Run one program command to completion; ``(wall_s, stdout)``."""
        began = time.monotonic()
        proc = self.spawn(argv, stdout=subprocess.PIPE, log=work_dir() / "child.log")
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill(proc)
            raise ChildFailed(f"{' '.join(argv[-8:])} timed out after {timeout}s") from None
        wall = time.monotonic() - began
        self.children.remove(proc)
        if proc.returncode != 0:
            raise ChildFailed(f"{' '.join(argv[-8:])} exited {proc.returncode}")
        return wall, out.decode()

    def kill(self, proc: subprocess.Popen, sig: int = signal.SIGKILL, timeout: float = 30.0) -> int | None:
        """Signal a child's whole group and wait for the child to end."""
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            code = proc.wait(timeout=30)
            code = None if sig != signal.SIGKILL else code
        # Reap anything left in the group (e.g. orphaned pool workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self.children:
            self.children.remove(proc)
        return code

    def stop_all(self) -> None:
        for proc in list(self.children):
            self.kill(proc)


def wait_for_line(proc: subprocess.Popen, prefix: str, timeout: float = 60.0) -> str:
    """Read ``proc``'s stdout until a line starting with ``prefix`` appears."""
    deadline = time.monotonic() + timeout
    buf = b""
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ChildFailed(f"no {prefix!r} line within {timeout}s")
            if not sel.select(left):
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ChildFailed(f"exited (code {proc.poll()}) before printing {prefix!r}")
            buf += chunk
            for line in buf.decode(errors="replace").splitlines():
                if line.startswith(prefix):
                    return line


def serving_address(line: str) -> tuple[str, int]:
    """``("127.0.0.1", port)`` from ``repro serve``'s "serving on H:P" line."""
    host, _, port = line.split()[-1].rpartition(":")
    return host, int(port)


# ----------------------------------------------------------------------
# Memory.
# ----------------------------------------------------------------------
def _status_kb(pid: int, field_name: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return None


def hwm_mb(pid: int) -> float | None:
    """Peak resident set (VmHWM) of one live process, MB."""
    kb = _status_kb(pid, "VmHWM")
    return None if kb is None else kb / 1024.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one live process so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _descendants(root: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                stat = fh.read()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        ppid = int(stat[stat.rfind(")") + 2 :].split()[1])
        parents.setdefault(ppid, []).append(int(entry.name))
    out, stack = [], [root]
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(parents.get(pid, ()))
    return out


class TreePeak:
    """Peak resident memory of a process tree, sampled while it runs.

    Each member's own high-water mark (VmHWM) only grows, so the largest
    value seen per pid is its peak; the tree's peak is bounded by their
    sum.  Sampling only has to see each member once before it exits.
    """

    def __init__(self, root: int) -> None:
        self.root = root
        self.peaks: dict[int, float] = {}

    def sample(self) -> None:
        for pid in _descendants(self.root):
            mb = hwm_mb(pid)
            if mb is not None:
                self.peaks[pid] = max(self.peaks.get(pid, 0.0), mb)

    @property
    def total_mb(self) -> float:
        return sum(self.peaks.values())


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def write_json(path: Path, obj) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True, default=str))
    os.replace(tmp, path)
