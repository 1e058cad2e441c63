"""Host helpers: the Ray session, process-tree memory and the drift probe."""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import time

RAY_CPUS = 3  # of the 4 vCPUs in the affinity mask; one is left to this process
_UNIX_SOCKET_MAX = 107
_SESSION_SOCKET_SUFFIX = 72  # "/session_<date>_<time>_<pid>/sockets/plasma_store"


def alu_probe(seconds: float = 0.25) -> float:
    """Single-thread integer loop rate in Mops. Context only: it is stamped
    next to the results and never used to scale them."""
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for _ in range(10000):
            n += 1
    return n / (time.perf_counter() - t0) / 1e6


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``; (0, 0) where
    it cannot be read. Steal is time the hypervisor gave this machine's
    vCPUs to other guests."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float | None:
    """Share of CPU time stolen between two ``cpu_times`` readings. Context
    only, like ``alu_probe``."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else None


def ray_temp_dir(work_dir: str) -> str | None:
    """Ray's session directory inside the work dir when its socket paths fit
    the AF_UNIX limit, else None (Ray's default)."""
    d = os.path.join(work_dir, "ray")
    return d if len(d) + _SESSION_SOCKET_SUFFIX <= _UNIX_SOCKET_MAX else None


def start_ray(work_dir: str) -> float:
    import ray

    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        _temp_dir=ray_temp_dir(work_dir),
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return time.perf_counter() - t0


def stop_ray(timeout_s: float = 30.0) -> None:
    """``ray.shutdown()``, then wait until every process Ray started has
    ended (workers are reparented once the raylet dies, so they are listed
    before the shutdown). Any still running after ``timeout_s`` are killed
    and waited for. A process is known by its pid and start time: pids wrap
    at ``pid_max`` (32768 on the development host), and a reused pid is a
    different process."""
    import ray

    procs = [(p, t) for p in process_tree(os.getpid())
             if p != os.getpid() and (t := _start_time(p)) is not None]
    ray.shutdown()
    left = _wait_ended(procs, timeout_s)
    if left:
        print(f"perfbench: killing {len(left)} processes still running {timeout_s:.0f} s "
              f"after ray.shutdown: {[_title(p) for p, _ in left]}", file=sys.stderr)
        for pid, start in left:
            if _start_time(pid) == start:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
        _wait_ended(left, timeout_s)


def _wait_ended(procs: list[tuple[int, int]], timeout_s: float) -> list[tuple[int, int]]:
    """Waits until none of ``procs`` runs; returns those still running."""
    deadline = time.perf_counter() + timeout_s
    while True:
        left = [(p, t) for p, t in procs if _start_time(p) == t]
        if not left or time.perf_counter() >= deadline:
            return left
        time.sleep(0.05)


def _start_time(pid: int) -> int | None:
    """Start time (clock ticks after boot) of a live process; None once it
    has exited or is a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else int(fields[19])


def _title(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read(80).replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while listing
        kids.setdefault(ppid, []).append(int(name))
    return kids


def process_tree(root: int) -> list[int]:
    kids = _children()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def process_titles() -> list[bytes]:
    """Command lines (Ray sets them to ``ray::<role>``) of the process tree."""
    out = []
    for pid in process_tree(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                out.append(f.read(64))
        except OSError:
            continue
    return out


class PeakRss:
    """Peak resident memory of this process and every process it started
    (the Ray head, raylet, actors and task workers). ``reset`` clears each
    process's kernel high-water mark; ``sample`` adds up the marks and keeps
    the largest sum seen. A pooled worker counts from the first sample that
    finds it running something: how many spare idle workers Ray keeps is its
    own choice, and it varied between runs by one or two ~200 MB workers.
    A sum of per-process peaks bounds the simultaneous peak from above."""

    def __init__(self):
        self.peak_kb = 0
        self.start_mb = 0.0  # the sum when ``reset`` was last called
        self.active: set[int] = set()

    def reset(self) -> None:
        for pid in process_tree(os.getpid()):
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:
                pass  # exited, or not ours to reset
        self.peak_kb = 0
        self.active = set()
        self.sample()
        self.start_mb = self.mb

    def sample(self) -> None:
        total = 0
        for pid in process_tree(os.getpid()):
            try:
                if pid not in self.active:
                    with open(f"/proc/{pid}/cmdline", "rb") as f:
                        if f.read(9) == b"ray::IDLE":
                            continue
                    self.active.add(pid)
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue  # exited while sampling
        self.peak_kb = max(self.peak_kb, total)

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024.0
