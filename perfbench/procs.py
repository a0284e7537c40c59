"""Peak resident memory of the driver and its Ray worker processes, and the
share of the machine's CPU time its hypervisor stole during an interval."""

from __future__ import annotations

import os
import threading


def host_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the whole machine since boot.  Stolen
    ticks (the ``steal`` column of /proc/stat) are time a virtual CPU was
    ready to run while the hypervisor ran another guest; a machine that
    does not report it reads 0."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]  # user .. steal
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


class Steal:
    """Steal share of named intervals: stolen ticks over all ticks of the
    machine between ``begin(key)`` and ``end()``."""

    def __init__(self):
        self.share: dict[object, float] = {}
        self._open: tuple[object, tuple[int, int]] | None = None

    def begin(self, key) -> None:
        self.end()
        self._open = (key, host_ticks())

    def end(self) -> float:
        """Close the open interval; its steal share (0 if none was open)."""
        if self._open is None:
            return 0.0
        key, (s0, t0) = self._open
        s1, t1 = host_ticks()
        self.share[key] = (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0
        self._open = None
        return self.share[key]


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; the ppid follows its ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return b"default_worker.py" in f.read()
    except OSError:
        return False


def _vm_hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class PeakRss:
    """Polls VmHWM of this process and of every Ray worker below it (Ray's
    daemons excluded).  The result is the driver's peak plus the largest
    worker peak: Ray starts short-lived helper workers (actors, blocked-task
    replacements) in a timing-dependent number, and summing them all makes
    the figure swing by whole processes from run to run."""

    def __init__(self, interval_s: float = 1.0):
        self.interval_s = interval_s
        self.peak_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        me = os.getpid()
        kids = _children_map()
        todo, pids = [me], [me]
        while todo:
            for c in kids.get(todo.pop(), []):
                todo.append(c)
                if _is_ray_worker(c):
                    pids.append(c)
        for pid in pids:
            kb = _vm_hwm_kb(pid)
            if kb is not None:
                self.peak_kb[pid] = max(kb, self.peak_kb.get(pid, 0))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> float:
        """Stop polling; driver peak plus the largest worker peak, in MB."""
        self._stop.set()
        self._thread.join(timeout=10)
        self.sample()
        me = self.peak_kb.pop(os.getpid(), 0)
        return (me + max(self.peak_kb.values(), default=0)) / 1024.0
