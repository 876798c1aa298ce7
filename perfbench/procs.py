"""Process-tree accounting from /proc: peak summed RSS, and the wait for
every process the benchmark started (the Ray daemons and workers are
descendants of the benchmark process) to end."""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
SAMPLE_S = 0.1               # RSS sampling period


def _stat(pid: int) -> tuple[int, int, str] | None:
    """(ppid, start time, state) of a live pid, None if gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read().decode(errors="replace")
    except OSError:
        return None
    fields = raw[raw.rfind(")") + 2:].split()  # comm may contain spaces
    return int(fields[1]), int(fields[19]), fields[0]


def descendants(root: int) -> dict[int, int]:
    """pid -> start time of every live descendant of `root`."""
    kids: dict[int, list[tuple[int, int]]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None and st[2] != "Z":
                kids.setdefault(st[0], []).append((int(name), st[1]))
    out: dict[int, int] = {}
    todo = [root]
    while todo:
        for pid, start in kids.get(todo.pop(), ()):
            if pid not in out:
                out[pid] = start
                todo.append(pid)
    return out


def _rss(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


class TreeWatch:
    """Samples the summed RSS of this process and its descendants on a
    background thread and remembers every descendant it has seen."""

    def __init__(self):
        self.seen: dict[int, int] = {}
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> int:
        tree = descendants(os.getpid())
        self.seen.update(tree)
        total = _rss(os.getpid()) + sum(_rss(p) for p in tree)
        self.peak = max(self.peak, total)
        return total

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_S):
            self.sample()

    def start(self) -> None:
        self.peak = 0
        self.sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> int:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5)
            self._thread = None
        self.sample()
        return self.peak


def reap(procs: dict[int, int], grace: float = 20.0) -> list[int]:
    """Wait until every process in `procs` (pid -> start time) has ended;
    after `grace` seconds SIGKILL the rest.  Returns the pids killed."""

    def alive() -> list[int]:
        out = []
        for pid, start in procs.items():
            try:  # collect our own exited children
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
            st = _stat(pid)
            if st is not None and st[1] == start and st[2] != "Z":
                out.append(pid)
        return out

    deadline = time.monotonic() + grace
    left = alive()
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = alive()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 5
    while alive() and time.monotonic() < end:
        time.sleep(0.05)
    return left
