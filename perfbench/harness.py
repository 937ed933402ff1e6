"""Shared plumbing: sample summaries, the run record, server processes."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import socket
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Run records and temp dirs live here, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Seed reserved for later performance claims: tune on any other seed,
#: then confirm a claim once on this one.
HELD_OUT_SEED = 9173

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3


class CheckFailed(AssertionError):
    """A wrong answer: counts in ``failed`` and fails the run."""


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "samples": values}


# ---------------------------------------------------------------------------
# the run record
# ---------------------------------------------------------------------------


def engine_config(db) -> dict:
    """The resolved configuration of one opened ``Database``."""
    return {
        "workers": db.workers,
        "encoding": db.encoding,
        "plan_cache": db.plan_cache_active(),
        "profile_operators": db.profile_operators,
        "feedback": db.feedback_enabled,
        "topn": db.topn_enabled,
        "wal": db.wal_path is not None,
        "fsync": "per_commit" if db.wal_path is not None else None,
        "checkpoint_bytes": db.checkpoint_bytes,
        "recovery": db.recovery,
    }


#: Configs of every ``Database`` this process opened (see
#: ``track_databases``).
OPENED: list[dict] = []


def track_databases() -> None:
    """Record the resolved config of every ``Database`` opened from now
    on in ``OPENED``."""
    from repro.api import database

    original = database.Database.__init__
    if getattr(original, "__perfbench_tracked__", False):
        return

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        OPENED.append(engine_config(self))

    init.__perfbench_tracked__ = True
    database.Database.__init__ = init


def _git(*args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "thread_env": {
            k: os.environ.get(k)
            for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "REPRO_WORKERS", "REPRO_ENCODING", "REPRO_PLAN_CACHE",
            )
        },
        "cpu_affinity": (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None
        ),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: Seconds each probe takes at the nominal host speed: about its median
#: inside the runs of the README baseline (2-vCPU host), so nominal and
#: wall-clock figures agree there.
REF_NOMINAL_S = {"compute": 0.0025, "handoff": 0.00025}
#: Length of the compute probe's two numpy arrays.
REF_ARRAY = 60_000
#: Round trips of one hand-off probe.
HANDOFF_TRIPS = 20
#: Probes up to this many seconds before or after a sample set its
#: scale.
REF_WINDOW_S = 2.0


def reference_work(buf, tmp) -> float:
    """A fixed piece of interpreter and numpy work, the same in every
    version of the program: its time tracks the host's speed only.
    ``buf`` and ``tmp`` are two float64 arrays of ``REF_ARRAY`` values,
    allocated once, so probing never moves the process's malloc
    thresholds or its peak RSS."""
    import numpy as np

    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(4):
        np.multiply(buf, buf, out=tmp)
        tmp += 1.0
        np.sqrt(tmp, out=buf)
    return acc + float(buf[-1])


def _echo(sock: socket.socket) -> None:
    with sock:
        while data := sock.recv(16):
            sock.sendall(data)


class HostSpeed:
    """The host's speed through a run, from probes taken between the
    timed calls (never inside one).

    The host shares its CPUs: the same code runs up to ~1.6x faster or
    slower from one few-second stretch to the next. Each probe times
    two fixed pieces of work, the same in every version of the program:
    ``compute`` (``reference_work``) and ``handoff`` (``HANDOFF_TRIPS``
    round trips of one byte to an echo thread over a socket pair: the
    wake-ups and switches a wire round trip pays, without its work). A
    sample divided by ``scale`` of its interval — the median probe time
    of its kind around it over the kind's ``REF_NOMINAL_S`` — is its
    time at the nominal host speed. Call ``close`` when done."""

    def __init__(self):
        import numpy as np

        self.probes: dict[str, list[tuple[float, float]]] = {
            kind: [] for kind in REF_NOMINAL_S
        }
        self._buf = np.arange(REF_ARRAY, dtype=np.float64)
        self._tmp = np.empty_like(self._buf)
        self._near, far = socket.socketpair()
        self._echo = threading.Thread(target=_echo, args=(far,), daemon=True)
        self._echo.start()

    def probe(self) -> None:
        clock = time.perf_counter
        self._buf[:] = 0.0
        t0 = clock()
        reference_work(self._buf, self._tmp)
        t1 = clock()
        for _ in range(HANDOFF_TRIPS):
            self._near.sendall(b"x")
            self._near.recv(16)
        t2 = clock()
        self.probes["compute"].append((t1, t1 - t0))
        self.probes["handoff"].append((t2, t2 - t1))

    def close(self) -> None:
        """Stop the echo thread and wait for it."""
        self._near.close()
        self._echo.join(timeout=10)

    def scale(self, start: float, end: float, kind: str) -> float:
        probes = self.probes[kind]
        near = [
            s for t, s in probes
            if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S
        ]
        if not near:
            near = [min(probes, key=lambda p: abs(p[0] - start))[1]]
        return statistics.median(near) / REF_NOMINAL_S[kind]

    def nominal(self, samples: list, kind: str = "compute") -> list[float]:
        """(start, seconds) samples -> seconds at the nominal speed, by
        the probe of ``kind``: ``handoff`` for round trips that do
        little work, ``compute`` for everything else."""
        return [s / self.scale(t, t + s, kind) for t, s in samples]

    def summary(self) -> dict:
        """Every probe time, by kind, for the run record."""
        return {
            f"host_{kind}_s": [s for _t, s in probes]
            for kind, probes in self.probes.items()
        }


#: The end-to-end times every workload gates besides ``setup_s``.
GATED = ("read_p50_ms", "ops_per_s", "query_geomean_ms")


def time_metrics(host: HostSpeed, setups: list, compute) -> tuple:
    """(gated, reported) time metrics of a run. ``compute(seconds)``
    gives a workload's time metrics, ``seconds(samples, kind=...)``
    turning its (start, seconds) samples into seconds. The gated ones and ``setup_s`` are
    at the nominal host speed; the rest are reported, each once at
    nominal speed and, like every gated one, once as measured
    (``wall.<metric>``)."""
    nominal = compute(host.nominal)
    wall = compute(lambda samples, kind="compute": [s for _t, s in samples])
    wall["setup_s"] = quartiles([s for _t, s in setups])[1]
    gated = {
        "setup_s": quartiles(host.nominal(setups))[1],
        **{k: nominal.pop(k) for k in GATED},
    }
    return gated, {**nominal, **{f"wall.{k}": v for k, v in wall.items()}}


def pin_to_one_cpu() -> None:
    """Restrict this process, and every process it starts later, to one
    CPU: the highest-numbered one it may use. A closed loop has one
    runnable thread at a time, so this costs no parallelism; it turns
    each client/server hand-off into a context switch on one CPU
    instead of a wake-up on the other, whose latency follows the
    host's load."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def set_up_repeatedly(setup, close) -> tuple[object, list, HostSpeed]:
    """Run ``setup() -> (state, seconds)`` ``SETUPS`` times, closing all
    but the last state, with a host-speed probe before and after each.
    Returns that state, the (start, seconds) of every set-up, and the
    probes."""
    host = HostSpeed()
    durations = []
    for i in range(SETUPS):
        if i:
            close(state)
            gc.collect()
        host.probe()
        start = time.perf_counter()
        state, seconds = setup()
        durations.append((start, seconds))
        host.probe()
    return state, durations, host


def scratch_dir(prefix: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


def write_record(record: dict) -> str:
    records = os.path.join(OUT_DIR, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(
        records,
        f"{record['workload']}-seed{record['environment']['seed']}"
        f"-trace{int(record['trace'])}-{int(time.time() * 1000)}.json",
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return path


# ---------------------------------------------------------------------------
# server processes
# ---------------------------------------------------------------------------

#: Every server still running; ``kill_all`` is the last-resort cleanup.
_LIVE: list["ServerProcess"] = []


class ServerProcess:
    """``repro.server`` in a subprocess under a watchdog.

    The watchdog kills the process ``deadline_s`` after start, so a
    hung server can never hang the benchmark; ``stop`` (normal path)
    interrupts it, waits, and removes its temp directory."""

    def __init__(self, wal_dir: str, trace: bool, deadline_s: float):
        self.dir = wal_dir
        self.report_path = os.path.join(wal_dir, "report.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [
            sys.executable, os.path.join(HERE, "launcher.py"),
            "--report", self.report_path,
        ]
        if trace:
            cmd.append("--trace")
        cmd += ["--port", "0", "--wal", os.path.join(wal_dir, "db.wal")]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=ROOT,
        )
        _LIVE.append(self)
        self._watchdog = threading.Timer(deadline_s, self.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.peak_rss_mb: Optional[float] = None
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> tuple[str, int]:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            match = re.search(r"listening on (\S+):(\d+)", line)
            if match:
                # Drain both pipes so the server never blocks on a full
                # one.
                for pipe in (self.proc.stdout, self.proc.stderr):
                    threading.Thread(target=pipe.read, daemon=True).start()
                return match.group(1), int(match.group(2))
        err = self.proc.stderr.read() if self.proc.stderr else ""
        raise RuntimeError(f"server did not start: {err[-2000:]}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()

    def stop(self) -> dict:
        """Interrupt, wait, and return the launcher's report."""
        self.peak_rss_mb = peak_rss_mb_of(self.proc.pid)
        report: dict = {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._watchdog.cancel()
        if os.path.exists(self.report_path):
            with open(self.report_path) as fh:
                report = json.load(fh)
        if self in _LIVE:
            _LIVE.remove(self)
        shutil.rmtree(self.dir, ignore_errors=True)
        return report


def kill_all() -> None:
    for server in list(_LIVE):
        server.kill()
        try:
            server.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        shutil.rmtree(server.dir, ignore_errors=True)
        _LIVE.remove(server)
