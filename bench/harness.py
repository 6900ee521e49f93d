"""Pass execution, correctness accounting and the measurement loops.

A pass runs every CLI invocation of a workload in this process through
`diracspec.cli.main(argv)`; its wall time covers the invocations only.
Each invocation decides a fixed set of cells.  A cell fails when its
invocation raises, exits with an unexpected code, fails the workload's
gate, or writes an artifact that differs from the first pass; every
failure is kept with its cause.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import solve_ivp

import tracer as tracing
import workloads

MIN_PASSES = 3
SETUP_SAMPLES = 3
MEMORY_SAMPLE_S = 0.05
MAX_WORKERS = 2


@dataclass
class PassResult:
    wall_s: float              # raw wall time of the CLI invocations
    scaled_s: float            # the same, rescaled to reference speed
    ops: list                  # (operation, cause or None)
    bytes_out: int

    @property
    def failed(self):
        return [(op, cause) for op, cause in self.ops if cause is not None]


class WallClock:
    """Times a step; the rescaled time is the raw time."""

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        return result, dt, dt


@dataclass
class Runner:
    """Runs passes of one workload in a work directory and keeps the
    first pass's artifacts for the determinism check."""

    workload: workloads.Workload
    workdir: Path
    first_artifacts: dict = field(default_factory=dict)
    n_passes: int = 0

    def run_pass(self, tracer=None, clock=None) -> PassResult:
        from diracspec.cli import main

        clock = clock or WallClock()
        out_root = self.workdir / f"pass{self.n_passes}"
        self.n_passes += 1
        invs = self.workload.invocations
        outs = [out_root / f"{i}-{inv.command}" for i, inv in enumerate(invs)]
        results, wall, scaled = [], 0.0, 0.0
        for inv, out in zip(invs, outs):
            argv = [inv.command, "--config", str(self.workdir / inv.config),
                    "--out", str(out), *inv.args]

            def call():
                sid = tracer.open("cli", inv.command) if tracer else None
                try:
                    return _invoke(main, argv)
                finally:
                    if tracer:
                        tracer.close(sid)

            result, dt, scaled_dt = clock.time(call)
            results.append(result)
            wall += dt
            scaled += scaled_dt

        ops = []
        for i, (inv, out, (rc, text, error)) in enumerate(
                zip(invs, outs, results)):
            causes = self._judge(i, inv, out, rc, text, error)
            ops += [(f"{inv.command}[{inv.config}]:{cell}", causes.get(cell))
                    for cell in inv.cells]
        bytes_out = sum(p.stat().st_size for p in out_root.rglob("*")
                        if p.is_file())
        shutil.rmtree(out_root)
        return PassResult(wall, scaled, ops, bytes_out)

    def _judge(self, i, inv, out, rc, text, error) -> dict:
        if error is not None:
            return dict.fromkeys(inv.cells, error)
        if rc not in inv.expect_rc:
            return dict.fromkeys(inv.cells, f"exit code {rc}: {_tail(text)}")
        try:
            causes = inv.gate(out, text) if inv.gate else {}
            for name in inv.stable:
                data = (out / name).read_bytes()
                if self.first_artifacts.setdefault((i, name), data) != data:
                    return dict.fromkeys(
                        inv.cells, f"{name} differs from the first pass")
        except Exception:  # a gate that cannot read the outputs fails them
            return dict.fromkeys(inv.cells, _tail(traceback.format_exc()))
        return causes


def _tail(text: str, lines: int = 3) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


def _invoke(main, argv):
    """Run one CLI call; returns (exit code, captured output, error)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = main(argv)
            error = None
        except SystemExit as exc:  # argparse usage errors
            rc, error = exc.code, None
        except Exception:
            rc, error = None, "raised " + _tail(traceback.format_exc())
    return rc, buf.getvalue(), error


# ---------------------------------------------------------------------------
# set-up time and the run record


def run_setup(src: Path, configs: list):
    """A fresh interpreter that imports the CLI and validates the
    workload's configs, as a user's every CLI call pays it."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from diracspec.cli import load_config; "
            "[load_config(p) for p in sys.argv[2:]]")
    subprocess.run([sys.executable, "-c", code, str(src),
                    *map(str, configs)], check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _child_pids(pid) -> list:
    """Every descendant of `pid`: the scan pool workers, which are
    grandchildren when the pool starts them through a fork server."""
    found = []
    with contextlib.suppress(OSError):
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                for child in map(int, fh.read().split()):
                    found += [child, *_child_pids(child)]
    return found


def _private_kb(pid) -> int:
    """Memory only `pid` holds: what a forked child added to or copied
    from its parent, without the pages it still shares with it."""
    kb = 0
    with contextlib.suppress(OSError):
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    kb += int(line.split()[1])
    return kb


def _rss_kb() -> int:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


class TreeMemory:
    """Sampled peak memory of this process and its live descendants.

    A thread samples every MEMORY_SAMPLE_S seconds; while any descendant
    lives, it records this process's resident set plus the private memory
    of each descendant.  A forked pool worker shares this process's pages,
    so its own resident set would count them twice."""

    def __init__(self):
        self.peak_kb = 0  # since the last take()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        me = os.getpid()
        while not self._stop.wait(MEMORY_SAMPLE_S):
            kids = sum(map(_private_kb, _child_pids(me)))
            if kids:
                self.peak_kb = max(self.peak_kb, _rss_kb() + kids)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def take(self) -> int:
        """The sampled peak since the last call, in kB; 0 if no
        descendant lived."""
        peak, self.peak_kb = self.peak_kb, 0
        return peak


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "diracspec").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(src: Path) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "source_sha256": source_digest(src)}


# ---------------------------------------------------------------------------
# machine-speed reference
#
# The speed of a shared machine drifts by +-30% over tens of seconds, which
# is the length of a run.  Every timed step is therefore bracketed by a
# fixed reference that uses no diracspec code and does the same kind of
# work, and its time is rescaled to what it would have been with the
# reference at its nominal time.  A CLI invocation is bracketed by a
# numerical computation, a set-up interpreter by an interpreter that only
# imports the third-party modules diracspec imports: the speed of
# numerical work and that of start-up and imports drift apart.

REFERENCE_NOMINAL_S = 0.15
SETUP_REFERENCE_NOMINAL_S = 0.75


def _reference_rhs(t, y):
    return (y[1], -(1.0 + 0.1 * math.sin(t)) * y[0])


def reference_s() -> float:
    """Wall time of the fixed reference: an interpreted-RHS DOP853 solve
    (the kind of work the solver layer does) and vector numpy work (the
    kind window sampling does)."""
    t0 = time.perf_counter()
    solve_ivp(_reference_rhs, (0.0, 150.0), [1.0, 0.0], method="DOP853",
              rtol=1e-10, atol=1e-12)
    x = np.linspace(1.0, 100.0, 200_000)
    for _ in range(15):
        np.abs(np.diff(np.sin(x) * x ** 0.7))
    return time.perf_counter() - t0


def setup_reference_s() -> float:
    """Wall time of a fresh interpreter that imports numpy and the scipy
    modules diracspec imports."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import numpy, scipy.integrate, scipy.interpolate"],
                   check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


class ReferenceClock:
    """Times a step and rescales it by the mean of the reference times
    measured just before and just after it."""

    def __init__(self, reference=reference_s, nominal_s=REFERENCE_NOMINAL_S):
        self.reference = reference
        self.nominal_s = nominal_s
        reference()  # warm-up, untimed
        self.refs = [reference()]

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        self.refs.append(self.reference())
        speed = 0.5 * (self.refs[-2] + self.refs[-1]) / self.nominal_s
        return result, dt, dt / speed


# ---------------------------------------------------------------------------
# measurement


def _run_until(seconds, step, min_steps=MIN_PASSES):
    """Call `step` until `seconds` have passed and it ran `min_steps`
    times, but start no call after 3 x `seconds`, so that a very slow
    program still ends in time."""
    start = time.perf_counter()
    results = []
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(results) >= min_steps
                                   or elapsed >= 3 * seconds):
            return results
        results.append(step())


def measure(name: str, seed: int, seconds: float, trace: bool,
            root: Path) -> tuple:
    """Returns (result line, run record) for one benchmark run."""
    src = root / "src"
    workers = min(MAX_WORKERS, os.cpu_count() or 1)
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch))
    try:
        # traced passes run with one worker: spans in pool children are lost
        workload = workloads.build(name, seed, 1 if trace else workers)
        configs = workload.write_configs(workdir)
        from diracspec.cli import load_config
        for path in configs:
            load_config(path)  # raises ConfigError on a bad generated config
        runner = Runner(workload, workdir)
        clock = ReferenceClock()
        if trace:
            metrics, passes, record = _measure_traced(runner, clock, seconds)
        else:
            metrics, passes, record = _measure_end_to_end(
                runner, clock, seconds, src, configs)
            record["workers"] = workers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    n_ops = sum(len(p.ops) for p in passes)
    failures = [{"op": op, "cause": cause}
                for p in passes for op, cause in p.failed]
    record.update(environment(src), workload=name, seed=seed,
                  seconds=seconds, trace=trace,
                  cells_per_pass=workload.cells_per_pass,
                  reference_nominal_s=REFERENCE_NOMINAL_S,
                  reference_s_samples=clock.refs,
                  failed_ratio=len(failures) / n_ops,
                  failures=failures[:20])
    result = {"correct": not failures, "attempted": n_ops,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, record


def _measure_end_to_end(runner, clock, seconds, src, configs):
    pool_kb = []

    def step():
        p = runner.run_pass(clock=clock)
        pool_kb.append(memory.take())
        return p

    # per-pass pool peaks, so that their median does not grow with the
    # number of samples; stopped before set-up starts other children
    with TreeMemory() as memory:
        passes = _run_until(seconds, step)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_clock = ReferenceClock(setup_reference_s, SETUP_REFERENCE_NOMINAL_S)
    setups = [setup_clock.time(lambda: run_setup(src, configs))[1:]
              for _ in range(SETUP_SAMPLES)]
    wall = statistics.median(p.scaled_s for p in passes)
    metrics = {
        "wall_s": (wall, "s"),
        "cells_per_s": (runner.workload.cells_per_pass / wall, "1/s"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (max(own_kb, statistics.median(pool_kb)) / 1024.0,
                        "MB"),
    }
    record = {"passes": len(passes),
              "wall_s_samples": [p.scaled_s for p in passes],
              "raw_wall_s_samples": [p.wall_s for p in passes],
              "setup_s_samples": [s for _, s in setups],
              "raw_setup_s_samples": [raw for raw, _ in setups],
              "setup_reference_nominal_s": SETUP_REFERENCE_NOMINAL_S,
              "setup_reference_s_samples": setup_clock.refs,
              "pool_peak_mb_samples": [kb / 1024.0 for kb in pool_kb]}
    return metrics, passes, record


def _measure_traced(runner, clock, seconds):
    """Alternate untraced and traced passes (both with one worker); the
    per-layer metrics are medians over the traced passes, and the tracing
    overhead is the difference of the two kinds' median wall times."""
    tracer = tracing.Tracer()
    rows, plain, traced = [], [], []

    def pair():
        plain.append(runner.run_pass(clock=clock))
        tracer.reset()
        with tracer:
            p = runner.run_pass(tracer, clock)
        row = tracing.pass_metrics(tracer.spans, tracer.scalar_calls)
        row["cli.bytes_out"] = p.bytes_out
        rows.append(row)
        traced.append(p)

    _run_until(seconds, pair, min_steps=2)
    metrics = {key: (statistics.median(row.get(key, 0) for row in rows), unit)
               for key, unit in tracing.PER_LAYER_UNITS.items()
               if not key.startswith("trace.")}
    t_wall = statistics.median(p.scaled_s for p in traced)
    u_wall = statistics.median(p.scaled_s for p in plain)
    metrics["trace.traced_wall_s"] = (t_wall, "s")
    metrics["trace.untraced_wall_s"] = (u_wall, "s")
    metrics["trace.overhead_s"] = (t_wall - u_wall, "s")
    record = {"traced_passes": len(traced), "untraced_passes": len(plain)}
    return metrics, plain + traced, record


def emit(result: dict, record: dict):
    """Failures to stderr, the run record then the result as the last two
    lines of stdout."""
    for f in record["failures"]:
        print(f"FAILED {f['op']}: {f['cause']}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
