"""Tests of the benchmark itself: tracer bindings, failure accounting,
repeatable counts and the generated workloads."""

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from diracspec import solver, subordinacy  # noqa: E402
from diracspec.cli import fixture_path, load_config  # noqa: E402


def _solve_gate(out, stdout):
    # "solved k=1,lambda=1: mode=cartesian status=-1 points=1636"
    bad = {}
    for line in stdout.splitlines():
        if line.startswith("solved ") and "status=0 " not in line:
            label = line.split()[1].rstrip(":")
            bad[label] = line
    return bad


def _workload(tmp_path, lams, command="solve", gate=_solve_gate):
    """A one-invocation workload on the borderline fixture model."""
    doc = json.loads(fixture_path("borderline_linear").read_text())
    doc.update(k_set=[1], lambda_grid=lams)
    cells = tuple(f"k=1,lambda={lam:g}" for lam in lams)
    wl = workloads.Workload("test", {"cfg.json": doc}, [
        workloads.Invocation(command, "cfg.json", cells, gate=gate)])
    wl.write_configs(tmp_path)
    return harness.Runner(wl, tmp_path)


def test_tracer_replaces_every_binding():
    original = solver.propagate
    with tracing.Tracer():
        assert subordinacy.propagate is solver.propagate
        assert solver.propagate is not original
        assert solver.propagate.__wrapped__ is original
    assert solver.propagate is original
    assert subordinacy.propagate is original


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_solve_is_counted_with_its_cause(tmp_path):
    # known defect: the Cartesian solve at lambda = 1 stops with status -1
    runner = _workload(tmp_path, [1.0])
    first = runner.run_pass()
    assert first.failed == [("solve[cfg.json]:k=1,lambda=1",
                             first.failed[0][1])]
    assert "status=-1" in first.failed[0][1]

    tr = tracing.Tracer()
    with tr:
        runner.run_pass(tr)
    row = tracing.pass_metrics(tr.spans, tr.scalar_calls)
    assert row["solver.failed"] == 1
    assert row["solver.solves"] == 1


def test_raising_invocation_fails_all_its_cells(tmp_path):
    # the census refuses k = 1, lambda = -0.25 (|L|/Q too large at r0)
    runner = _workload(tmp_path, [-0.25], command="subordinacy", gate=None)
    result = runner.run_pass()
    assert len(result.failed) == 1
    assert result.failed[0][1].startswith("raised ")
    assert "PreconditionError" in result.failed[0][1]


def test_traced_counts_repeat_exactly(tmp_path):
    runner = _workload(tmp_path, [-1.0])
    rows = []
    for _ in range(2):
        tr = tracing.Tracer()
        with tr:
            assert not runner.run_pass(tr).failed
        rows.append(tracing.pass_metrics(tr.spans, tr.scalar_calls))
    for key in ("coefficients.scalar_calls", "coefficients.vector_points",
                "solver.solves"):
        assert rows[0][key] == rows[1][key] > 0
    assert rows[0]["solver.self_s"] <= rows[0]["solver.busy_s"]


def test_self_time_subtracts_children():
    # layer, name, parent, start, end, rhs at start, rhs at end, info
    spans = [["cli", "eigen", -1, 0.0, 10.0, 0, 100, None],
             ["subordinacy", "eigen_shoot", 0, 1.0, 9.0, 0, 100, 2],
             ["solver", "propagate", 1, 2.0, 5.0, 0, 60, 0],
             ["solver", "propagate", 1, 5.0, 7.0, 60, 100, 0]]
    busy, self_s, rhs = tracing.layer_totals(spans)
    assert busy["solver"] == pytest.approx(5.0)
    assert self_s["subordinacy"] == pytest.approx(3.0)
    assert self_s["cli"] == pytest.approx(2.0)
    assert rhs["solver"] == 100 and rhs["subordinacy"] == 0


def test_airy_oracle_matches_known_roots():
    roots = workloads.airy_eigenvalues(1.0, 4.6)
    assert roots == pytest.approx([2.67401194, 4.06578243], abs=1e-8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_configs_are_seeded_and_valid(name, tmp_path):
    a = workloads.build(name, 7, 2)
    assert a.configs == workloads.build(name, 7, 2).configs
    assert a.configs != workloads.build(name, 8, 2).configs
    for path in a.write_configs(tmp_path):
        load_config(path)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dominant_certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _hold(mb, seconds):
    block = b"x" * (mb << 20)  # written, so resident
    time.sleep(seconds)
    return len(block)


def test_tree_memory_counts_a_forked_child_once():
    # the child's copy of this process's pages is shared, not counted again
    child = multiprocessing.get_context("fork").Process(target=_hold,
                                                        args=(64, 0.5))
    with harness.TreeMemory() as memory:
        child.start()
        child.join()
    own_mb = harness._rss_kb() / 1024.0
    added_mb = memory.take() / 1024.0 - own_mb
    assert 64 <= added_mb < 64 + own_mb / 2
    assert memory.take() == 0


@pytest.mark.parametrize("reference, nominal_s", [
    (harness.reference_s, harness.REFERENCE_NOMINAL_S),
    (harness.setup_reference_s, harness.SETUP_REFERENCE_NOMINAL_S)])
def test_reference_clock_rescales_by_the_bracketing_references(reference,
                                                               nominal_s):
    clock = harness.ReferenceClock(reference, nominal_s)
    assert clock.time(lambda: "done")[0] == "done"
    assert len(clock.refs) == 2 and all(t > 0 for t in clock.refs)
    clock.refs = [2 * nominal_s]
    _, raw, scaled = clock.time(lambda: time.sleep(0.01))
    speed = 0.5 * (clock.refs[0] + clock.refs[1]) / nominal_s
    assert scaled == pytest.approx(raw / speed)
