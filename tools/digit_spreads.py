"""The spread behind each count of `solver.DIGITS` (README "Artifact digits").

    python tools/digit_spreads.py [--slow] WORKDIR

runs every solving command on the five fixtures and on the seed 1-3 configs
of the `dominant_certify` and `borderline_spectrum` bench workloads three
times, in fresh interpreters: as shipped, with every step and root
tolerance divided by 100 (`fine`), and with every first trial step of
every Magnus solve cut into `SPLIT` geometric pieces (`split`: the output
grids, ratio ladders and the geometric pieces of `propagate` stay the
nodes the steps end on, so every number is read where the shipped run
reads it).  It then prints, per artifact kind and CSV column or JSON key,
the largest relative spread of a written number between the shipped run
and each other run (u1 and u2 of a trajectory relative to rho), and the
count ceil(-log10 s) + 1 for the larger spread s, for every number that
moved at all.  Every run writes every number in full; a command that
refuses a fixture is skipped.  `--slow` adds `solve dominant_linear`, the
Cartesian DOP853 path (about 75 s), whose steps the split does not touch.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("borderline_linear", "constant_coeff", "dominant_linear",
            "modulated_quarter", "sqrt_periodic")
COMMANDS = ("solve", "boundedness", "subordinacy", "eigen", "scan",
            "asymptotics")
SIDES = ("ship", "fine", "split")
# the pieces each first trial step is cut into on the `split` side
SPLIT = 8


def _invocations(workdir: Path, slow: bool) -> list:
    from bench.workloads import build

    runs = [(f"{name}/{cmd}",
             [cmd, "--config", str(ROOT / "src/diracspec/fixtures"
                                   / f"{name}.json")])
            for name in FIXTURES for cmd in COMMANDS
            if slow or (cmd, name) != ("solve", "dominant_linear")]
    for workload in ("dominant_certify", "borderline_spectrum"):
        for seed in (1, 2, 3):
            w = build(workload, seed, workers=1)
            where = workdir / "configs" / f"{workload}_{seed}"
            where.mkdir(parents=True, exist_ok=True)
            w.write_configs(where)
            runs += [(f"{workload}_{seed}/{i}_{inv.command}",
                      [inv.command, "--config", str(where / inv.config)])
                     for i, inv in enumerate(w.invocations)]
    return runs


def _finer():
    """Divide every step and root tolerance of the commands by 100."""
    from diracspec import asymptotics, boundedness, cli, solver, subordinacy

    boundedness._RTOL /= 100
    subordinacy._SHOOT_RTOL /= 100
    for module in (subordinacy, asymptotics, cli):
        module.RESCALED_RTOL /= 100
    solver._ATOL /= 100
    norms, shoot, load = (subordinacy.cumulative_norms, cli.eigen_shoot,
                          cli.load_config)
    subordinacy.cumulative_norms = \
        lambda channel, U0, nodes, rtol: norms(channel, U0, nodes, rtol / 100)

    @functools.wraps(shoot)  # load_config reads its defaults
    def finer_shoot(*args, tol_lambda, **kwargs):
        return shoot(*args, tol_lambda=tol_lambda / 100, **kwargs)

    def finer_load(path):
        cfg = load(path)
        cfg.solver = replace(cfg.solver, rtol=cfg.solver.rtol / 100)
        return cfg

    cli.eigen_shoot, cli.load_config = finer_shoot, finer_load


def _split():
    """Cut every first trial step of every Magnus solve into `SPLIT`
    geometric pieces, so that the `solver._COARSE` = 16 pieces of a
    `propagate` range become 128.  The pieces of node interval j are
    intervals SPLIT j to SPLIT j + SPLIT - 1 of the cut solve, so each kept
    step is mapped back onto interval j and the solve still reads its
    numbers at the nodes."""
    import numpy as np

    from diracspec import solver

    steps = solver._steps

    def split_steps(qml, nodes, rtol):
        a, b = nodes[:, :-1, None], nodes[:, 1:, None]
        cut = a * (b / a) ** (np.arange(SPLIT) / SPLIT)
        cut = np.column_stack((cut.reshape(len(nodes), -1), nodes[:, -1]))
        t, seg, X, nfev, failures = steps(qml, cut, rtol)
        return t, seg // SPLIT, X, nfev, failures

    solver._steps = split_steps


def _run(workdir: Path, side: str, slow: bool):
    from diracspec import cli
    from diracspec.solver import DIGITS

    for table in DIGITS.values():  # every number in full
        for key, n in table.items():
            table[key] = tuple(17 for _ in n) if isinstance(n, tuple) else 17
    if side == "fine":
        _finer()
    if side == "split":
        _split()

    for name, argv in _invocations(workdir, slow):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main([*argv, "--out", str(workdir / side / name)])


def _numbers(path: Path) -> dict:
    """{(kind, column or key): [floats]} of one artifact."""
    out = {}
    if path.suffix == ".csv":
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        kind = path.name.split("_")[0].removesuffix(".csv")
        for name, column in zip(lines[0].split(","),
                                zip(*(ln.split(",") for ln in lines[1:]))):
            with contextlib.suppress(ValueError):
                out[kind, name] = [float(x) for x in column]
        return out
    doc = json.loads(path.read_text())

    def walk(obj, key):
        if isinstance(obj, dict):
            for k, v in obj.items():
                # the eigenvalues of each k under by_k
                walk(v, key if k.lstrip("-").isdigit() else k)
        elif isinstance(obj, list):
            # the ratio of a (r, ratio) row of `ratio_tail`
            rows = key == "ratio_tail"
            for v in obj:
                walk(v[1] if rows else v, key)
        elif isinstance(obj, float):
            out.setdefault((doc["kind"], key), []).append(obj)
    walk(doc, None)
    return out


def _spread(a, b, scale) -> float:
    worst = 0.0
    for x, y, s in zip(a, b, scale):
        if math.isfinite(x) and math.isfinite(y) and s:
            worst = max(worst, abs(x - y) / abs(s))
    return worst


def _compare(workdir: Path):
    worst = {}
    for path in sorted((workdir / "ship").rglob("*.*")):
        a = _numbers(path)
        for j, side in enumerate(SIDES[1:]):
            b = _numbers(workdir / side / path.relative_to(workdir / "ship"))
            for key, xs in a.items():
                scale = [max(abs(x), abs(y)) for x, y in zip(xs, b[key])]
                if key in {("trajectory", "u1"), ("trajectory", "u2")}:
                    scale = a["trajectory", "rho"]
                spreads = worst.setdefault(key, [0.0, 0.0])
                spreads[j] = max(spreads[j], _spread(xs, b[key], scale))
    print(f"{'kind':12} {'key':16} {'fine':>9} {'split':>9} digits")
    for (kind, key), spreads in sorted(worst.items()):
        if max(spreads):
            fine, split = spreads
            digits = math.ceil(-math.log10(max(spreads))) + 1
            print(f"{kind:12} {key:16} {fine:9.2e} {split:9.2e} {digits}")


def main(argv):
    slow = "--slow" in argv
    workdir = Path([a for a in argv if a != "--slow"][0]).resolve()
    for side in SIDES:
        subprocess.run([sys.executable, __file__, "--side", side, str(workdir),
                        *(["--slow"] if slow else [])], check=True, cwd=ROOT)
    _compare(workdir)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if sys.argv[1] == "--side":
        _run(Path(sys.argv[3]), sys.argv[2], "--slow" in sys.argv)
    else:
        main(sys.argv[1:])
