"""The spread behind each count of `solver.DIGITS` (README "Artifact digits").

    python tools/digit_spreads.py [--slow] WORKDIR

runs every solving command on the five fixtures and on the seed 1-3 configs
of the `dominant_certify` and `borderline_spectrum` bench workloads twice,
in fresh interpreters: once as shipped and once with every step and root
tolerance divided by 100.  It then prints, per artifact kind and CSV column
or JSON key, the largest relative spread of a written number between the
two runs (u1 and u2 of a trajectory relative to rho), and the count
ceil(-log10 spread) + 1, for every number that moved at all.  Both runs
write every number in full; a command that refuses a fixture is skipped.  `--slow`
adds `solve dominant_linear`, the Cartesian DOP853 path (about 75 s).
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


def _run(workdir: Path, side: str, slow: bool):
    from diracspec import cli
    from diracspec.solver import DIGITS

    for table in DIGITS.values():  # every number in full
        for key, n in table.items():
            table[key] = tuple(17 for _ in n) if isinstance(n, tuple) else 17
    if side == "fine":
        _finer()

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
        other = workdir / "fine" / path.relative_to(workdir / "ship")
        a, b = _numbers(path), _numbers(other)
        for key, xs in a.items():
            scale = [max(abs(x), abs(y)) for x, y in zip(xs, b[key])]
            if key in {("trajectory", "u1"), ("trajectory", "u2")}:
                scale = a["trajectory", "rho"]
            worst[key] = max(worst.get(key, 0.0), _spread(xs, b[key], scale))
    for (kind, key), s in sorted(worst.items()):
        if s:
            print(f"{kind:12} {key:16} {s:9.2e} {math.ceil(-math.log10(s)) + 1}")


def main(argv):
    slow = "--slow" in argv
    workdir = Path([a for a in argv if a != "--slow"][0]).resolve()
    for side in ("ship", "fine"):
        subprocess.run([sys.executable, __file__, "--side", side, str(workdir),
                        *(["--slow"] if slow else [])], check=True, cwd=ROOT)
    _compare(workdir)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if sys.argv[1] == "--side":
        _run(Path(sys.argv[3]), sys.argv[2], "--slow" in sys.argv)
    else:
        main(sys.argv[1:])
