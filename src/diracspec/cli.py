"""Command-line orchestrator.

Subcommands: hypotheses, solve, boundedness, subordinacy, eigen, scan,
bv-verify, asymptotics, plotdata.  One JSON config schema is shared by all
commands; unknown keys are rejected so that runs stay auditable.  Outputs
are deterministic given config and seed: repeated runs produce byte-equal
files.

Flags: `--workers` sizes the pool of `scan` (one process per |k| chunk
at most); `--seed` seeds the random instances of `bv-verify`; `--tolerance`
sets `solver.rtol`, read by `solve`, `boundedness` and the dominant cells
of `scan` (the last two floor it at 1e-10); no other command reads them.

Exit codes: 0 success; 1 findings; 2 usage or config error.  `solve`,
`boundedness`, `subordinacy`, `scan`, `bv-verify` and `asymptotics` exit 1
on findings only under `--assert`; `hypotheses` exits 1 on any
non-auxiliary violated verdict, with or without it; `eigen` and `plotdata`
always exit 0 on a config or input they accept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .asymptotics import (
    DEFECT_STRIDES,
    borderline_trajectory,
    compare_asymptotics,
    defect_convergence,
    wkb_reference,
)
from .boundedness import almost_monotone_check, certify
from .bvcalc import (
    SampledFunction,
    WindowLadder,
    check_product_bound,
    check_quotient_bounds,
    jordan_decompose,
    lambda_trichotomy_probe,
    variation,
)
from .coefficients import (
    CoefficientModel,
    ConstantChannel,
    assemble_channel,
    model_from_dict,
    models_equal,
)
from .hypotheses import VIOLATED, check_c_conditions, check_hypotheses
from .solver import (
    PreconditionError,
    SolveConfig,
    integrate_cartesian,
    integrate_pruefer,
    prefer_pruefer,
)
from .subordinacy import (
    borderline_cell,
    classify_cells,
    eigen_shoot,
    spectrum_hypotheses,
    summarize_cells,
)

__all__ = ["main", "load_config", "fixture_path", "ConfigError", "RunConfig"]

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


_TOP_KEYS = {"model", "channel", "k_set", "lambda_grid", "bracket", "solver",
             "ladder", "tail_ladder", "subordinacy", "eigen", "asymptotics",
             "bv", "seed", "workers"}


@dataclass
class RunConfig:
    model: CoefficientModel | None
    channel_const: ConstantChannel | None
    k_set: list
    lambda_grid: list
    bracket: list | None
    solver: dict
    ladder: WindowLadder
    tail_ladder: WindowLadder
    subordinacy: dict
    eigen: dict
    asymptotics: dict
    bv: dict
    seed: int
    workers: int

    def solve_config(self) -> SolveConfig:
        return SolveConfig(**self.solver)


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    extra = sorted(set(obj) - allowed)
    if extra:
        raise ConfigError(f"{where}: unknown keys {extra}")


def _checked(where, build, *args, **kwargs):
    """Call a coercion or constructor; its TypeError or ValueError becomes a
    ConfigError naming the config section."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from None


def _is_int(x) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(x, int) and not isinstance(x, bool)


def _int(x) -> int:
    # a strict cast: int() would also take true, 2.7 and "3"
    if not _is_int(x):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _is_real(x) -> bool:
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


def _real(x) -> float:
    # a strict cast: float() would also take true and "3"
    if not _is_real(x):
        raise ValueError(f"expected a finite real, got {x!r}")
    return float(x)


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    _check_keys(raw, _TOP_KEYS, "config")

    model = None
    if "model" in raw:
        try:
            model = model_from_dict(raw["model"])
        except ValueError as err:
            raise ConfigError(str(err))
    channel_const = None
    if "channel" in raw:
        _check_keys(raw["channel"], {"Q", "M", "L"}, "config.channel")
        missing = sorted({"Q", "M", "L"} - set(raw["channel"]))
        if missing:
            raise ConfigError(f"config.channel: missing keys {missing}")
        channel_const = _checked("config.channel", lambda: ConstantChannel(
            *(_real(raw["channel"][key]) for key in ("Q", "M", "L"))))

    k_set = raw.get("k_set", [])
    _require(isinstance(k_set, list) and all(
        _is_int(k) and k != 0 for k in k_set),
        "config.k_set: expected a list of nonzero integers")
    lambda_grid = raw.get("lambda_grid", [])
    _require(isinstance(lambda_grid, list) and all(map(_is_real, lambda_grid)),
             "config.lambda_grid: expected a list of finite reals")
    lambda_grid = [float(l) for l in lambda_grid]

    bracket = raw.get("bracket")
    if bracket is not None:
        _require(isinstance(bracket, list) and len(bracket) == 2
                 and all(map(_is_real, bracket)) and bracket[0] < bracket[1],
                 "config.bracket: expected finite reals [lo, hi] with lo < hi")
        bracket = [float(b) for b in bracket]

    def section(key, defaults, **casts):
        # the defaults name every allowed key; values are finite reals
        # unless cast
        out = dict(defaults)
        if key in raw:
            _check_keys(raw[key], set(defaults), f"config.{key}")
            out.update(_checked(f"config.{key}", lambda: {
                k: casts.get(k, _real)(v) for k, v in raw[key].items()}))
        return out

    solver = section("solver", {"r_start": 1.0, "r_end": 100.0, "rtol": 1e-12,
                                "atol": 1e-14, "max_step": math.inf,
                                "stride": 0.05})
    _checked("config.solver", SolveConfig, **solver)
    ladder = _checked("config.ladder", WindowLadder, **section(
        "ladder", {"start": 25.0, "factor": 2.0, "rungs": 4}, rungs=_int))
    tail_ladder = _checked("config.tail_ladder", WindowLadder, **section(
        "tail_ladder", {"start": 25.0, "factor": 10.0, "rungs": 3},
        rungs=_int))
    sub = section("subordinacy", {"r0": 1.0, "r_end": 120.0, "delta": 1e-3})
    _require(0.0 < sub["r0"] < sub["r_end"] and sub["delta"] > 0.0,
             "config.subordinacy: need 0 < r0 < r_end and delta > 0")
    eigen = section("eigen", {"scan_step": 0.05, "tol": 1e-8})
    _require(eigen["scan_step"] > 0.0 and eigen["tol"] > 0.0,
             "config.eigen: scan_step and tol must be positive")
    asy = section("asymptotics", {"windows": None, "r_start": 5.0,
                                  "r_end": 210.0, "stride": 0.02},
                  windows=lambda ws: None if ws is None else
                  [(_real(lo), _real(hi)) for lo, hi in ws])
    _checked("config.asymptotics", SolveConfig, r_start=asy["r_start"],
             r_end=asy["r_end"], stride=asy["stride"])
    _require(all(asy["r_start"] <= lo < hi <= asy["r_end"]
                 for lo, hi in asy["windows"] or ()),
             "config.asymptotics: each window [lo, hi] needs "
             "r_start <= lo < hi <= r_end")
    lo, hi = _defect_window(asy)
    _require(hi - lo >= 2.0 * max(DEFECT_STRIDES),
             f"config.asymptotics: the defect window [{lo:g}, {hi:g}] is "
             f"shorter than two strides of {max(DEFECT_STRIDES):g}")
    bv = section("bv", {"instances": 200}, instances=_int)
    _require(bv["instances"] > 0, "config.bv: instances must be positive")
    seed, workers = _checked("config", lambda: (
        _int(raw.get("seed", 0)), _int(raw.get("workers", 1))))
    _require(workers >= 1, "config.workers: must be at least 1")

    return RunConfig(model=model, channel_const=channel_const, k_set=k_set,
                     lambda_grid=lambda_grid, bracket=bracket, solver=solver,
                     ladder=ladder, tail_ladder=tail_ladder, subordinacy=sub,
                     eigen=eigen, asymptotics=asy, bv=bv, seed=seed,
                     workers=workers)


def _defect_window(asy) -> tuple:
    """The range [lo, hi] of the defect convergence of `asymptotics`."""
    return max(asy["r_start"], 10.0), min(asy["r_end"], 50.0)


def fixture_path(name: str) -> Path:
    base = resources.files("diracspec") / "fixtures" / f"{name}.json"
    with resources.as_file(base) as p:
        return Path(p)


# ---------------------------------------------------------------------------
# deterministic writers


def _finite(obj):
    """obj with every non-finite float (nan, inf) replaced by None, which
    JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _write_json(path: Path, obj):
    # strict JSON: parsers reject the bare NaN and Infinity of json.dumps
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_finite(obj), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _write_rows(path: Path, header: str, rows, comment: str = ""):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        if comment:
            fh.write(comment + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x):
    if isinstance(x, str):
        return x
    return repr(float(x))


def _cell_name(k, lam):
    return f"k={k}_lambda={lam:g}"


def _say(line):
    """Print a report line.  Once a reader closes stdout (`| head`), the
    rest goes to the null device and the command writes every artifact."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_table(title, reports):
    _say(title)
    for rep in reports:
        aux = " (aux)" if rep.auxiliary else ""
        note = f"  [{rep.note}]" if rep.note else ""
        _say(f"  {rep.condition_id:<18} {rep.verdict:<13}{aux}{note}")


# ---------------------------------------------------------------------------
# subcommands


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _require_equal_model(cfg: RunConfig, command: str):
    _require(cfg.model is not None, f"{command} needs a 'model'")
    equal, where = models_equal(cfg.model)
    _require(equal, f"{command} needs m == q (first mismatch near "
                    f"r = {where if where else 0:g})")


def cmd_hypotheses(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    _require(cfg.model is not None, "hypotheses needs a 'model' in the config")
    _require(cfg.lambda_grid, "hypotheses needs a nonempty 'lambda_grid'")
    model = cfg.model
    doc = {"kind": "hypotheses", "model": model.to_dict(), "conditions": [],
           "channels": {}}
    reports, c_reports = check_hypotheses(model, cfg.k_set, cfg.lambda_grid,
                                          extreme_ladder=cfg.ladder,
                                          tail_ladder=cfg.tail_ladder)
    doc["conditions"] = [r.to_dict() for r in reports]
    _print_table("model conditions:", reports)

    violated = any(r.verdict == VIOLATED and not r.auxiliary for r in reports)
    for k in cfg.k_set:
        for lam in cfg.lambda_grid:
            creps = c_reports[k, lam]
            doc["channels"][_cell_name(k, lam)] = [r.to_dict() for r in creps]
            _print_table(f"channel k={k},lambda={lam:g}:", creps)
            violated = violated or any(
                r.verdict == VIOLATED and not r.auxiliary for r in creps)
    _write_json(out / "hypotheses.json", doc)
    return EXIT_FINDINGS if violated else EXIT_OK


def _channels_from(cfg: RunConfig):
    if cfg.channel_const is not None:
        return [(None, None, cfg.channel_const)]
    _require(cfg.model is not None,
             "need either a 'model' or a constant 'channel' in the config")
    _require(cfg.k_set, "need a nonempty 'k_set'")
    _require(cfg.lambda_grid, "need a nonempty 'lambda_grid'")
    return [(k, lam, assemble_channel(cfg.model, k, lam))
            for k in cfg.k_set for lam in cfg.lambda_grid]


def cmd_solve(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    failed = False
    for k, lam, channel in _channels_from(cfg):
        scfg = cfg.solve_config()
        if prefer_pruefer(channel, scfg.r_start, scfg.r_end):
            traj = integrate_pruefer(channel, 1.0, 0.0, scfg)
        else:
            traj = integrate_cartesian(channel, [1.0, 0.0], scfg)
        name = "const" if k is None else _cell_name(k, lam)
        traj.to_csv(out / f"trajectory_{name}.csv")
        stop = "" if traj.ok else f" last_r={traj.grid[-1]:.10g}"
        _say(f"solved {channel.label()}: mode={traj.mode} "
             f"status={traj.status} points={len(traj.grid)}{stop}")
        failed = failed or traj.status != 0
    return EXIT_FINDINGS if (assert_mode and failed) else EXIT_OK


def cmd_boundedness(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    findings = False
    channels = _channels_from(cfg)
    ladders = {"extreme_ladder": cfg.ladder, "tail_ladder": cfg.tail_ladder}
    if cfg.channel_const is not None:
        c_reports = {(None, None): check_c_conditions(cfg.channel_const,
                                                      **ladders)}
    else:
        c_reports = check_c_conditions(cfg.model, cfg.k_set, cfg.lambda_grid,
                                       **ladders)
    for k, lam, channel in channels:
        name = "const" if k is None else _cell_name(k, lam)
        creps = c_reports[k, lam]
        doc = {"kind": "boundedness", "channel": channel.label(),
               "conditions": [r.to_dict() for r in creps]}
        try:
            trace, cert = certify(channel, cfg.solve_config(), creps)
            trace.to_csv(out / f"rtrace_{name}.csv")
            verdicts = almost_monotone_check(trace)
            doc["almost_monotone"] = {
                "pairs": len(verdicts),
                "failures": [{f: v[f].item() for f in verdicts.dtype.names}
                             for v in verdicts[~verdicts.ok]]}
            doc["certificate"] = cert.to_dict()
            findings = findings or bool(doc["almost_monotone"]["failures"])
            _say(f"{channel.label()}: C={cert.C:.6g} sup_R={cert.sup_R:.6g} "
                 "verdict=bounded")
        except PreconditionError as err:
            doc["refused"] = str(err)
            findings = True
            _say(f"{channel.label()}: refused ({err})")
        _write_json(out / f"boundedness_{name}.json", doc)
    return EXIT_FINDINGS if (assert_mode and findings) else EXIT_OK


def cmd_subordinacy(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    _require_equal_model(cfg, "subordinacy")
    _require(cfg.k_set, "need a nonempty 'k_set'")
    _require(cfg.lambda_grid, "need a nonempty 'lambda_grid'")
    findings = False
    for k in cfg.k_set:
        for lam in cfg.lambda_grid:
            if lam == 0.0:
                continue  # boundary point carries no claim
            cell = borderline_cell(cfg.model, k, lam, cfg.subordinacy,
                                   with_census=True)
            # the claim: no subordinate solution below 0, one above
            claim = "ac-candidate" if lam < 0.0 else "subordinate-found"
            findings = findings or cell["classification"] != claim
            rep = cell["report"]
            _write_json(out / f"subordinacy_{_cell_name(k, lam)}.json", rep)
            _say(f"k={k} lambda={lam:g}: {rep['classification']} "
                 f"(liminf ~ {rep['liminf_estimate']:.4g})")
    return EXIT_FINDINGS if (assert_mode and findings) else EXIT_OK


def cmd_eigen(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    _require_equal_model(cfg, "eigen")
    _require(cfg.bracket is not None, "eigen needs a 'bracket'")
    _require(cfg.bracket[0] >= 0.0,
             "eigen needs a bracket inside the positive half-line")
    _require(cfg.k_set, "need a nonempty 'k_set'")
    doc = {"kind": "eigenvalues", "bracket": cfg.bracket, "by_k": {}}
    for k in cfg.k_set:
        eigs = eigen_shoot(cfg.model, k, cfg.bracket,
                           tol_lambda=cfg.eigen["tol"],
                           scan_step=cfg.eigen["scan_step"])
        doc["by_k"][str(k)] = eigs
        _say(f"k={k}: {len(eigs)} eigenvalue(s) in {cfg.bracket}: "
             + ", ".join(f"{e:.8f}" for e in eigs))
    _write_json(out / "eigenvalues.json", doc)
    return EXIT_OK


def _scan_chunk(payload):
    kwargs = dict(payload)
    return classify_cells(model_from_dict(kwargs.pop("model")), **kwargs)


def cmd_scan(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    _require(cfg.model is not None, "scan needs a 'model'")
    _require(cfg.k_set, "need a nonempty 'k_set'")
    _require(cfg.lambda_grid, "scan needs a nonempty 'lambda_grid'")
    ladders = {"extreme_ladder": cfg.ladder, "tail_ladder": cfg.tail_ladder}
    doc = spectrum_hypotheses(cfg.model, cfg.lambda_grid, **ladders)
    # one chunk per |k|: its C checks reduce k and -k once
    payloads = [{"model": cfg.model.to_dict(),
                 "k_set": [k for k in cfg.k_set if abs(k) == size],
                 "lambda_grid": cfg.lambda_grid,
                 "equal": doc["equal_coefficients"],
                 "heuristic": doc["heuristic"],
                 "solver": cfg.solve_config(),
                 "subordinacy": cfg.subordinacy, **ladders}
                for size in sorted({abs(k) for k in cfg.k_set})]
    workers = min(cfg.workers, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers up front: one per chunk at most
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunk, payloads))
    else:
        results = [_scan_chunk(p) for p in payloads]
    doc["cells"] = sorted((c for cells in results for c in cells),
                          key=lambda c: (c["k"], c["lambda"]))
    doc["summary"] = summarize_cells(doc["cells"])

    codes = {"ac-candidate": "ac", "subordinate-found": "sub",
             "excluded": "excl", "inconclusive": "inc", "error": "error"}
    lams = sorted(set(cfg.lambda_grid))
    header = "k\\lambda," + ",".join(f"{l:g}" for l in lams)
    by_k = {}
    for cell in doc["cells"]:
        by_k.setdefault(cell["k"], {})[cell["lambda"]] = \
            codes.get(cell["classification"], "inc")
    rows = [[str(k)] + [by_k[k].get(l, "") for l in lams]
            for k in sorted(by_k)]
    _write_rows(out / "scan.csv", header, rows, comment="# kind=scan")
    for cell in doc["cells"]:
        _write_json(out / "cells" /
                    f"cell_{_cell_name(cell['k'], cell['lambda'])}.json", cell)
    _write_json(out / "scan.json", doc)
    _say(f"scan: {len(doc['cells'])} cells, "
         f"{doc['summary']['n_errors']} errors; "
         f"ac-candidate lambdas: {doc['summary']['ac_candidate_lambdas']}")
    bad = any(c["classification"] in ("error", "inconclusive")
              for c in doc["cells"])
    return EXIT_FINDINGS if (assert_mode and bad) else EXIT_OK


def cmd_bv_verify(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.bv["instances"]
    product_fail, quotient_fail, jordan_fail = [], [], []
    for i in range(n):
        grid = np.linspace(0.0, float(rng.uniform(4.0, 10.0)), 3001)
        a, b, w = rng.uniform(-2, 2, 3)
        c = rng.uniform(0.2, 3.0)
        fv = a + b * np.sin(w * grid) / (1 + c * grid)
        fd = (b * w * np.cos(w * grid) / (1 + c * grid)
              - b * c * np.sin(w * grid) / (1 + c * grid) ** 2)
        gv = rng.uniform(-2, 2) * np.cos(rng.uniform(0.1, 3) * grid) \
            + rng.uniform(-1, 1)
        res = check_product_bound(SampledFunction(grid, fv, deriv=fd),
                                  SampledFunction(grid, gv))
        if not res.holds:
            product_fail.append(i)

        gpos = 1.5 + 0.4 * np.sin(rng.uniform(0.1, 4) * grid) + rng.uniform(0, 2)
        raw = np.sin(rng.uniform(0.1, 5) * grid + rng.uniform(0, 7))
        eps = rng.uniform(0.1, 0.8)
        f2 = raw * eps * float(np.min(gpos)) / float(np.max(np.abs(raw)))
        qres = check_quotient_bounds(SampledFunction(grid, f2),
                                     SampledFunction(grid, gpos))
        if not (qres.precondition_met and qres.holds):
            quotient_fail.append(i)

        samples = SampledFunction(grid[::30], fv[::30] + gv[::30])
        gp, gm = jordan_decompose(samples)
        scale = 1.0 + float(np.max(np.abs(samples.values)))
        recomp = float(np.max(np.abs(gp.values - gm.values - samples.values)))
        tele = gp.values[-1] + gm.values[-1] - gp.values[0] - gm.values[0]
        ok = (np.all(np.diff(gp.values) >= 0) and np.all(np.diff(gm.values) >= 0)
              and recomp <= 1e-12 * scale
              and abs(tele - variation(samples)) <= 1e-12 * (1 + tele))
        if not ok:
            jordan_fail.append(i)

    doc = {"kind": "bv_verify", "instances": n, "seed": cfg.seed,
           "product_bound_failures": product_fail,
           "quotient_bound_failures": quotient_fail,
           "jordan_failures": jordan_fail}
    if cfg.model is not None and cfg.lambda_grid:
        probe = lambda_trichotomy_probe(cfg.model, cfg.lambda_grid,
                                        cfg.tail_ladder.start,
                                        factor=cfg.tail_ladder.factor,
                                        rungs=cfg.tail_ladder.rungs)
        doc["trichotomy"] = probe.to_dict()
        _say(f"trichotomy pattern: {probe.pattern}")
    _write_json(out / "bv_report.json", doc)
    failures = len(product_fail) + len(quotient_fail) + len(jordan_fail)
    _say(f"bv-verify: {n} instances, {failures} failures")
    return EXIT_FINDINGS if (assert_mode and failures) else EXIT_OK


def cmd_asymptotics(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    _require_equal_model(cfg, "asymptotics")
    _require(cfg.k_set, "need a nonempty 'k_set'")
    neg = [l for l in cfg.lambda_grid if l < 0.0]
    _require(neg, "asymptotics needs negative entries in 'lambda_grid'")
    trend_ok = True
    for k in cfg.k_set:
        for lam in neg:
            scfg = SolveConfig(r_start=cfg.asymptotics["r_start"],
                               r_end=cfg.asymptotics["r_end"],
                               rtol=1e-11, stride=cfg.asymptotics["stride"])
            traj = borderline_trajectory(cfg.model, k, lam, scfg)
            ref = wkb_reference(cfg.model, lam, traj.grid)
            res = compare_asymptotics(traj, ref,
                                      windows=cfg.asymptotics["windows"])
            name = _cell_name(k, lam)
            _write_rows(out / f"residuals_{name}.csv", "center,residual",
                        [(w["center"], w["residual"]) for w in res],
                        comment="# kind=residuals")
            conv = defect_convergence(cfg.model, k, lam,
                                      *_defect_window(cfg.asymptotics))
            _write_json(out / f"defects_{name}.json",
                        {"kind": "defects", **conv})
            resid = [w["residual"] for w in res]
            trend_ok = trend_ok and (len(resid) < 2 or resid[-1] <= resid[0])
            _say(f"k={k} lambda={lam:g}: residuals "
                 + " ".join(f"{x:.3g}" for x in resid)
                 + f"; defect orders { [round(o, 3) for o in conv['orders']] }")
    return EXIT_FINDINGS if (assert_mode and not trend_ok) else EXIT_OK


_PLOT_KINDS = {"rtrace", "residuals", "subordinacy", "census", "scan"}


def cmd_plotdata(inputs, out: Path) -> int:
    for item in inputs:
        path = Path(item)
        if not path.exists():
            raise ConfigError(f"input not found: {path}")
        if path.suffix == ".json":
            doc = _checked(f"{path}: not valid JSON", json.loads,
                           path.read_text())
            kind = doc.get("kind") if isinstance(doc, dict) else None
        else:
            with open(path) as fh:
                first = fh.readline().strip()
            kind = first.removeprefix("# kind=") if first.startswith("# kind=") \
                else None
        if kind not in _PLOT_KINDS:
            raise ConfigError(f"{path}: unknown artifact kind {kind!r}")
        if path.suffix == ".json":
            try:
                rows = _json_rows(kind, doc)
            except ConfigError:
                raise
            except (KeyError, TypeError, ValueError) as err:
                raise ConfigError(f"{path}: malformed {kind} document: "
                                  f"{type(err).__name__}: {err}") from None
        else:
            rows = _csv_rows(path)
        target = out / (path.stem + ".dat")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("".join(row + "\n" for row in rows))
        _say(f"wrote {target}")
    return EXIT_OK


def _csv_rows(path: Path) -> list:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header_idx = 1 if lines[0].startswith("#") else 0
    _require(len(lines) > header_idx, f"{path}: no header row")
    return ["# " + " ".join(lines[header_idx].split(","))] + \
        [" ".join(ln.split(",")) for ln in lines[header_idx + 1:]]


def _json_rows(kind: str, doc: dict) -> list:
    if kind == "subordinacy":
        return ["# r ratio"] + [f"{_fmt(r)} {_fmt(v)}"
                                for r, v in doc["ratio_tail"]]
    if kind == "census":
        return ["# n J_length K_length"] + [
            f"{n} {_fmt(J)} {_fmt(K)}"
            for n, J, K in zip(doc["ns"], doc["J_lengths"], doc["K_lengths"])]
    if kind == "scan":
        return ["# k lambda classification"] + [
            f"{cell['k']} {_fmt(cell['lambda'])} {cell['classification']}"
            for cell in doc["cells"]]
    raise ConfigError(f"no plot-data emitter for kind {kind!r}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diracspec",
        description="numerical spectral diagnostics for half-line Dirac "
                    "systems with unbounded potentials")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ("hypotheses", "solve", "boundedness", "subordinacy", "eigen",
                "scan", "bv-verify", "asymptotics", "plotdata")
    for name in commands:
        p = sub.add_parser(name)
        if name == "plotdata":
            p.add_argument("inputs", nargs="+")
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--assert", dest="assert_mode", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)

    try:
        if args.command == "plotdata":
            return cmd_plotdata(args.inputs, out)
        cfg = load_config(args.config)
        if args.workers is not None:
            _require(args.workers >= 1, "--workers: must be at least 1")
            cfg.workers = args.workers
        if args.seed is not None:
            cfg.seed = args.seed
        if args.tolerance is not None:
            cfg.solver["rtol"] = args.tolerance
            _checked("--tolerance", cfg.solve_config)
        out.mkdir(parents=True, exist_ok=True)
        dispatch = {
            "hypotheses": cmd_hypotheses,
            "solve": cmd_solve,
            "boundedness": cmd_boundedness,
            "subordinacy": cmd_subordinacy,
            "eigen": cmd_eigen,
            "scan": cmd_scan,
            "bv-verify": cmd_bv_verify,
            "asymptotics": cmd_asymptotics,
        }
        return dispatch[args.command](cfg, out, args.assert_mode)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
