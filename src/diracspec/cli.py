"""Command-line orchestrator.

Subcommands: hypotheses, solve, boundedness, subordinacy, eigen, scan,
bv-verify, asymptotics, plotdata.  One JSON config schema is shared by all
commands; unknown keys are rejected so that runs stay auditable.  Outputs
are deterministic given config and seed: repeated runs produce byte-equal
files.

Flags: `--workers` sizes the pool of `scan` (one chunk of whole |k| pairs
each); `--seed` seeds the random instances of `bv-verify`; no other command
reads them.  No flag or config key sets a step tolerance (`SolveConfig`'s
default, 1e-10 in `boundedness.certify`) or the threshold `subordinacy.DELTA`.

Exit codes: 0 success; 1 findings; 2 usage or config error.  `solve`,
`boundedness`, `subordinacy`, `scan`, `bv-verify` and `asymptotics` exit 1
on findings only under `--assert`; `hypotheses` exits 1 on any
non-auxiliary violated verdict, with or without it; `eigen` and `plotdata`
always exit 0 on a config or input they accept.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import cache, partial
from importlib import resources
from itertools import groupby
from pathlib import Path

import numpy as np

from .asymptotics import (
    borderline_trajectory,
    compare_asymptotics,
    defect_convergence,
    defect_window,
    wkb_reference,
)
from .boundedness import almost_monotone_check, certify
from .bvcalc import (
    SampledFunction,
    check_product_bound,
    check_quotient_bounds,
    jordan_decompose,
    variation,
)
from .coefficients import (
    ChannelBatch,
    CoefficientModel,
    ConstantChannel,
    assemble_channel,
    model_from_dict,
    require_equal,
)
from .hypotheses import (
    SATISFIED,
    VIOLATED,
    check_c_conditions,
    check_hypotheses,
    check_scan,
    lambda_trichotomy_probe,
    worst_verdict,
)
from .solver import (
    DIGITS,
    PreconditionError,
    SolveConfig,
    integrate_cartesian,
    integrate_pruefer,
    prefer_pruefer,
    write_columns,
)
from .subordinacy import (
    RESCALED_RTOL,
    borderline_cell,
    classify_cells,
    eigen_bracket,
    eigen_shoot,
    eigen_steps,
    phase_band,
    ratio_range,
    summarize_cells,
)

__all__ = ["main", "load_config", "fixture_path", "ConfigError", "RunConfig"]

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    model: CoefficientModel | None
    channel: ConstantChannel | None
    k_set: list
    lambda_grid: list
    bracket: list | None
    solver: SolveConfig
    subordinacy: dict
    eigen: dict
    asymptotics: SolveConfig
    bv: dict
    seed: int
    workers: int


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


def _seed(x) -> int:
    # README's U64: numpy's generators refuse a negative seed
    if not (_is_int(x) and 0 <= x < 2 ** 64):
        raise ValueError(f"expected an integer in [0, 2^64), got {x!r}")
    return x


def _is_real(x) -> bool:
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


def _real(x) -> float:
    # a strict cast: float() would also take true and "3"
    if not _is_real(x):
        raise ValueError(f"expected a finite real, got {x!r}")
    return float(x)


def _read_text(path: Path, what: str) -> str:
    # a missing, unreadable or non-UTF-8 input (say a directory) is refused
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{what} unreadable: {path}: "
                          f"{getattr(err, 'strerror', None) or err}") from None


def _make_dir(path: Path):
    # an --out that cannot be a directory (say a file) is refused
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out: cannot make the directory {path}: "
                          f"{err.strerror or err}") from None


def load_config(path) -> RunConfig:
    raw = _checked("config is not valid JSON", json.loads,
                   _read_text(Path(path), "config file"))
    _check_keys(raw, {f.name for f in fields(RunConfig)}, "config")
    # the commands would disagree on which of the two they read
    _require(not {"model", "channel"} <= set(raw),
             "config: names both 'model' and 'channel'; give one")

    model = None
    if "model" in raw:
        try:
            model = model_from_dict(raw["model"])
        except ValueError as err:
            raise ConfigError(str(err))
    channel = None
    if "channel" in raw:
        _check_keys(raw["channel"], {"Q", "M", "L"}, "config.channel")
        missing = sorted({"Q", "M", "L"} - set(raw["channel"]))
        if missing:
            raise ConfigError(f"config.channel: missing keys {missing}")
        channel = _checked("config.channel", lambda: ConstantChannel(
            *(_real(raw["channel"][key]) for key in ("Q", "M", "L"))))

    k_set = raw.get("k_set", [])
    _require(isinstance(k_set, list) and all(
        _is_int(k) and k != 0 for k in k_set),
        "config.k_set: expected a list of nonzero integers")
    # an exact repeat of k or lambda is one cell, kept where it first occurs
    k_set = list(dict.fromkeys(k_set))
    lambda_grid = raw.get("lambda_grid", [])
    _require(isinstance(lambda_grid, list) and all(map(_is_real, lambda_grid)),
             "config.lambda_grid: expected a list of finite reals")
    # + 0.0 turns -0.0 into 0.0: one cell, as in every set of lambdas
    lambda_grid = [float(l) + 0.0 for l in lambda_grid]
    named = {}
    for lam in lambda_grid:
        first = named.setdefault(name := _lambda_name(lam), lam)
        _require(first == lam, f"config.lambda_grid: {first!r} and {lam!r} "
                 f"share the artifact name {name!r}")
    lambda_grid = list(named.values())

    bracket = raw.get("bracket")
    if bracket is not None:
        _require(isinstance(bracket, list) and len(bracket) == 2
                 and all(map(_is_real, bracket)),
                 "config.bracket: expected finite reals [lo, hi]")
        bracket = list(_checked("config.bracket", eigen_bracket, bracket))

    def section(key, defaults, **casts):
        # the defaults name every allowed key; values are finite reals
        # unless cast
        out = dict(defaults)
        if key in raw:
            _check_keys(raw[key], set(defaults), f"config.{key}")
            out.update(_checked(f"config.{key}", lambda: {
                k: casts.get(k, _real)(v) for k, v in raw[key].items()}))
        return out

    solver = _checked("config.solver", SolveConfig, **section(
        "solver", {"r_start": 1.0, "r_end": 100.0}))
    sub = section("subordinacy", {"r0": 1.0, "r_end": 120.0})
    _checked("config.subordinacy", ratio_range, **sub)
    shoot = inspect.signature(eigen_shoot).parameters
    eigen = section("eigen", {"scan_step": shoot["scan_step"].default,
                              "tol": shoot["tol_lambda"].default})
    _checked("config.eigen", eigen_steps, eigen["tol"], eigen["scan_step"])
    # the range becomes the config of the section's rescaled solves
    asy = _checked("config.asymptotics", SolveConfig, rtol=RESCALED_RTOL,
                   **section("asymptotics", {"r_start": 5.0, "r_end": 210.0,
                                             "stride": 0.02}))
    _checked("config.asymptotics", defect_window, asy)
    bv = section("bv", {"instances": 200}, instances=_int)
    _require(bv["instances"] > 0, "config.bv: instances must be positive")
    seed = _checked("config.seed", _seed, raw.get("seed", 0))
    workers = _checked("config.workers", _int, raw.get("workers", 1))
    _require(workers >= 1, "config.workers: must be at least 1")

    return RunConfig(model=model, channel=channel, k_set=k_set,
                     lambda_grid=lambda_grid, bracket=bracket, solver=solver,
                     subordinacy=sub, eigen=eigen, asymptotics=asy, bv=bv,
                     seed=seed, workers=workers)


def fixture_path(name: str) -> Path:
    base = resources.files("diracspec") / "fixtures" / f"{name}.json"
    with resources.as_file(base) as p:
        return Path(p)


# ---------------------------------------------------------------------------
# deterministic writers


def _finite(obj, digits=None, n=None):
    """obj as strict JSON writes it: every non-finite float (nan, inf)
    replaced by None, which JSON writes as null, and every other one
    rounded to n significant digits (kept when n is None).  n is the count
    that `digits` gives the innermost key above the float; a tuple of
    counts gives one to each column of a list of rows."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return obj if n is None else float("%.*g" % (n, obj))
    if isinstance(obj, dict):
        return {key: _finite(value, digits,
                             digits.get(key, n) if digits else n)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        if isinstance(n, tuple):
            return [[_finite(x, digits, d) for x, d in zip(row, n)]
                    for row in obj]
        return [_finite(value, digits, n) for value in obj]
    return obj


def _write_json(path: Path, obj):
    # strict JSON: parsers reject the bare NaN and Infinity of json.dumps;
    # each number to the digits of its kind and key (`solver.DIGITS`)
    path.parent.mkdir(parents=True, exist_ok=True)
    digits = DIGITS.get(obj.get("kind"))
    path.write_text(json.dumps(_finite(obj, digits), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _write_rows(path: Path, header: str, rows, digits=None):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_columns(path, header, list(zip(*rows)), digits)


def _fmt(x):
    return repr(float(x))


def _cell_name(k, lam):
    return f"k={k}_{_lambda_name(lam)}"


def _lambda_name(lam):
    # 6 significant digits: `load_config` refuses two lambdas of one name
    return f"lambda={lam:g}"


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
    try:
        require_equal(cfg.model, command)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _require_derivative(cfg: RunConfig, command: str):
    _require(min(cfg.lambda_grid) >= 0.0 or cfg.model.q.has_derivative,
             f"{command}: the rescaled channel of lambda < 0 reads q', and q "
             f"has none (tabulated data declared non-smooth)")


def cmd_hypotheses(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    _require(cfg.model is not None, "hypotheses needs a 'model' in the config")
    _require(cfg.lambda_grid, "hypotheses needs a nonempty 'lambda_grid'")
    model = cfg.model
    doc = {"kind": "hypotheses", "model": model.to_dict(), "conditions": [],
           "channels": {}}
    reports, c_reports = check_hypotheses(model, cfg.k_set, cfg.lambda_grid)
    doc["conditions"] = [r.to_dict() for r in reports]
    _print_table("model conditions:", reports)

    violated = worst_verdict(reports) == VIOLATED
    for k in cfg.k_set:
        for lam in cfg.lambda_grid:
            creps = c_reports[k, lam]
            doc["channels"][_cell_name(k, lam)] = [r.to_dict() for r in creps]
            _print_table(f"channel k={k},lambda={lam:g}:", creps)
            violated = violated or worst_verdict(creps) == VIOLATED
    _write_json(out / "hypotheses.json", doc)
    return EXIT_FINDINGS if violated else EXIT_OK


def _channels_from(cfg: RunConfig):
    if cfg.channel is not None:
        return [(None, None, cfg.channel)]
    _require(cfg.model is not None,
             "need either a 'model' or a constant 'channel' in the config")
    _require(cfg.k_set, "need a nonempty 'k_set'")
    _require(cfg.lambda_grid, "need a nonempty 'lambda_grid'")
    return [(k, lam, assemble_channel(cfg.model, k, lam))
            for k in cfg.k_set for lam in cfg.lambda_grid]


def cmd_solve(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    failed = False
    for k, lam, channel in _channels_from(cfg):
        if prefer_pruefer(channel, cfg.solver.r_start, cfg.solver.r_end):
            traj = integrate_pruefer(channel, 1.0, 0.0, cfg.solver)
        else:
            traj = integrate_cartesian(channel, [1.0, 0.0], cfg.solver)
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
    if cfg.channel is not None:
        c_reports = {(None, None): check_c_conditions(cfg.channel)}
    else:
        c_reports = check_c_conditions(cfg.model, cfg.k_set, cfg.lambda_grid)
    # one certify call, and so one fundamental solve, per k
    for k, cells in groupby(channels, key=lambda cell: cell[0]):
        cells = list(cells)
        creps = [c_reports[k, lam] for _, lam, _ in cells]
        batch = (cfg.channel if k is None else
                 ChannelBatch(cfg.model, k, [lam for _, lam, _ in cells]))
        for (_, lam, channel), reps, result in zip(
                cells, creps, certify(batch, cfg.solver, creps)):
            name = "const" if k is None else _cell_name(k, lam)
            doc = {"kind": "boundedness", "channel": channel.label(),
                   "conditions": [r.to_dict() for r in reps]}
            if isinstance(result, PreconditionError):
                doc["refused"] = str(result)
                findings = True
                _say(f"{channel.label()}: refused ({result})")
            else:
                trace, cert = result
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
            _write_json(out / f"boundedness_{name}.json", doc)
    return EXIT_FINDINGS if (assert_mode and findings) else EXIT_OK


def cmd_subordinacy(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    _require_equal_model(cfg, "subordinacy")
    _require(cfg.k_set, "need a nonempty 'k_set'")
    _require(cfg.lambda_grid, "need a nonempty 'lambda_grid'")
    _require_derivative(cfg, "subordinacy")
    findings = False
    for k in cfg.k_set:
        for lam in cfg.lambda_grid:
            if lam == 0.0:
                continue  # boundary point carries no claim
            cell = borderline_cell(cfg.model, k, lam, cfg.subordinacy)
            # the claim: no subordinate solution below 0, one above
            claim = "ac-candidate" if lam < 0.0 else "subordinate-found"
            findings = findings or cell["classification"] != claim
            rep = cell["report"]
            if lam < 0.0:
                rep["phase_band"] = phase_band(cfg.model, k, lam,
                                               **cfg.subordinacy)
            _write_json(out / f"subordinacy_{_cell_name(k, lam)}.json", rep)
            _say(f"k={k} lambda={lam:g}: {rep['classification']} "
                 f"(liminf ~ {rep['liminf_estimate']:.4g})")
    return EXIT_FINDINGS if (assert_mode and findings) else EXIT_OK


def cmd_eigen(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    _require_equal_model(cfg, "eigen")
    _require(cfg.bracket is not None, "eigen needs a 'bracket'")
    _require(cfg.k_set, "need a nonempty 'k_set'")
    doc = {"kind": "eigenvalues", "bracket": cfg.bracket, "by_k": {}}
    shoot = partial(eigen_shoot, cfg.model, bracket=cfg.bracket,
                    tol_lambda=cfg.eigen["tol"],
                    scan_step=cfg.eigen["scan_step"])
    try:
        pairs = shoot(cfg.k_set)
    except PreconditionError:
        # the refusal of the first k, in k_set order, whose own shooting is
        # refused: each k's shooting is the same in and out of the lockstep
        for k in cfg.k_set:
            try:
                shoot([k])
            except PreconditionError as err:
                raise ConfigError(f"eigen: k={k}: {err}") from None
        raise
    for k in cfg.k_set:
        doc["by_k"][str(k)] = eigs = [lam for key, lam in pairs if key == k]
        _say(f"k={k}: {len(eigs)} eigenvalue(s) in {cfg.bracket}: "
             + ", ".join(f"{e:.8f}" for e in eigs))
    _write_json(out / "eigenvalues.json", doc)
    return EXIT_OK


def cmd_scan(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    _require(cfg.model is not None, "scan needs a 'model'")
    _require(cfg.k_set, "need a nonempty 'k_set'")
    _require(cfg.lambda_grid, "scan needs a nonempty 'lambda_grid'")
    # the model and every cell read in one pass, whatever the chunks
    hyp, c_reports = check_scan(cfg.model, cfg.k_set, cfg.lambda_grid)
    doc = {"kind": "scan", "model": cfg.model.to_dict(),
           "equal_coefficients": c_reports is None,
           "hypotheses": [h.to_dict() for h in hyp],
           "heuristic": worst_verdict(hyp) != SATISFIED}
    chunk = partial(classify_cells, cfg.model, lambda_grid=cfg.lambda_grid,
                    solver=cfg.solver, subordinacy=cfg.subordinacy,
                    c_reports=c_reports)
    # one chunk of whole |k| pairs per worker, each classifying its cells
    sizes = sorted({abs(k) for k in cfg.k_set})
    workers = min(cfg.workers, len(sizes))
    k_sets = [[k for k in cfg.k_set if abs(k) in sizes[i::workers]]
              for i in range(workers)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers up front, one per chunk
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk, k_sets))
    else:
        results = list(map(chunk, k_sets))
    doc["cells"] = sorted((c for cells in results for c in cells),
                          key=lambda c: (c["k"], c["lambda"]))
    doc["summary"] = summarize_cells(doc["cells"])

    codes = {"ac-candidate": "ac", "subordinate-found": "sub",
             "excluded": "excl", "inconclusive": "inc", "error": "error"}
    lams = sorted(set(cfg.lambda_grid))
    header = "# kind=scan\nk\\lambda," + ",".join(f"{l:g}" for l in lams)
    by_k = {}
    for cell in doc["cells"]:
        by_k.setdefault(cell["k"], {})[cell["lambda"]] = \
            codes.get(cell["classification"], "inc")
    rows = [[str(k)] + [by_k[k].get(l, "") for l in lams]
            for k in sorted(by_k)]
    _write_rows(out / "scan.csv", header, rows)
    _write_json(out / "scan.json", doc)
    _say(f"scan: {len(doc['cells'])} cells, "
         f"{doc['summary']['n_errors']} errors; "
         f"ac-candidate lambdas: {doc['summary']['ac_candidate_lambdas']}")
    bad = any(c["classification"] in ("error", "inconclusive")
              for c in doc["cells"])
    return EXIT_FINDINGS if (assert_mode and bad) else EXIT_OK


# bv-verify's instances a block: one numpy call serves 16 rows (32 ran no
# faster), and the memory is one block's whatever `bv.instances` is
_BV_BLOCK = 16
# the 13 uniform draws of an instance, in the order of its recipe
# (`_bv_instances`): grid length; a, b, w, c of f; amplitude, frequency and
# offset of g; frequency and offset of the positive g; frequency, phase and
# eps of the quotient's f
_BV_LOW = np.array([4.0, -2, -2, -2, 0.2, -2, 0.1, -1, 0.1, 0, 0.1, 0, 0.1])
_BV_HIGH = np.array([10.0, 2, 2, 2, 3, 2, 3, 1, 4, 2, 5, 7, 0.8])


def _bv_instances(rng, count: int) -> tuple:
    """The next `count` bv-verify instances, one row each, on 3001-point
    grids over [0, L]: the product pair f = a + b sin(wr)/(1 + cr) with its
    derivative and g = A cos(w'r) + B, and the quotient pair f2 (a sine
    scaled to sup |f2|/gpos = eps) over gpos = 1.5 + 0.4 sin(w''r) + B'.

    `lo + (hi - lo) * u` on one `rng.random` draw is `rng.uniform`'s own
    formula, so each row is bit for bit the instance that 13 scalar
    `uniform` draws in recipe order would give.
    """
    u = _BV_LOW + (_BV_HIGH - _BV_LOW) * rng.random((count, 13))
    # linspace lays the rows out as columns; C order keeps each derived row
    # contiguous, so it reduces as the 1-D recipe does
    grid = np.ascontiguousarray(np.linspace(0.0, u[:, 0], 3001, axis=1))
    _, a, b, w, c, ga, gw, gb, pw, pb, rw, phase, eps = u.T[:, :, None]
    sine, den = np.sin(w * grid), 1 + c * grid
    fv = a + b * sine / den
    fd = b * w * np.cos(w * grid) / den - b * c * sine / den ** 2
    gv = ga * np.cos(gw * grid) + gb
    gpos = 1.5 + 0.4 * np.sin(pw * grid) + pb
    raw = np.sin(rw * grid + phase)
    f2 = raw * eps * np.min(gpos, axis=1, keepdims=True) \
        / np.max(np.abs(raw), axis=1, keepdims=True)
    return grid, fv, fd, gv, gpos, f2


def _bv_failures(grid, fv, fd, gv, gpos, f2) -> tuple:
    """Rows of an instance block that fail the product bound, the two-sided
    quotient bound (or its precondition) and the Jordan identities on every
    30th sample of f + g; each checker runs once on the block."""
    prod = check_product_bound(SampledFunction(grid, fv, deriv=fd),
                               SampledFunction(grid, gv))
    quot = check_quotient_bounds(SampledFunction(grid, f2),
                                 SampledFunction(grid, gpos))
    samples = SampledFunction(grid[:, ::30], fv[:, ::30] + gv[:, ::30])
    gp, gm = jordan_decompose(samples)
    v, vp, vm = samples.values, gp.values, gm.values
    scale = 1.0 + np.max(np.abs(v), axis=1)
    recomp = np.max(np.abs(vp - vm - v), axis=1)
    tele = vp[:, -1] + vm[:, -1] - vp[:, 0] - vm[:, 0]
    jordan_ok = (np.all(np.diff(vp) >= 0, axis=1)
                 & np.all(np.diff(vm) >= 0, axis=1)
                 & (recomp <= 1e-12 * scale)
                 & (np.abs(tele - variation(samples)) <= 1e-12 * (1 + tele)))
    return (np.flatnonzero(~prod.holds),
            np.flatnonzero(np.not_equal(quot.holds, True)),
            np.flatnonzero(~jordan_ok))


def cmd_bv_verify(cfg: RunConfig, out: Path, assert_mode: bool) -> int:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.bv["instances"]
    product_fail, quotient_fail, jordan_fail = [], [], []
    for start in range(0, n, _BV_BLOCK):
        block = _bv_instances(rng, min(_BV_BLOCK, n - start))
        for fails, rows in zip((product_fail, quotient_fail, jordan_fail),
                               _bv_failures(*block)):
            fails.extend((start + rows).tolist())

    doc = {"kind": "bv_verify", "instances": n, "seed": cfg.seed,
           "product_bound_failures": product_fail,
           "quotient_bound_failures": quotient_fail,
           "jordan_failures": jordan_fail}
    if cfg.model is not None and cfg.lambda_grid:
        probe = lambda_trichotomy_probe(cfg.model, cfg.lambda_grid)
        doc["trichotomy"] = asdict(probe)
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
    _require_derivative(cfg, "asymptotics")
    scfg = cfg.asymptotics
    trend_ok = True
    for k in cfg.k_set:
        for lam in neg:
            traj = borderline_trajectory(cfg.model, k, lam, scfg)
            ref = wkb_reference(cfg.model, lam, traj.grid)
            res = compare_asymptotics(traj, ref)
            name = _cell_name(k, lam)
            _write_rows(out / f"residuals_{name}.csv",
                        "# kind=residuals\ncenter,residual",
                        [(w["center"], w["residual"]) for w in res],
                        DIGITS["residuals"])
            conv = defect_convergence(cfg.model, k, lam, *defect_window(scfg))
            _write_json(out / f"defects_{name}.json",
                        {"kind": "defects", **conv})
            resid = [w["residual"] for w in res]
            # a trend needs two residual windows; fewer is no evidence
            short = len(resid) < 2
            trend_ok = trend_ok and not short and resid[-1] <= resid[0]
            _say(f"k={k} lambda={lam:g}: residuals "
                 + " ".join(f"{x:.3g}" for x in resid)
                 + f"; defect orders { [round(o, 3) for o in conv['orders']] }"
                 + ("; no trend: fewer than two residual windows"
                    if short else ""))
    return EXIT_FINDINGS if (assert_mode and not trend_ok) else EXIT_OK


_PLOT_KINDS = {"rtrace", "residuals", "subordinacy", "scan"}


def cmd_plotdata(inputs, out: Path) -> int:
    for item in inputs:
        path = Path(item)
        text = _read_text(path, "input")
        if path.suffix == ".json":
            doc = _checked(f"{path}: not valid JSON", json.loads, text)
            kind = doc.get("kind") if isinstance(doc, dict) else None
        else:
            first = text.split("\n", 1)[0].strip()
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
            rows = _csv_rows(path, text)
        target = out / (path.stem + ".dat")
        _make_dir(out)
        target.write_text("".join(row + "\n" for row in rows))
        _say(f"wrote {target}")
    return EXIT_OK


def _csv_rows(path: Path, text: str) -> list:
    # the lines of a file read in text mode end at "\n" only
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    header_idx = 1 if lines[0].startswith("#") else 0
    _require(len(lines) > header_idx, f"{path}: no header row")
    return ["# " + " ".join(lines[header_idx].split(","))] + \
        [" ".join(ln.split(",")) for ln in lines[header_idx + 1:]]


def _json_rows(kind: str, doc: dict) -> list:
    if kind == "subordinacy":
        return ["# r ratio"] + [f"{_fmt(r)} {_fmt(v)}"
                                for r, v in doc["ratio_tail"]]
    if kind == "scan":
        return ["# k lambda classification"] + [
            f"{cell['k']} {_fmt(cell['lambda'])} {cell['classification']}"
            for cell in doc["cells"]]
    raise ConfigError(f"no plot-data emitter for kind {kind!r}")


# ---------------------------------------------------------------------------


# the commands that read a config, in the order of the usage text; plotdata
# reads artifacts instead
_COMMANDS = {
    "hypotheses": cmd_hypotheses,
    "solve": cmd_solve,
    "boundedness": cmd_boundedness,
    "subordinacy": cmd_subordinacy,
    "eigen": cmd_eigen,
    "scan": cmd_scan,
    "bv-verify": cmd_bv_verify,
    "asymptotics": cmd_asymptotics,
}


@cache
def _parser() -> argparse.ArgumentParser:
    # built once a process: parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="diracspec",
        description="numerical spectral diagnostics for half-line Dirac "
                    "systems with unbounded potentials")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "plotdata"):
        p = sub.add_parser(name)
        if name == "plotdata":
            p.add_argument("inputs", nargs="+")
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--assert", dest="assert_mode", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = Path(args.out)

    try:
        if args.command == "plotdata":
            return cmd_plotdata(args.inputs, out)
        cfg = load_config(args.config)
        if args.workers is not None:
            _require(args.workers >= 1, "--workers: must be at least 1")
            cfg.workers = args.workers
        if args.seed is not None:
            cfg.seed = _checked("--seed", _seed, args.seed)
        made = [p for p in (out, *out.parents) if not p.exists()]
        _make_dir(out)
        try:
            return _COMMANDS[args.command](cfg, out, args.assert_mode)
        except ConfigError:  # a command refuses before its first write
            for path in made:  # innermost first
                path.rmdir()
            raise
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
