"""Seeded workloads: generated configs, the CLI invocations of one pass, and
the correctness gate of each invocation.

Every coefficient is drawn inside its workload's regime, so the paper's
claims hold for every cell.  Radii, brackets and spectral parameters are
scaled with the drawn slope c (the substitution r -> r / sqrt(c) maps
q = c r onto q = r), so the amount of work per pass barely depends on the
seed while the inputs do.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("dominant_certify", "borderline_spectrum", "diagnostics_sweep")


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass and the cells it decides."""

    command: str
    config: str
    cells: tuple
    args: tuple = ()
    expect_rc: frozenset = frozenset({0})
    stable: tuple = ()  # artifacts that must be byte-identical across passes
    # gate(out_dir, stdout) -> {cell: cause} for the cells that fail it
    gate: Callable | None = None


@dataclass
class Workload:
    name: str
    configs: dict  # file name -> config document
    invocations: list = field(default_factory=list)

    @property
    def cells_per_pass(self) -> int:
        return sum(len(inv.cells) for inv in self.invocations)

    def write_configs(self, workdir: Path) -> list:
        paths = []
        for name, doc in self.configs.items():
            path = workdir / name
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            paths.append(path)
        return paths


def build(name: str, seed: int, workers: int) -> Workload:
    builders = {"dominant_certify": dominant_certify,
                "borderline_spectrum": borderline_spectrum,
                "diagnostics_sweep": diagnostics_sweep}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return builders[name](seed, workers)


def cell_name(k, lam) -> str:
    # the CLI's own artifact naming
    return f"k={k}_lambda={lam:g}"


def config_seed(seed: int) -> int:
    # the CLI seeds numpy generators, which take non-negative integers only
    return seed % 2 ** 32


def _power(c, p):
    return {"family": "power", "params": {"c": c, "p": p}}


def _slope(rng):
    # log-uniform in [3/4, 4/3]
    return math.exp(rng.uniform(math.log(0.75), math.log(4.0 / 3.0)))


def _read_json(path: Path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# dominant_certify: q = c r, m constant; boundedness then scan


DOMINANT_PHASE_RADIUS = 22.0  # r_end at c = 1; r_end = this / sqrt(c)


def dominant_certify(seed: int, workers: int) -> Workload:
    rng = random.Random(seed)
    c = _slope(rng)
    s = math.sqrt(c)
    m0 = round(s * rng.uniform(0.7, 1.3), 6)
    lams = [round(s * rng.uniform(lo, lo + 0.6), 4)
            for lo in (-1.2, -0.3, 0.6)]
    ks = [-2, -1, 1, 2]
    r_end = round(DOMINANT_PHASE_RADIUS / s, 6)
    config = {"model": {"q": _power(round(c, 6), 1.0), "m": _power(m0, 0.0)},
              "k_set": ks, "lambda_grid": lams,
              "solver": {"r_end": r_end}, "subordinacy": {"r_end": r_end},
              "seed": config_seed(seed)}
    cells = tuple(cell_name(k, lam) for k in ks for lam in lams)

    def gate_boundedness(out: Path, stdout: str) -> dict:
        bad = {}
        for cell in cells:
            doc = _read_json(out / f"boundedness_{cell}.json")
            cert = doc.get("certificate", {})
            last_r = _last_radius(out / f"rtrace_{cell}.csv")
            if "refused" in doc:
                bad[cell] = f"refused: {doc['refused']}"
            elif cert.get("verdict") != "bounded":
                bad[cell] = f"certificate verdict {cert.get('verdict')!r}"
            elif doc["almost_monotone"]["failures"]:
                bad[cell] = (f"{len(doc['almost_monotone']['failures'])} "
                             f"almost-monotone failures")
            elif not math.isclose(last_r, r_end, rel_tol=1e-9):
                bad[cell] = f"solve stopped at r = {last_r:g} < {r_end:g}"
        return bad

    def gate_scan(out: Path, stdout: str) -> dict:
        doc = _read_json(out / "scan.json")
        seen = {cell_name(c_["k"], c_["lambda"]): c_ for c_ in doc["cells"]}
        bad = {}
        for cell in cells:
            got = seen.get(cell)
            if got is None:
                bad[cell] = "cell missing from scan.json"
            elif got["classification"] != "ac-candidate":
                bad[cell] = (f"classification {got['classification']!r}"
                             + (f": {got['error']}" if "error" in got else ""))
            elif got["certificate"]["verdict"] != "bounded":
                bad[cell] = f"certificate {got['certificate']['verdict']!r}"
        return bad

    return Workload("dominant_certify", {"dominant.json": config}, [
        Invocation("boundedness", "dominant.json", cells, ("--assert",),
                   gate=gate_boundedness),
        Invocation("scan", "dominant.json", cells,
                   ("--assert", "--workers", str(workers)),
                   stable=("scan.json",), gate=gate_scan),
    ])


def _last_radius(path: Path) -> float:
    with open(path) as fh:
        last = None
        for line in fh:
            last = line
    return float(last.split(",", 1)[0])


# ---------------------------------------------------------------------------
# borderline_spectrum: q = m = c r; eigen, subordinacy, asymptotics


EIGEN_BRACKET = 4.6  # at c = 1: two k = -1 eigenvalues (2.674, 4.066)
EIGEN_GRID = 12      # mismatch samples across the bracket
AIRY_TOL = 1e-6


def airy_eigenvalues(c: float, upper: float) -> list:
    """k = -1 eigenvalues of q = m = c r below `upper`: the system reduces
    to Airy's equation, so lambda_n = sqrt(2c) |a_n|^(3/4)."""
    from scipy.special import ai_zeros

    n = 4
    while True:
        lams = math.sqrt(2.0 * c) * abs(ai_zeros(n)[0]) ** 0.75
        if lams[-1] > upper:
            return [float(x) for x in lams if x < upper]
        n *= 2


def borderline_spectrum(seed: int, workers: int) -> Workload:
    rng = random.Random(seed)
    c = round(_slope(rng), 6)
    s = math.sqrt(c)
    a = 1.0 / s  # length scale
    # the cost of the subordinacy and asymptotics solves grows with |lambda|
    # / sqrt(c), so that ratio is fixed and only the slope is drawn
    lam_neg = round(-2.3 * s, 4)
    lam_pos = round(2.0 * s, 4)
    upper = round(EIGEN_BRACKET * s, 6)
    ks = [-1, 1]
    config = {"model": {"q": _power(c, 1.0), "m": _power(c, 1.0)},
              "k_set": ks, "lambda_grid": [lam_neg, lam_pos],
              "bracket": [0.0, upper],
              "eigen": {"scan_step": upper / EIGEN_GRID, "tol": 1e-8},
              "subordinacy": {"r0": round(a, 6), "r_end": round(40 * a, 6)},
              # the defect check clamps its window to [10, 50]; inside
              # [12a, 40a] it scales with a like everything else
              "asymptotics": {"r_start": round(12 * a, 6),
                              "r_end": round(40 * a, 6),
                              "stride": round(0.02 * a, 8)},
              "seed": config_seed(seed)}
    oracle = airy_eigenvalues(c, upper)

    def gate_eigen(out: Path, stdout: str) -> dict:
        by_k = _read_json(out / "eigenvalues.json")["by_k"]
        bad = {}
        got = by_k.get("-1", [])
        if len(got) != len(oracle):
            bad["k=-1"] = (f"{len(got)} eigenvalues, Airy oracle has "
                           f"{len(oracle)}")
        else:
            err = max((abs(x - y) for x, y in zip(got, oracle)), default=0.0)
            if err > AIRY_TOL:
                bad["k=-1"] = f"max error {err:.3g} against the Airy oracle"
        plus = by_k.get("1", [])
        if not plus or any(not 0.0 < x < upper for x in plus):
            bad["k=1"] = f"eigenvalues {plus} not inside (0, {upper:g})"
        return bad

    def gate_subordinacy(out: Path, stdout: str) -> dict:
        bad = {}
        for k in ks:
            for lam in (lam_neg, lam_pos):
                cell = cell_name(k, lam)
                doc = _read_json(out / f"subordinacy_{cell}.json")
                want = "no-subordinate" if lam < 0 else "subordinate-found"
                if doc["classification"] != want:
                    bad[cell] = f"{doc['classification']!r}, expected {want!r}"
        return bad

    def gate_asymptotics(out: Path, stdout: str) -> dict:
        cells = [cell_name(k, lam_neg) for k in ks]
        return {cell: "no residual table" for cell in cells
                if not (out / f"residuals_{cell}.csv").exists()}

    return Workload("borderline_spectrum", {"borderline.json": config}, [
        Invocation("eigen", "borderline.json", ("k=-1", "k=1"),
                   stable=("eigenvalues.json",), gate=gate_eigen),
        Invocation("subordinacy", "borderline.json",
                   tuple(cell_name(k, lam) for k in ks
                         for lam in (lam_neg, lam_pos)),
                   ("--assert",), gate=gate_subordinacy),
        Invocation("asymptotics", "borderline.json",
                   tuple(cell_name(k, lam_neg) for k in ks), ("--assert",),
                   gate=gate_asymptotics),
    ])


# ---------------------------------------------------------------------------
# diagnostics_sweep: hypotheses on three models over a wide grid, bv-verify


BV_INSTANCES = 300


def diagnostics_sweep(seed: int, workers: int) -> Workload:
    rng = random.Random(seed)
    ks = [-2, -1, 1, 2]
    lams = [round(rng.uniform(lo, lo + 1.0), 3) for lo in range(-3, 3)]
    a, b = rng.uniform(1.8, 2.4), rng.uniform(0.6, 1.0)
    omega, cm = rng.uniform(0.7, 1.3), _slope(rng)
    models = {
        "power": {"q": _power(round(_slope(rng), 6),
                              round(rng.uniform(0.6, 0.9), 6)),
                  "m": _power(round(rng.uniform(0.5, 1.5), 6), 0.0)},
        "modulated": {p_name: {"family": "modulated", "params": {
            "a": round(a, 6), "b": round(b, 6), "omega": round(omega, 6),
            "c": round(cm, 6), "p": p}}
            for p_name, p in (("q", 0.25), ("m", 0.0))},
        "equal": dict.fromkeys(("q", "m"), _power(round(_slope(rng), 6), 1.0)),
    }
    configs = {f"{name}.json": {"model": model, "k_set": ks,
                                "lambda_grid": lams, "seed": config_seed(seed),
                                "bv": {"instances": BV_INSTANCES}}
               for name, model in models.items()}
    cells = tuple(cell_name(k, lam) for k in ks for lam in lams)

    def channel_verdicts(out: Path) -> dict:
        doc = _read_json(out / "hypotheses.json")
        return {cell: {r["condition"]: r["verdict"] for r in reps
                       if not r["auxiliary"]}
                for cell, reps in doc["channels"].items()}

    def gate_power(out: Path, stdout: str) -> dict:
        # dominant potential: every channel condition holds
        return {cell: f"verdicts {v}"
                for cell, v in channel_verdicts(out).items()
                if any(x != "satisfied" for x in v.values())}

    def gate_equal(out: Path, stdout: str) -> dict:
        # m == q: W/Q -> 1, so the dominance condition C2 can never hold
        return {cell: "C2 satisfied although m == q"
                for cell, v in channel_verdicts(out).items()
                if v.get("C2") == "satisfied"}

    def gate_bv(out: Path, stdout: str) -> dict:
        doc = _read_json(out / "bv_report.json")
        fails = {key: doc[key] for key in ("product_bound_failures",
                                           "quotient_bound_failures",
                                           "jordan_failures") if doc[key]}
        return {"batch": f"failures {fails}"} if fails else {}

    hyp = "hypotheses"
    return Workload("diagnostics_sweep", configs, [
        Invocation(hyp, "power.json", cells, stable=("hypotheses.json",),
                   gate=gate_power),
        Invocation(hyp, "modulated.json", cells, stable=("hypotheses.json",),
                   expect_rc=frozenset({0, 1})),
        Invocation(hyp, "equal.json", cells, stable=("hypotheses.json",),
                   expect_rc=frozenset({1}), gate=gate_equal),
        Invocation("bv-verify", "power.json", ("batch",), ("--assert",),
                   stable=("bv_report.json",), gate=gate_bv),
    ])
