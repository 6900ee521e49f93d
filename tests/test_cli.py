import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import diracspec
import diracspec.boundedness
import diracspec.cli as cli
import diracspec.solver
import diracspec.subordinacy as subordinacy
from diracspec.bvcalc import (
    SampledFunction,
    check_product_bound,
    check_quotient_bounds,
    jordan_decompose,
    trapezoid,
    variation,
)
from diracspec.cli import (
    ConfigError,
    cmd_hypotheses,
    fixture_path,
    load_config,
    main,
)
from diracspec.coefficients import (
    CoefficientFunction,
    CoefficientModel,
    DomainError,
    assemble_channel,
    power,
)
from diracspec.hypotheses import (
    EXTREME_WINDOWS,
    TAIL_WINDOWS,
    lambda_trichotomy_probe,
)
from diracspec.solver import (DIGITS, PreconditionError, SolveConfig,
                              prefer_pruefer)
from diracspec.subordinacy import DELTA, eigen_shoot, ratio_range


def run(args):
    return main([str(a) for a in args])


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


DATA = Path(__file__).parent / "data"

LINEAR_MODEL = {
    "q": {"family": "power", "params": {"c": 1.0, "p": 1.0}},
    "m": {"family": "power", "params": {"c": 1.0, "p": 0.0}},
}
EQUAL_MODEL = {
    "q": {"family": "power", "params": {"c": 1.0, "p": 1.0}},
    "m": {"family": "power", "params": {"c": 1.0, "p": 1.0}},
}
# q = r plus tabulated data, linear between its samples and beyond them
SUM_TABULATED_MODEL = {
    "q": {"family": "sum", "params": {"terms": [
        LINEAR_MODEL["q"],
        {"family": "tabulated",
         "params": {"grid": [0.5, 2.0, 8.0, 32.0],
                    "values": [0.05, 0.2, 0.8, 3.2]}}]}},
    "m": LINEAR_MODEL["m"],
}


def bv_instance(rng):
    """One bv-verify instance from 13 scalar draws: the recipe that each row
    of `cli._bv_instances` reproduces."""
    grid = np.linspace(0.0, float(rng.uniform(4.0, 10.0)), 3001)
    a, b, w = rng.uniform(-2, 2, 3)
    c = rng.uniform(0.2, 3.0)
    fv = a + b * np.sin(w * grid) / (1 + c * grid)
    fd = (b * w * np.cos(w * grid) / (1 + c * grid)
          - b * c * np.sin(w * grid) / (1 + c * grid) ** 2)
    gv = rng.uniform(-2, 2) * np.cos(rng.uniform(0.1, 3) * grid) \
        + rng.uniform(-1, 1)
    gpos = 1.5 + 0.4 * np.sin(rng.uniform(0.1, 4) * grid) + rng.uniform(0, 2)
    raw = np.sin(rng.uniform(0.1, 5) * grid + rng.uniform(0, 7))
    eps = rng.uniform(0.1, 0.8)
    f2 = raw * eps * float(np.min(gpos)) / float(np.max(np.abs(raw)))
    return grid, fv, fd, gv, gpos, f2


def bv_verify_one_at_a_time(cfg, out, assert_mode):
    """bv-verify checking one instance per loop pass, the reference for the
    block-wise command."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.bv["instances"]
    product_fail, quotient_fail, jordan_fail = [], [], []
    for i in range(n):
        grid, fv, fd, gv, gpos, f2 = bv_instance(rng)
        res = check_product_bound(SampledFunction(grid, fv, deriv=fd),
                                  SampledFunction(grid, gv))
        if not res.holds:
            product_fail.append(i)
        qres = check_quotient_bounds(SampledFunction(grid, f2),
                                     SampledFunction(grid, gpos))
        if not (qres.precondition_met and qres.holds):
            quotient_fail.append(i)
        samples = SampledFunction(grid[::30], fv[::30] + gv[::30])
        gp, gm = jordan_decompose(samples)
        scale = 1.0 + float(np.max(np.abs(samples.values)))
        recomp = float(np.max(np.abs(gp.values - gm.values - samples.values)))
        tele = gp.values[-1] + gm.values[-1] - gp.values[0] - gm.values[0]
        ok = (np.all(np.diff(gp.values) >= 0)
              and np.all(np.diff(gm.values) >= 0)
              and recomp <= 1e-12 * scale
              and abs(tele - variation(samples)) <= 1e-12 * (1 + tele))
        if not ok:
            jordan_fail.append(i)
    doc = {"kind": "bv_verify", "instances": n, "seed": cfg.seed,
           "product_bound_failures": product_fail,
           "quotient_bound_failures": quotient_fail,
           "jordan_failures": jordan_fail}
    if cfg.model is not None and cfg.lambda_grid:
        probe = lambda_trichotomy_probe(cfg.model, cfg.lambda_grid)
        doc["trichotomy"] = asdict(probe)
        cli._say(f"trichotomy pattern: {probe.pattern}")
    cli._write_json(out / "bv_report.json", doc)
    failures = len(product_fail) + len(quotient_fail) + len(jordan_fail)
    cli._say(f"bv-verify: {n} instances, {failures} failures")
    return cli.EXIT_FINDINGS if (assert_mode and failures) else cli.EXIT_OK


class TestConfig:
    def test_fixtures_load(self):
        for name in ("dominant_linear", "borderline_linear", "modulated_quarter",
                     "sqrt_periodic", "constant_coeff"):
            cfg = load_config(fixture_path(name))
            assert cfg.model is not None or cfg.channel is not None

    def test_missing_field_named(self, tmp_path):
        path = write_config(tmp_path, {"model": {"q": LINEAR_MODEL["q"]}})
        with pytest.raises(ConfigError, match="'m'"):
            load_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_solver_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"model": LINEAR_MODEL,
                                       "solver": {"rtoll": 1e-9}})
        with pytest.raises(ConfigError, match="rtoll"):
            load_config(path)

    @pytest.mark.parametrize("section", [{"solver": {"max_step": 0.05}},
                                         {"asymptotics": {"windows": None}},
                                         {"ladder": {"rungs": 3}},
                                         {"tail_ladder": {"factor": 5.0}},
                                         {"solver": {"rtol": 1e-12}},
                                         {"solver": {"atol": 1e-14}},
                                         {"solver": {"stride": 0.05}},
                                         {"subordinacy": {"delta": 1e-3}}])
    def test_dropped_keys_are_unknown(self, tmp_path, capsys, section):
        # the first Magnus partition is the grid, the residual windows are
        # compare_asymptotics' own, the window ladders are constants of
        # `hypotheses`, and the step tolerances, the stride and the ratio
        # threshold are constants of the library; none is a setting
        (key, inner), = section.items()
        path = write_config(tmp_path, {"model": EQUAL_MODEL, "k_set": [1],
                                       "lambda_grid": [-1.0], **section})
        assert run(["asymptotics", "--config", path,
                    "--out", tmp_path / "o"]) == 2
        where, unknown = ((f"config.{key}", list(inner))
                          if key in cli.RunConfig.__dataclass_fields__
                          else ("config", [key]))
        assert f"config error: {where}: unknown keys {unknown}" in \
            capsys.readouterr().err

    def test_zero_k_rejected(self, tmp_path):
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [0]})
        with pytest.raises(ConfigError, match="k_set"):
            load_config(path)

    @pytest.mark.parametrize("section", [
        {"solver": {"r_end": "tight"}},
        {"solver": {"r_start": 0.0}},
        {"solver": {"r_start": 5.0, "r_end": 2.0}},
        {"solver": {"r_end": -0.1}},
        {"solver": {"r_start": 100.0}},
        {"solver": {"r_end": math.inf}},
        {"subordinacy": {"r_end": "x"}},
        {"subordinacy": {"r0": 0.0}},
        {"eigen": {"tol": 0}},
        {"eigen": {"scan_step": -0.05}},
        {"asymptotics": {"r_start": "x"}},
        {"asymptotics": {"stride": 0.0}},
        {"asymptotics": {"windows": [[10.0]]}},  # no key of the section
        {"bv": {"instances": "x"}},
        {"bv": {"instances": 0}},
        {"seed": "x"},
        {"bracket": [0.0, "x"]},
        {"bracket": [2.0, 1.0]},
        {"bracket": "12"},
        {"channel": {"Q": "x", "M": 1.0, "L": 0.0}},
        {"channel": {"Q": 2.0, "M": 1.0}},
        {"k_set": [True]},
        {"k_set": [1.5]},
        {"k_set": "1"},
        {"lambda_grid": "0"},
        {"lambda_grid": [math.nan]},
        {"bracket": [0.0, 1.0, 2.0]},
        {"bracket": [-1.0, 1.0]},
        {"channel": "x"},
        {"channel": {"Q": 2.0, "M": 1.0, "L": 0.0, "W": 1.0}},
        {"solver": []},
        {"lambda_grid": [False]},
        {"bracket": [True, 2.0]},
        {"bracket": [-math.inf, 1.0]},
        {"workers": 0},
        *({key: bad} for key in ("seed", "workers")
          for bad in (True, 2.7, "3")),
        *({"bv": {"instances": bad}} for bad in (True, 2.7, "3")),
        *({section: {key: bad}} for section, key in (
            ("solver", "r_end"), ("subordinacy", "r0"), ("eigen", "tol"),
            ("asymptotics", "stride")) for bad in (True, "3")),
        {"asymptotics": {"windows": [[True, 10.0]]}},
        {"channel": {"Q": "3", "M": 1.0, "L": 0.0}},
    ])
    def test_malformed_value_exits_two(self, tmp_path, capsys, section):
        # the refusal names the section; a constant channel stands alone,
        # since a model beside it is refused first
        key, = section
        doc = ({} if key == "channel" else
               {"model": LINEAR_MODEL, "k_set": [1], "lambda_grid": [0.0]})
        path = write_config(tmp_path, {**doc, **section})
        code = run(["hypotheses", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        assert f"config error: config.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["boundedness", "solve", "hypotheses",
                                         "scan"])
    def test_model_and_channel_together_exit_two(self, tmp_path, capsys,
                                                 command):
        # the channel commands would read the channel, the others the model
        path = write_config(tmp_path, {
            "model": LINEAR_MODEL, "k_set": [1], "lambda_grid": [0.0],
            "channel": {"Q": 2.0, "M": 1.0, "L": 0.0}})
        assert run([command, "--config", path, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == ("config error: config: names both "
                                           "'model' and 'channel'; give one\n")
        assert not (tmp_path / "o").exists()

    def test_defaults_are_the_library_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"model": LINEAR_MODEL}))
        assert cfg.solver == SolveConfig(r_start=1.0, r_end=100.0)
        shoot = inspect.signature(eigen_shoot).parameters
        assert cfg.eigen == {"scan_step": shoot["scan_step"].default,
                             "tol": shoot["tol_lambda"].default}
        assert cfg.subordinacy == {"r0": 1.0, "r_end": 120.0}

    def test_lambdas_of_one_artifact_name_refused(self, tmp_path, capsys):
        # artifact names keep 6 significant digits of lambda: two lambdas
        # that print alike would overwrite each other's files
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                       "lambda_grid": [0.5000001, 0.5000004],
                                       "solver": {"r_end": 20.0}})
        assert run(["boundedness", "--config", path,
                    "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "config error: config.lambda_grid: 0.5000001 and 0.5000004 "
            "share the artifact name 'lambda=0.5'\n")
        # an exact repeat is one cell
        path = write_config(tmp_path, {"model": LINEAR_MODEL,
                                       "lambda_grid": [0.5, 1, 0.5, 1.0]})
        assert load_config(path).lambda_grid == [0.5, 1.0]

    def test_exact_repeats_are_one_cell(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1, 1],
                                       "lambda_grid": [0.5, 0.5],
                                       "solver": {"r_end": 20.0}})
        assert load_config(path).k_set == [1]
        assert run(["boundedness", "--config", path,
                    "--out", tmp_path / "o"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("k=1,lambda=0.5: C=")

    def test_negative_zero_lambda_is_the_zero_cell(self, tmp_path, capsys):
        # -0.0 == 0.0, so it is an exact repeat: one cell named lambda=0 in
        # every command, as in scan's set of lambdas
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                       "lambda_grid": [0.0, -0.0],
                                       "solver": {"r_end": 20.0}})
        assert load_config(path).lambda_grid == [0.0]
        assert math.copysign(1.0, load_config(write_config(
            tmp_path, {"model": LINEAR_MODEL, "lambda_grid": [-0.0]},
            name="negative.json")).lambda_grid[0]) == 1.0
        names = {}
        for command in ("hypotheses", "boundedness", "scan"):
            out = tmp_path / command
            assert run([command, "--config", path, "--out", out]) in (0, 1)
            names[command] = sorted(p.name for p in out.iterdir())
        doc = json.loads((tmp_path / "hypotheses" / "hypotheses.json")
                         .read_text())
        assert list(doc["channels"]) == ["k=1_lambda=0"]
        assert names["boundedness"] == ["boundedness_k=1_lambda=0.json",
                                        "rtrace_k=1_lambda=0.csv"]
        scan = json.loads((tmp_path / "scan" / "scan.json").read_text())
        assert [(c["k"], c["lambda"]) for c in scan["cells"]] == [(1, 0.0)]
        assert "lambda=-0" not in capsys.readouterr().out

    def test_workers_refusal_names_its_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "workers": True})
        assert run(["scan", "--config", path, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "config error: config.workers: expected an integer, got True\n")

    @pytest.mark.parametrize("r0", [0.0, -1.0])
    def test_ratio_range_refusal_is_the_library_text(self, tmp_path, capsys,
                                                     r0):
        path = write_config(tmp_path, {
            "model": EQUAL_MODEL, "k_set": [1], "lambda_grid": [-1.0],
            "subordinacy": {"r0": r0}})
        with pytest.raises(ValueError) as library:
            ratio_range(r0, 120.0)
        assert run(["subordinacy", "--config", path,
                    "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            f"config error: config.subordinacy: {library.value}\n")

    def test_missing_derivative_exits_two(self, tmp_path, capsys):
        # q = m tabulated and declared non-smooth: the rescaled channel of
        # lambda < 0 reads q', while scan's ratios need none
        tab = {"family": "tabulated",
               "params": {"grid": [0.5, 2.0, 8.0, 32.0],
                          "values": [0.5, 2.0, 8.0, 32.0],
                          "derivative": "none"}}
        path = write_config(tmp_path, {
            "model": {"q": tab, "m": tab}, "k_set": [1],
            "lambda_grid": [-1.0, 1.0], "subordinacy": {"r_end": 20.0},
            "asymptotics": {"r_start": 5.0, "r_end": 20.0}})
        for command in ("subordinacy", "asymptotics"):
            assert run([command, "--config", path,
                        "--out", tmp_path / command]) == 2
            assert capsys.readouterr().err == (
                f"config error: {command}: the rescaled channel of lambda < 0 "
                f"reads q', and q has none (tabulated data declared "
                f"non-smooth)\n")
            assert not (tmp_path / command).exists()
        assert run(["scan", "--config", path, "--out", tmp_path / "scan"]) == 0
        scan = json.loads((tmp_path / "scan" / "scan.json").read_text())
        assert scan["summary"]["ac_candidate_lambdas"] == [-1.0]

    @pytest.mark.parametrize("command", ["subordinacy", "eigen", "scan",
                                         "asymptotics"])
    def test_empty_k_set_leaves_no_out(self, tmp_path, capsys, command):
        # a command's own refusal comes after main made --out, and every
        # directory made for the run goes with it
        path = write_config(tmp_path, {
            "model": EQUAL_MODEL, "k_set": [], "lambda_grid": [-1.0],
            "bracket": [0.0, 5.0]})
        out = tmp_path / "a" / "b"
        assert run([command, "--config", path, "--out", out]) == 2
        assert "config error: need a nonempty 'k_set'" in \
            capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_refusal_keeps_an_existing_out(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": EQUAL_MODEL, "k_set": [],
                                       "lambda_grid": [-1.0]})
        (tmp_path / "o").mkdir()
        assert run(["subordinacy", "--config", path, "--out",
                    tmp_path / "o" / "new"]) == 2
        assert run(["subordinacy", "--config", path,
                    "--out", tmp_path / "o"]) == 2
        assert "config error: need a nonempty 'k_set'" in \
            capsys.readouterr().err
        assert (tmp_path / "o").is_dir()
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("r_end", [1.2, 1.25])
    def test_ratio_range_below_ladder_start_exits_two(self, tmp_path, capsys,
                                                      r_end):
        # the ratio ladder starts at 1.25 r0, so [1, 1.2] would run it
        # outside the range
        path = write_config(tmp_path, {
            "model": EQUAL_MODEL, "k_set": [1], "lambda_grid": [-1.0],
            "subordinacy": {"r0": 1.0, "r_end": r_end}})
        code = run(["subordinacy", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        assert ("config error: config.subordinacy: the ratio range needs "
                "0 < r0 < r_end and r_end > 1.25 r0, where its ladder starts"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_tolerance_flag_exits_two(self, tmp_path, capsys):
        # the step tolerances are constants: no flag sets one
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                       "lambda_grid": [0.0]})
        with pytest.raises(SystemExit) as usage:
            run(["solve", "--config", path, "--out", tmp_path / "o",
                 "--tolerance", 1e-10])
        assert usage.value.code == 2
        assert "unrecognized arguments: --tolerance" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-3, 2 ** 64])
    def test_config_seed_outside_u64_exits_two(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, {"model": LINEAR_MODEL,
                                       "lambda_grid": [0.0], "seed": seed,
                                       "bv": {"instances": 2}})
        code = run(["bv-verify", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        assert "config error: config.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_flag_outside_u64_exits_two(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, {"model": LINEAR_MODEL,
                                       "lambda_grid": [0.0],
                                       "bv": {"instances": 2}})
        code = run(["bv-verify", "--config", path, "--out", tmp_path / "o",
                    "--seed", seed])
        assert code == 2
        assert "config error: --seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_workers_flag_below_one_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                       "lambda_grid": [-1.0]})
        code = run(["scan", "--config", path, "--out", tmp_path / "o",
                    "--workers", 0])
        assert code == 2
        assert "config error: --workers" in capsys.readouterr().err


class TestHypothesesCommand:
    def test_all_satisfied_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                      "lambda_grid": [0.0]})
        code = run(["hypotheses", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 0
        tab = capsys.readouterr().out
        assert "A1" in tab and "satisfied" in tab
        doc = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        assert doc["kind"] == "hypotheses"

    def test_violation_exits_one(self, tmp_path, capsys):
        # without --assert: the exit code of hypotheses is its verdict
        code = run(["hypotheses", "--config", fixture_path("modulated_quarter"),
                    "--out", tmp_path / "o"])
        assert code == 1
        tab = capsys.readouterr().out
        # the per-lambda split is visible in the table
        assert "A3[lambda=0]" in tab and "A3[lambda=1]" in tab

    def test_missing_field_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"q": LINEAR_MODEL["q"]}})
        code = run(["hypotheses", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        assert "'m'" in capsys.readouterr().err

    def test_report_is_strict_json(self, tmp_path):
        # q = m = e^r overflows on the far windows: the nonfinite evidence is
        # written as null, which strict parsers accept
        exp = {"family": "exp", "params": {"c": 1.0, "a": 1.0}}
        cfg = write_config(tmp_path, {"model": {"q": exp, "m": exp},
                                      "k_set": [1], "lambda_grid": [-1.0]})
        run(["hypotheses", "--config", cfg, "--out", tmp_path / "o"])

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads((tmp_path / "o" / "hypotheses.json").read_text(),
                         parse_constant=reject)
        c3 = doc["channels"]["k=1_lambda=-1"][-1]
        assert c3["evidence"]["q_minus_w_window_minima"][1:] == [None, None]

    def test_gamma_domain_error_propagates(self, tmp_path):
        # q = m = r whose derivative is undefined on the extreme windows past
        # r = 50, which only G3 reads: the error is raised, not taken for a
        # lambda that G rejects
        class Line:
            family = "tabulated"
            has_derivative = True

            def value(self, r):
                return r * 1.0

            def derivative(self, r, order=1):
                if r[0] >= 50.0 and r[-1] <= 400.0:
                    raise DomainError("derivative undefined on [50, 400]")
                return np.full_like(r, 1.0 if order == 1 else 0.0)

            def to_dict(self):
                return {"family": "line"}

        cfg = load_config(write_config(tmp_path, {
            "model": EQUAL_MODEL, "k_set": [1], "lambda_grid": [-1.0, 0.0]}))
        cfg.model = CoefficientModel(q=Line(), m=Line())
        with pytest.raises(DomainError, match="undefined"):
            cmd_hypotheses(cfg, tmp_path / "o", False)

    def test_each_window_grid_evaluated_once(self, tmp_path, monkeypatch):
        seen = []
        value = CoefficientFunction.value
        derivative = CoefficientFunction.derivative

        def key(f, order, r):
            return id(f), order, np.size(r), float(r[0]), float(r[-1])

        def counting_value(self, r):
            seen.append(key(self, 0, r))
            return value(self, r)

        def counting_derivative(self, r, order=1):
            seen.append(key(self, order, r))
            return derivative(self, r, order=order)

        monkeypatch.setattr(CoefficientFunction, "value", counting_value)
        monkeypatch.setattr(CoefficientFunction, "derivative",
                            counting_derivative)
        model = {"q": {"family": "power", "params": {"c": 1.1, "p": 0.8}},
                 "m": {"family": "power", "params": {"c": 0.9, "p": 0.0}}}
        cfg = write_config(tmp_path, {"model": model, "k_set": [1, -2],
                                      "lambda_grid": [-1.0, 0.0, 2.0]})
        assert run(["hypotheses", "--config", cfg,
                    "--out", tmp_path / "o"]) == 0
        assert len(seen) == len(set(seen))
        # a scale-free model: every window grid has 2048 points, beside the
        # 64-point probe of models_equal and the 512-point probe of the C3
        # form; the last tail window's grid serves q, m, m' and q' for every
        # model check, the C gap floor and the C3 quotients
        assert {size for _, _, size, _, _ in seen} == {64, 512, 2048}
        last = [x for x in seen if x[2:] == (2048, 2500.0, 25000.0)]
        assert len(last) == 4


class TestGoldenHypotheses:
    # golden files written before the channels of a model shared one window
    # sample (see tests/data/README.md)
    @pytest.mark.parametrize("name", ["dominant_linear", "modulated_quarter",
                                      "sqrt_periodic", "borderline_linear"])
    def test_fixture_report_is_byte_identical(self, name, tmp_path):
        run(["hypotheses", "--config", fixture_path(name), "--out", tmp_path])
        assert (tmp_path / "hypotheses.json").read_bytes() == \
            (DATA / f"hypotheses_{name}.json").read_bytes()


class TestScanCommand:
    def test_deterministic_outputs(self, tmp_path):
        cfg = fixture_path("borderline_linear")
        assert run(["scan", "--config", cfg, "--out", tmp_path / "a",
                    "--seed", 9]) == 0
        assert run(["scan", "--config", cfg, "--out", tmp_path / "b",
                    "--seed", 9]) == 0
        for rel in ("scan.csv", "scan.json"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_sign_split_in_csv(self, tmp_path):
        run(["scan", "--config", fixture_path("borderline_linear"),
             "--out", tmp_path / "o"])
        csv = (tmp_path / "o" / "scan.csv").read_text().splitlines()
        assert csv[1] == "k\\lambda,-1,1"
        assert csv[2] == "1,ac,sub"

    def test_dominant_model_all_ac(self, tmp_path):
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                      "k_set": [1, -1],
                                      "lambda_grid": [-1.0, 1.0],
                                      "subordinacy": {"r_end": 60.0}})
        assert run(["scan", "--config", cfg, "--out", tmp_path / "o"]) == 0
        rows = (tmp_path / "o" / "scan.csv").read_text().splitlines()
        assert rows[2].endswith("ac,ac") and rows[3].endswith("ac,ac")

    def test_empty_lambda_grid_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1]})
        assert run(["scan", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_worker_pool_matches_sequential(self, tmp_path):
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                      "k_set": [1, -1],
                                      "lambda_grid": [-1.0],
                                      "subordinacy": {"r_end": 50.0}})
        run(["scan", "--config", cfg, "--out", tmp_path / "seq"])
        run(["scan", "--config", cfg, "--out", tmp_path / "par",
             "--workers", 2])
        assert (tmp_path / "seq" / "scan.csv").read_bytes() == \
            (tmp_path / "par" / "scan.csv").read_bytes()

    def test_pool_sized_by_k_chunks(self, tmp_path, monkeypatch):
        import concurrent.futures

        sizes, chunks = [], []

        class InlineExecutor:
            # records the pool size and its chunks, and runs the chunks in
            # this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                chunks.extend(items)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlineExecutor)
        # one chunk per worker, each of whole |k| pairs: a single chunk runs
        # in this process
        for i, (k_set, workers, pools, parts) in enumerate((
                ([1, -1, 1], 5000, [], []),
                ([1, -1, 2], 5000, [2], [[1, -1], [2]]),
                ([1, -1, 2, 3, -3], 2, [2], [[1, -1, 3, -3], [2]]))):
            sizes.clear()
            chunks.clear()
            out = tmp_path / str(i)
            cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                          "k_set": k_set,
                                          "lambda_grid": [-1.0],
                                          "subordinacy": {"r_end": 20.0}})
            run(["scan", "--config", cfg, "--out", out / "seq"])
            assert run(["scan", "--config", cfg, "--out", out / "par",
                        "--workers", workers]) == 0
            assert sizes == pools
            assert chunks == parts
            assert (out / "seq" / "scan.json").read_bytes() == \
                (out / "par" / "scan.json").read_bytes()

    @pytest.mark.parametrize("model", [
        LINEAR_MODEL, SUM_TABULATED_MODEL,
        json.loads(fixture_path("modulated_quarter").read_text())["model"],
    ], ids=["linear", "sum_tabulated", "modulated_quarter"])
    def test_worker_pool_over_abs_k_chunks_matches_sequential(self, tmp_path,
                                                              model):
        # k = 1 and -1 share a chunk, k = 2 has its own: two worker processes
        cfg = write_config(tmp_path, {"model": model,
                                      "k_set": [1, -1, 2],
                                      "lambda_grid": [-1.0, 0.5],
                                      "solver": {"r_end": 20.0}})
        run(["scan", "--config", cfg, "--out", tmp_path / "seq"])
        assert run(["scan", "--config", cfg, "--out", tmp_path / "par",
                    "--workers", 2]) == 0
        for rel in ("scan.csv", "scan.json"):
            assert (tmp_path / "seq" / rel).read_bytes() == \
                (tmp_path / "par" / rel).read_bytes()

    def test_every_command_reads_the_constant_windows(self, tmp_path):
        # the A reports of scan equal those of hypotheses, and each cell's C
        # reports those of boundedness and of hypotheses, on the windows of
        # `hypotheses`
        cfg = write_config(tmp_path, {
            "model": LINEAR_MODEL, "k_set": [1, -1], "lambda_grid": [0.0],
            "solver": {"r_end": 20.0}, "subordinacy": {"r_end": 20.0}})
        for command in ("scan", "hypotheses", "boundedness"):
            run([command, "--config", cfg, "--out", tmp_path / command,
                 "--workers", 2])
        scan = json.loads((tmp_path / "scan" / "scan.json").read_text())
        hyp = json.loads((tmp_path / "hypotheses" / "hypotheses.json")
                         .read_text())
        assert scan["hypotheses"] == [r for r in hyp["conditions"]
                                      if r["condition"].startswith("A")]
        extreme = [list(w) for w in EXTREME_WINDOWS]
        tail = [list(w) for w in TAIL_WINDOWS]
        assert extreme == [[25.0, 50.0], [50.0, 100.0], [100.0, 200.0],
                           [200.0, 400.0]]
        assert tail == [[25.0, 250.0], [250.0, 2500.0], [2500.0, 25000.0]]
        windows = {r["condition"]: r["windows"] for r in scan["hypotheses"]}
        assert windows["A1"] == extreme and windows["A4"] == tail
        for cell in scan["cells"]:
            name = f"k={cell['k']}_lambda=0"
            bound = json.loads((tmp_path / "boundedness" /
                                f"boundedness_{name}.json").read_text())
            assert cell["channel_conditions"] == bound["conditions"] == \
                hyp["channels"][name]
            windows = {r["condition"]: r["windows"]
                       for r in cell["channel_conditions"]}
            assert windows["C1"] == extreme and windows["C3"] == tail

    def test_cells_match_the_commands(self, tmp_path):
        # scan classifies each cell with the functions boundedness and
        # subordinacy run: the certificates read the solver section and the
        # m == q ratios the subordinacy section, also where the two differ
        sections = {"solver": {"r_end": 30.0},
                    "subordinacy": {"r0": 1.5, "r_end": 40.0}}
        dominant = write_config(tmp_path, {
            "model": LINEAR_MODEL, "k_set": [1, -2],
            "lambda_grid": [-1.0, 1.0], **sections}, name="dominant.json")
        borderline = write_config(tmp_path, {
            "model": EQUAL_MODEL, "k_set": [1, -1],
            "lambda_grid": [-1.0, 0.0, 1.0], **sections},
            name="borderline.json")
        for command, cfg in (("scan", dominant), ("boundedness", dominant),
                             ("scan", borderline),
                             ("subordinacy", borderline)):
            assert run([command, "--config", cfg,
                        "--out", tmp_path / cfg.stem / command]) == 0

        def read(cfg, command, name):
            return json.loads((tmp_path / cfg.stem / command / name)
                              .read_text())

        def name(cell):
            return f"k={cell['k']}_lambda={cell['lambda']:g}"

        cells = read(dominant, "scan", "scan.json")["cells"]
        assert len(cells) == 4
        for cell in cells:
            bound = read(dominant, "boundedness",
                         f"boundedness_{name(cell)}.json")
            assert cell["classification"] == "ac-candidate"
            assert cell["certificate"] == bound["certificate"]
            assert cell["certificate"]["r_end"] == 30.0
            assert cell["channel_conditions"] == bound["conditions"]
        cells = read(borderline, "scan", "scan.json")["cells"]
        assert len(cells) == 6
        for cell in cells:
            if cell["lambda"] == 0.0:
                assert cell["classification"] == "excluded"
                continue
            report = read(borderline, "subordinacy",
                          f"subordinacy_{name(cell)}.json")
            # the phase band is the command's own annotation of lambda < 0
            band = report.pop("phase_band", None)
            assert (band is not None) == (cell["lambda"] < 0.0)
            assert cell["report"] == report
            if cell["lambda"] < 0.0:
                assert (report["r0"], report["r_end"], report["delta"]) == \
                    (1.5, 40.0, DELTA)

    def test_unresolvable_cell_marked_and_run_continues(self, tmp_path):
        # exponential growth overflows the far probe windows, so the cell
        # cannot be certified; the scan still completes and records the cell
        model = {"q": {"family": "exp", "params": {"c": 1.0, "a": 1.0}},
                 "m": {"family": "power", "params": {"c": 1.0, "p": 0.0}}}
        cfg = write_config(tmp_path, {"model": model, "k_set": [1],
                                      "lambda_grid": [0.0],
                                      "subordinacy": {"r_end": 40.0}})
        assert run(["scan", "--config", cfg, "--out", tmp_path / "o"]) == 0
        doc = json.loads((tmp_path / "o" / "scan.json").read_text())
        assert doc["cells"][0]["classification"] in ("error", "inconclusive")
        assert (tmp_path / "o" / "scan.csv").exists()

    def test_writes_only_its_table_and_document(self, tmp_path):
        # each cell is written once, in scan.json, without the scan's
        # `heuristic` flag
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1, 2],
                                      "lambda_grid": [-1.0, 0.5],
                                      "solver": {"r_end": 20.0}})
        assert run(["scan", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == \
            ["scan.csv", "scan.json"]
        doc = json.loads((tmp_path / "o" / "scan.json").read_text())
        assert "heuristic" in doc and len(doc["cells"]) == 4
        assert not any("heuristic" in cell for cell in doc["cells"])


    def test_failed_cell_keeps_traceback(self, tmp_path, monkeypatch):
        import diracspec.subordinacy as sub

        dominant_cells = sub._dominant_cells

        def failing_for_k2(model, k, lams, solver, reports):
            if k == 2:
                raise TypeError("synthetic cell failure")
            return dominant_cells(model, k, lams, solver, reports)

        monkeypatch.setattr(sub, "_dominant_cells", failing_for_k2)
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                      "k_set": [1, 2], "lambda_grid": [-1.0],
                                      "subordinacy": {"r_end": 20.0}})
        for name in ("a", "b"):
            assert run(["scan", "--config", cfg, "--out", tmp_path / name]) == 0
        doc = json.loads((tmp_path / "a" / "scan.json").read_text())
        bad = [c for c in doc["cells"] if c["classification"] == "error"]
        assert [c["k"] for c in bad] == [2]
        assert bad[0]["error"] == "TypeError: synthetic cell failure"
        assert bad[0]["traceback"][-1] == bad[0]["error"]
        assert any("failing_for_k2" in line for line in bad[0]["traceback"])
        assert (tmp_path / "a" / "scan.json").read_bytes() == \
            (tmp_path / "b" / "scan.json").read_bytes()


class TestOneLadderPass:
    """Each command samples each ladder window once: `boundedness` its C
    pass, `scan` its model and every channel in one pass (`check_scan`),
    `hypotheses` every condition, G of a later lambda included, and the
    trichotomy probe of `bv-verify` the tail windows of A3 alone."""

    DOMINANT = {"model": LINEAR_MODEL, "k_set": [1, -1, 2],
                "lambda_grid": [-1.0, 0.5], "solver": {"r_end": 20.0}}
    # 2q - 1e4 is positive on the last tail window only, so G reads 300
    G_FALLBACK = {"model": {"q": LINEAR_MODEL["q"], "m": LINEAR_MODEL["q"]},
                  "k_set": [1], "lambda_grid": [1e4, 300.0, -1.0]}
    BV = {**DOMINANT, "bv": {"instances": 16}}

    @pytest.mark.parametrize("command,doc,windows", [
        ("boundedness", DOMINANT, 4 + 3),
        ("scan", DOMINANT, 4 + 3),
        ("hypotheses", DOMINANT, 4 + 3),
        ("hypotheses", G_FALLBACK, 4 + 3),
        ("bv-verify", BV, 3),
    ], ids=["boundedness", "scan", "hypotheses", "hypotheses-g-fallback",
            "bv-verify"])
    def test_each_window_sampled_once(self, tmp_path, monkeypatch, command,
                                      doc, windows):
        sample_window, calls = diracspec.bvcalc.sample_window, []

        def counting(fn, a, b, **kwargs):
            calls.append((a, b))
            return sample_window(fn, a, b, **kwargs)

        # every binding of the sampler, in every module of the package
        for name, mod in list(sys.modules.items()):
            if (name.split(".")[0] == "diracspec"
                    and getattr(mod, "sample_window", None) is sample_window):
                monkeypatch.setattr(mod, "sample_window", counting)
        cfg = write_config(tmp_path, doc)
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) in \
            (0, 1)
        assert len(calls) == len(set(calls)) == windows


class TestOtherCommands:
    def test_solve_constant_fixture(self, tmp_path):
        assert run(["solve", "--config", fixture_path("constant_coeff"),
                    "--out", tmp_path / "o"]) == 0
        lines = (tmp_path / "o" / "trajectory_const.csv").read_text().splitlines()
        assert lines[0] == "r,u1,u2,rho,theta,Q,M,L,W"
        assert len(lines) > 1000

    def test_solve_picks_polar_when_q_dominates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": LINEAR_MODEL, "k_set": [1], "lambda_grid": [0.0],
            "solver": {"r_start": 40.0, "r_end": 90.0}})
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert "mode=pruefer" in capsys.readouterr().out

    def test_solve_blowup_is_quiet_and_reports_stop_radius(self, tmp_path,
                                                           capfd):
        # at lambda = 1 the growing Cartesian solution overflows: the status
        # line says where it stopped and numpy prints no warnings
        cfg = write_config(tmp_path, {"model": EQUAL_MODEL, "k_set": [1],
                                      "lambda_grid": [1.0]})
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 0
        captured = capfd.readouterr()
        assert "RuntimeWarning" not in captured.err
        line, = captured.out.splitlines()
        assert "status=-1 " in line
        last_r = float(line.split("last_r=")[1])
        rows = (tmp_path / "o" / "trajectory_k=1_lambda=1.csv").read_text()
        assert last_r == pytest.approx(
            float(rows.splitlines()[-1].split(",")[0]), rel=1e-9)
        assert last_r < 100.0

    def test_boundedness_constant_fixture(self, tmp_path):
        assert run(["boundedness", "--config", fixture_path("constant_coeff"),
                    "--out", tmp_path / "o"]) == 0
        doc = json.loads((tmp_path / "o" / "boundedness_const.json").read_text())
        assert doc["certificate"]["C"] == pytest.approx(3.0, rel=0.05)
        assert doc["almost_monotone"]["failures"] == []

    def test_boundedness_refuses_before_solving(self, tmp_path, capsys,
                                                monkeypatch):
        # modulated_quarter reads C3 violated at k = 1, lambda = 1: that
        # cell is refused, and the one solve of k = 1 holds only lambda = 0
        import diracspec.boundedness as boundedness

        solved = []
        solve = boundedness.integrate_fundamental

        def counting(channel, cfg, r_start=None):
            solved.append([channel.label(i) for i in range(len(channel))])
            return solve(channel, cfg, r_start)

        traced = []
        trace = boundedness.r_trace

        def counting_trace(channel, grid, u):
            traced.append(channel.label())
            return trace(channel, grid, u)

        monkeypatch.setattr(boundedness, "integrate_fundamental", counting)
        monkeypatch.setattr(boundedness, "r_trace", counting_trace)
        assert run(["boundedness", "--config",
                    fixture_path("modulated_quarter"), "--out", tmp_path]) == 0
        assert solved == [["k=1,lambda=0"]]
        # one envelope trace per certified cell, none for the refused one
        assert traced == ["k=1,lambda=0"]
        refusal = "certificate refused: C3 reported violated"
        assert f"k=1,lambda=1: refused ({refusal})" in capsys.readouterr().out
        doc = json.loads((tmp_path / "boundedness_k=1_lambda=1.json")
                         .read_text())
        assert doc["refused"] == refusal
        assert sorted(doc) == ["channel", "conditions", "kind", "refused"]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "boundedness_k=1_lambda=0.json", "boundedness_k=1_lambda=1.json",
            "rtrace_k=1_lambda=0.csv"]

    def test_start_radius_past_window_end_refused(self, tmp_path, capsys):
        # q = r, m = 1, k = 1: the automatic start radius is 1.33 at
        # lambda = 0 and 0.76 at lambda = -1, so with r_end = 1.2 the first
        # cell is refused and the next one is still certified
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                      "lambda_grid": [0.0, -1.0],
                                      "solver": {"r_end": 1.2}})
        refusal = ("certificate refused: start radius r0 = 1.33363 is not "
                   "below r_end = 1.2")
        assert run(["boundedness", "--config", cfg, "--out",
                    tmp_path / "b", "--assert"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"k=1,lambda=0: refused ({refusal})",
            "k=1,lambda=-1: C=3.01607 sup_R=27.1586 verdict=bounded"]
        doc = json.loads((tmp_path / "b" / "boundedness_k=1_lambda=0.json")
                         .read_text())
        assert doc["refused"] == refusal
        doc = json.loads((tmp_path / "b" / "boundedness_k=1_lambda=-1.json")
                         .read_text())
        assert doc["certificate"]["verdict"] == "bounded"
        # scan records the same refusal, not a program fault
        assert run(["scan", "--config", cfg, "--out", tmp_path / "s"]) == 0
        doc = json.loads((tmp_path / "s" / "scan.json").read_text())
        cells = doc["cells"]
        assert [(c["lambda"], c["classification"]) for c in cells] == \
            [(-1.0, "ac-candidate"), (0.0, "inconclusive")]
        assert cells[1]["refused"] == refusal
        assert "error" not in cells[1] and "traceback" not in cells[1]
        assert doc["summary"]["n_errors"] == 0

    def test_closed_stdout_does_not_end_the_command(self, tmp_path):
        # a reader that closed the pipe (`| head`) before the first line:
        # every artifact is still written, with the exit code of a run whose
        # stdout stays open, and no traceback
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                      "lambda_grid": [0.0, -1.0],
                                      "solver": {"r_end": 1.2}})
        assert run(["boundedness", "--config", cfg, "--out",
                    tmp_path / "open"]) == 0
        src = str(Path(diracspec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "diracspec.cli", "boundedness",
                 "--config", str(cfg), "--out", str(tmp_path / "closed")],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                stdin=subprocess.DEVNULL, timeout=300)
        finally:
            os.close(write)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in (tmp_path / "closed").iterdir()) == \
            sorted(p.name for p in (tmp_path / "open").iterdir())

    @pytest.mark.parametrize("command,solver", [
        ("boundedness", {"r_end": 1.0}),
        ("boundedness", {"r_end": -1.0}),
        ("solve", {"r_start": 0.0}),
        ("solve", {"r_start": -1.0}),
    ])
    def test_solver_range_and_step_must_be_positive(self, tmp_path, capsys,
                                                    command, solver):
        cfg = write_config(tmp_path, {
            "channel": {"Q": 2.0, "M": 1.0, "L": 0.0},
            "solver": {"r_start": 1.0, "r_end": 101.0, **solver}})
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error: config.solver: " in capsys.readouterr().err

    @pytest.mark.parametrize("stride,residuals", [(0.02, 6), (1.6, 1),
                                                  (4.0, 0)])
    def test_asymptotics_trend_needs_two_residuals(self, tmp_path, capsys,
                                                   stride, residuals):
        # a coarse stride leaves fewer than 8 samples in some of the six
        # geometric windows, which are skipped; with fewer than two
        # residuals there is no trend to assert, and the cell's line says so
        cfg = write_config(tmp_path, {
            "model": EQUAL_MODEL, "k_set": [1], "lambda_grid": [-1.0],
            "asymptotics": {"r_start": 10.0, "r_end": 50.0,
                            "stride": stride}})
        code = run(["asymptotics", "--config", cfg, "--out", tmp_path / "o",
                    "--assert"])
        rows = (tmp_path / "o" / "residuals_k=1_lambda=-1.csv").read_text()
        assert len(rows.splitlines()) == 2 + residuals
        assert code == (0 if residuals >= 2 else 1)
        line, = capsys.readouterr().out.splitlines()
        assert line.startswith("k=1 lambda=-1: residuals ")
        assert line.endswith("; no trend: fewer than two residual windows") \
            == (residuals < 2)

    @pytest.mark.parametrize("r_start,r_end", [(60.0, 100.0), (49.99, 60.0),
                                               (5.0, 10.05)])
    def test_asymptotics_defect_window_of_two_strides(self, tmp_path, capsys,
                                                      r_start, r_end):
        # the defect convergence runs on [max(r_start, 10), min(r_end, 50)]
        # at strides down from 0.04; a shorter window has no interior point
        cfg = write_config(tmp_path, {
            "model": EQUAL_MODEL, "k_set": [1], "lambda_grid": [-1.0],
            "asymptotics": {"r_start": r_start, "r_end": r_end}})
        assert run(["asymptotics", "--config", cfg, "--out", tmp_path / "o",
                    "--assert"]) == 2
        assert "config error: config.asymptotics: the defect window" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_asymptotics_short_defect_window_runs(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": EQUAL_MODEL, "k_set": [1], "lambda_grid": [-1.0],
            "asymptotics": {"r_start": 5.0, "r_end": 10.1}})
        assert run(["asymptotics", "--config", cfg,
                    "--out", tmp_path / "o"]) == 0
        doc = json.loads((tmp_path / "o" / "defects_k=1_lambda=-1.json")
                         .read_text())
        assert len(doc["defects"]) == 3

    def test_eigen_outputs(self, tmp_path):
        assert run(["eigen", "--config", fixture_path("borderline_linear"),
                    "--out", tmp_path / "o"]) == 0
        doc = json.loads((tmp_path / "o" / "eigenvalues.json").read_text())
        assert len(doc["by_k"]["1"]) >= 1

    @pytest.mark.parametrize("doc, refusal", [
        ({"model": EQUAL_MODEL, "k_set": [1], "bracket": [-1.0, 1.0]},
         "config error: config.bracket: need a bracket 0 <= lo < hi, "
         "got [-1, 1]"),
        ({"model": LINEAR_MODEL, "k_set": [1], "bracket": [0.0, 1.0]},
         "config error: eigen needs m == q"),
        # q = m = ln(1 + r) stays below 20.73 on the probe radii, so no
        # lambda of [41.5, 60] has a turning radius: a refusal, not a crash
        ({"model": dict.fromkeys("qm", {"family": "log", "params": {"c": 1.0}}),
          "k_set": [1], "bracket": [0.0, 60.0]},
         "config error: eigen: k=1: no turning radius found: q never "
         "reaches lambda/2 = 20.725 on [1e-06, 1e+09]\n"),
    ], ids=["doc0", "doc1", "doc2"])
    def test_eigen_refused_input_exits_two(self, tmp_path, capsys, doc,
                                           refusal):
        cfg = write_config(tmp_path, doc)
        assert run(["eigen", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert refusal in capsys.readouterr().err

    def test_eigen_refusal_names_the_first_refused_k(self, tmp_path, capsys,
                                                     monkeypatch):
        # every k is shot in one lockstep; a refusal names the first k, in
        # k_set order, whose own shooting is refused, and no k's result
        # line is printed before it
        direction = subordinacy.decaying_direction

        def refuse(model, k, lam, r_at):
            if k > 0:
                raise PreconditionError(f"refused at k={k}")
            return direction(model, k, lam, r_at)

        monkeypatch.setattr(subordinacy, "decaying_direction", refuse)
        cfg = write_config(tmp_path, {"model": EQUAL_MODEL, "k_set": [-1, 2, 1],
                                      "bracket": [0.0, 5.0]})
        assert run(["eigen", "--config", cfg, "--out", tmp_path / "o"]) == 2
        out, err = capsys.readouterr()
        assert err == "config error: eigen: k=2: refused at k=2\n"
        assert "eigenvalue" not in out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tol, scan_step", [(0.0, 0.05), (1e-8, -0.05)])
    def test_eigen_steps_refusal_is_the_library_one(self, tmp_path, capsys,
                                                    tol, scan_step):
        cfg = write_config(tmp_path, {"model": EQUAL_MODEL, "k_set": [1],
                                      "bracket": [0.0, 1.0], "eigen": {
                                          "tol": tol, "scan_step": scan_step}})
        assert run(["eigen", "--config", cfg, "--out", tmp_path / "o"]) == 2
        with pytest.raises(ValueError) as refusal:
            eigen_shoot(CoefficientModel(q=power(1.0, 1.0), m=power(1.0, 1.0)),
                        [1], [0.0, 1.0], tol_lambda=tol, scan_step=scan_step)
        err = capsys.readouterr().err
        assert err.startswith("config error: config.eigen: ")
        assert err.endswith(f": {refusal.value}\n")

    def test_bv_verify_seeded(self, tmp_path):
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                      "lambda_grid": [0.0],
                                      "bv": {"instances": 25}})
        assert run(["bv-verify", "--config", cfg, "--out", tmp_path / "o",
                    "--seed", 4, "--assert"]) == 0
        doc = json.loads((tmp_path / "o" / "bv_report.json").read_text())
        assert doc["product_bound_failures"] == []
        assert doc["quotient_bound_failures"] == []
        assert doc["jordan_failures"] == []

    @pytest.mark.parametrize("seed", range(4))
    def test_bv_verify_blocks_match_one_at_a_time(self, tmp_path, monkeypatch,
                                                  capsys, seed):
        for n in (1, 17, 300):
            cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                          "lambda_grid": [0.0],
                                          "bv": {"instances": n}},
                               name=f"bv{n}.json")
            args = ["bv-verify", "--config", cfg, "--seed", seed, "--assert"]
            assert run(args + ["--out", tmp_path / f"block{n}"]) == 0
            stdout = capsys.readouterr().out
            with monkeypatch.context() as m:
                m.setitem(cli._COMMANDS, "bv-verify", bv_verify_one_at_a_time)
                assert run(args + ["--out", tmp_path / f"loop{n}"]) == 0
            assert capsys.readouterr().out == stdout
            assert (tmp_path / f"block{n}" / "bv_report.json").read_bytes() \
                == (tmp_path / f"loop{n}" / "bv_report.json").read_bytes()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_bv_instance_rows_are_the_recipe(self, seed):
        blocks, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in (cli._BV_BLOCK, 7, 1):
            block = cli._bv_instances(blocks, count)
            for i in range(count):
                for stacked, alone in zip(block, bv_instance(loop)):
                    assert np.array_equal(stacked[i], alone)

    def test_bv_verify_lists_failing_rows(self, tmp_path, monkeypatch):
        # failing rows in the second, partial block: a product pair whose
        # derivative is wrong, a quotient pair with eps >= 1, and a quotient
        # pair whose bound fails
        size = cli._BV_BLOCK
        bad_product, bad_eps, bad_bound = size + 1, size + 3, size + 6
        instances, quotient = cli._bv_instances, cli.check_quotient_bounds

        def doctored_instances(rng, count):
            grid, fv, fd, gv, gpos, f2 = instances(rng, count)
            if count < size:
                # f = sin 3r with f' = 0 and g = 1: Var(fg) > 0 = rhs
                i = bad_product - size
                fv[i], fd[i], gv[i] = np.sin(3.0 * grid[i]), 0.0, 1.0
                f2[bad_eps - size] = 2.0 * gpos[bad_eps - size]
            return grid, fv, fd, gv, gpos, f2

        def violated_quotient(f, g):
            # the two-sided bound holds partition-wise on every valid input,
            # so the violated row is made by flipping its upper verdict
            res = quotient(f, g)
            if res.eps.size < size:
                upper = res.upper_holds.copy()
                upper[bad_bound - size] = False
                res = dataclasses.replace(res, upper_holds=upper)
            return res

        written, write_json = {}, cli._write_json

        def kept_write_json(path, obj):
            written[path.name] = obj
            write_json(path, obj)

        monkeypatch.setattr(cli, "_bv_instances", doctored_instances)
        monkeypatch.setattr(cli, "check_quotient_bounds", violated_quotient)
        monkeypatch.setattr(cli, "_write_json", kept_write_json)
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                      "bv": {"instances": size + 7}})
        assert run(["bv-verify", "--config", cfg, "--out", tmp_path / "o",
                    "--assert"]) == 1
        doc = written["bv_report.json"]
        assert doc["product_bound_failures"] == [bad_product]
        assert doc["quotient_bound_failures"] == [bad_eps, bad_bound]
        assert doc["jordan_failures"] == []
        assert all(type(i) is int for i in doc["product_bound_failures"]
                   + doc["quotient_bound_failures"])

    def test_bv_verify_memory_does_not_grow_with_instances(self, tmp_path):
        peaks = []
        for n in (1, 200, 2000):
            cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                          "bv": {"instances": n}},
                               name=f"bv{n}.json")
            tracemalloc.start()
            try:
                assert run(["bv-verify", "--config", cfg,
                            "--out", tmp_path / f"o{n}"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the run at 1 instance takes the first-call allocations
        assert peaks[2] <= 1.25 * peaks[1]

    def test_subordinacy_assert_counts_positive_lambda(self, tmp_path,
                                                      monkeypatch):
        # a lambda > 0 cell that finds no subordinate solution is a finding
        import diracspec.subordinacy as sub

        eigen_side_cell = sub._eigen_side_cell

        def inconclusive(*args):
            return {**eigen_side_cell(*args), "classification": "inconclusive"}

        cfg = fixture_path("borderline_linear")
        assert run(["subordinacy", "--config", cfg, "--out", tmp_path / "a",
                    "--assert"]) == 0
        monkeypatch.setattr(sub, "_eigen_side_cell", inconclusive)
        assert run(["subordinacy", "--config", cfg, "--out", tmp_path / "b",
                    "--assert"]) == 1
        assert run(["subordinacy", "--config", cfg,
                    "--out", tmp_path / "c"]) == 0

    @pytest.mark.parametrize("command, fixture, code", [
        ("hypotheses", "modulated_quarter", 1),
        ("eigen", "borderline_linear", 0),
    ])
    def test_exit_code_ignores_assert(self, tmp_path, command, fixture, code):
        # hypotheses exits 1 on a non-auxiliary violated verdict and eigen
        # exits 0, with --assert as without it (TestHypothesesCommand)
        assert run([command, "--config", fixture_path(fixture),
                    "--out", tmp_path / "o", "--assert"]) == code

    def test_subordinacy_requires_equal_model(self, tmp_path):
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                      "lambda_grid": [-1.0]})
        assert run(["subordinacy", "--config", cfg,
                    "--out", tmp_path / "o"]) == 2

    def test_each_call_reads_its_own_flags(self, tmp_path, monkeypatch):
        # one parser serves every call of a process; no flag of one call
        # may reach the next
        seen = []

        def record(cfg, out, assert_mode):
            seen.append((cfg.seed, out, assert_mode))
            return 0

        monkeypatch.setitem(diracspec.cli._COMMANDS, "hypotheses", record)
        cfg = fixture_path("dominant_linear")
        seed = load_config(cfg).seed
        assert run(["hypotheses", "--config", cfg, "--assert",
                    "--seed", seed + 1, "--out", tmp_path / "a"]) == 0
        assert run(["hypotheses", "--config", cfg,
                    "--out", tmp_path / "b"]) == 0
        assert seen == [(seed + 1, tmp_path / "a", True),
                        (seed, tmp_path / "b", False)]


def _significant(token: str) -> int:
    """The significant digits of a written number, as in 1.25e-07 (3)."""
    return len(token.split("e")[0].lstrip("-").replace(".", "").lstrip("0"))


def _agrees(full, back, digits, n=None):
    """Whether the JSON value `back` read from an artifact holds `full`,
    each float to the n significant digits that `digits` gives the
    innermost key above it (exactly when none does), and no more."""
    if isinstance(full, float):
        if not math.isfinite(full):
            return back is None
        if n is None:
            return back == full
        return (abs(back - full) <= 5.0 * 10.0 ** -n * abs(full)
                and _significant(repr(back)) <= n)
    if isinstance(full, dict):
        return full.keys() == back.keys() and all(
            _agrees(full[key], back[key], digits,
                    digits.get(key, n) if digits else n) for key in full)
    if isinstance(full, (list, tuple)):
        if len(full) != len(back):
            return False
        if isinstance(n, tuple):  # rows, one count a column
            return all(_agrees(x, y, digits, d)
                       for row, got in zip(full, back)
                       for x, y, d in zip(row, got, n))
        return all(_agrees(x, y, digits, n) for x, y in zip(full, back))
    return full == back


class TestArtifactDigits:
    """Every number the commands write, read back, is the full-precision
    value to the significant digits `solver.DIGITS` states for its kind
    and column, and has no more of them; every other number reads back
    exactly."""

    @pytest.mark.parametrize("command,fixture", [
        ("boundedness", "dominant_linear"),
        ("boundedness", "constant_coeff"),
        ("subordinacy", "borderline_linear"),
        ("eigen", "borderline_linear"),
        ("asymptotics", "borderline_linear"),
        ("scan", "borderline_linear"),
        ("solve", "constant_coeff"),
    ])
    def test_written_numbers_read_back_to_their_digits(
            self, tmp_path, monkeypatch, command, fixture):
        docs, tables = {}, {}
        write_json = cli._write_json

        def kept_write_json(path, obj):
            docs[path] = obj
            write_json(path, obj)

        def kept_write_columns(write):
            def kept(path, header, columns, digits=None):
                tables[Path(path)] = header, columns, digits or {}
                write(path, header, columns, digits)
            return kept

        monkeypatch.setattr(cli, "_write_json", kept_write_json)
        for module in (cli, diracspec.boundedness, diracspec.solver):
            monkeypatch.setattr(module, "write_columns", kept_write_columns(
                module.write_columns))
        run([command, "--config", fixture_path(fixture),
             "--out", tmp_path / "o"])
        assert docs or tables
        rounded = 0
        for path, doc in docs.items():
            digits = DIGITS.get(doc["kind"])
            rounded += digits is not None
            assert _agrees(doc, json.loads(path.read_text()), digits), path
        for path, (header, columns, digits) in tables.items():
            rounded += bool(digits)
            names = header.splitlines()[-1].split(",")
            rows = [line.split(",") for line in
                    path.read_text().splitlines()[header.count("\n") + 1:]]
            assert len(rows) == (len(columns[0]) if columns else 0)
            for name, full, back in zip(names, columns, zip(*rows)):
                n = digits.get(name)
                for x, token in zip(np.asarray(full).tolist(), back):
                    if isinstance(x, str):
                        assert token == x
                        continue
                    y = float(token)
                    if n is None or not math.isfinite(x):
                        assert y == x or (math.isnan(x) and math.isnan(y))
                    else:
                        assert abs(y - x) <= 5.0 * 10.0 ** -n * abs(x)
                        assert _significant(token) <= n
        assert rounded


class TestPlotData:
    def test_kinds_and_stability(self, tmp_path):
        run(["scan", "--config", fixture_path("borderline_linear"),
             "--out", tmp_path / "o"])
        # a scan cell on its own carries no plot kind
        cells = json.loads((tmp_path / "o" / "scan.json").read_text())["cells"]
        target = tmp_path / "cell.json"
        target.write_text(json.dumps(cells[0]))
        assert run(["plotdata", target, tmp_path / "o" / "scan.csv",
                    "--out", tmp_path / "p1"]) == 2
        assert run(["plotdata", tmp_path / "o" / "scan.csv",
                    "--out", tmp_path / "p1"]) == 0
        assert (tmp_path / "p1" / "scan.dat").read_text().startswith("# k\\")
        # the report artifacts carry their kind
        sub_out = tmp_path / "sub"
        run(["subordinacy", "--config", fixture_path("borderline_linear"),
             "--out", sub_out])
        rep = sub_out / "subordinacy_k=1_lambda=-1.json"
        assert run(["plotdata", rep, "--out", tmp_path / "p2"]) == 0
        dat = (tmp_path / "p2" / rep.stem).with_suffix(".dat")
        first = dat.read_text().splitlines()
        assert first[0] == "# r ratio"
        assert run(["plotdata", rep, "--out", tmp_path / "p3"]) == 0
        assert dat.read_bytes() == \
            ((tmp_path / "p3" / rep.stem).with_suffix(".dat")).read_bytes()

    def test_unknown_kind_exits_two(self, tmp_path):
        bogus = tmp_path / "thing.json"
        bogus.write_text(json.dumps({"kind": "mystery"}))
        assert run(["plotdata", bogus, "--out", tmp_path / "p"]) == 2

    @pytest.mark.parametrize("name,text", [
        ("rtrace_x.csv", "# kind=rtrace\n"),
        ("scan.json", json.dumps({"kind": "scan"})),
        ("subordinacy_x.json", json.dumps({"kind": "subordinacy",
                                           "lambda": -1.0, "k": 1})),
    ], ids=["csv-no-header", "scan-no-cells", "subordinacy-no-ratio-tail"])
    def test_truncated_artifact_exits_two(self, tmp_path, capsys, name, text):
        bad = tmp_path / name
        bad.write_text(text)
        assert run(["plotdata", bad, "--out", tmp_path / "p"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {bad}: ")
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_malformed_json_exits_two(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["plotdata", bad, "--out", tmp_path / "p"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {bad}: ")

    def test_multiple_inputs_named_by_stem(self, tmp_path):
        out = tmp_path / "art"
        run(["subordinacy", "--config", fixture_path("borderline_linear"),
             "--out", out])
        run(["asymptotics", "--config", fixture_path("borderline_linear"),
             "--out", out])
        inputs = [out / "subordinacy_k=1_lambda=-1.json",
                  out / "residuals_k=1_lambda=-1.csv"]
        assert run(["plotdata", *inputs, "--out", tmp_path / "p"]) == 0
        made = sorted(p.name for p in (tmp_path / "p").glob("*.dat"))
        assert made == ["residuals_k=1_lambda=-1.dat",
                        "subordinacy_k=1_lambda=-1.dat"]


class TestUnreadableInputs:
    """An input that cannot be read, or an --out that cannot be a
    directory, is a config error that names the path (exit 2)."""

    @staticmethod
    def unreadable(path, kind):
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe# kind=scan\n")
        return path

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_config(self, tmp_path, capsys, kind):
        path = self.unreadable(tmp_path / "config.json", kind)
        assert run(["hypotheses", "--config", path,
                    "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config file unreadable: {path}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    @pytest.mark.parametrize("name", ["scan.json", "scan.csv"])
    def test_plotdata_input(self, tmp_path, capsys, name, kind):
        path = self.unreadable(tmp_path / name, kind)
        assert run(["plotdata", path, "--out", tmp_path / "p"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: input unreadable: {path}: ")
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("below", [False, True],
                             ids=["a-file", "below-a-file"])
    @pytest.mark.parametrize("command", ["hypotheses", "plotdata"])
    def test_out(self, tmp_path, capsys, command, below):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "o" if below else blocker
        if command == "plotdata":
            run(["scan", "--config", fixture_path("borderline_linear"),
                 "--out", tmp_path / "scan"])
            args = ["plotdata", tmp_path / "scan" / "scan.csv"]
        else:
            args = ["hypotheses", "--config", fixture_path("dominant_linear")]
        capsys.readouterr()
        assert run([*args, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: --out: cannot make the directory {out}: ")
        assert blocker.read_text() == ""


class TestScipyFreeStart:
    """Only the commands that call a scipy routine import scipy."""

    def _fresh(self, tmp_path, runs):
        # runs: [(command, config document)]; one new interpreter imports the
        # CLI, then runs each command and reports the scipy modules loaded
        # after the import and after each command
        code = ("import json, sys\n"
                "from diracspec.cli import main\n"
                "def scipy_mods():\n"
                "    return sorted(m for m in sys.modules\n"
                "                  if m.split('.')[0] == 'scipy')\n"
                "out = [('import', 0, scipy_mods())]\n"
                "for cmd, cfg, dest in json.loads(sys.argv[1]):\n"
                "    rc = main([cmd, '--config', cfg, '--out', dest])\n"
                "    out.append((cmd, rc, scipy_mods()))\n"
                "print(json.dumps(out))\n")
        calls = []
        for i, (command, doc) in enumerate(runs):
            path = write_config(tmp_path, doc, name=f"cfg{i}.json")
            calls.append((command, str(path), str(tmp_path / f"o{i}")))
        src = str(Path(diracspec.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls)],
                              capture_output=True, text=True, env=env,
                              stdin=subprocess.DEVNULL, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_scipy_free_commands(self, tmp_path):
        small = {"model": LINEAR_MODEL, "k_set": [1], "lambda_grid": [-1.0],
                 "solver": {"r_end": 25.0},
                 "subordinacy": {"r_end": 20.0}, "bv": {"instances": 3}}
        # m == q and lambda < 0: subordinacy reports the phase band
        equal = {"model": EQUAL_MODEL, "k_set": [1], "lambda_grid": [-1.0],
                 "subordinacy": {"r_end": 25.0},
                 "asymptotics": {"r_start": 5.0, "r_end": 25.0}}
        polar = {**small, "solver": {"r_start": 10.0, "r_end": 25.0}}
        channel = assemble_channel(
            CoefficientModel(q=power(1.0, 1.0), m=power(1.0, 0.0)), 1, -1.0)
        assert prefer_pruefer(channel, 10.0, 25.0)
        steps = self._fresh(tmp_path, [
            ("hypotheses", small), ("bv-verify", small),
            ("boundedness", small), ("scan", {**small, "workers": 1}),
            ("subordinacy", equal), ("asymptotics", equal),
            ("solve", polar),
            ("eigen", {**equal, "bracket": [0.5, 2.0],
                       "eigen": {"scan_step": 0.25}})])
        assert [tuple(step) for step in steps] == [
            ("import", 0, []), ("hypotheses", 0, []), ("bv-verify", 0, []),
            ("boundedness", 0, []), ("scan", 0, []), ("subordinacy", 0, []),
            ("asymptotics", 0, []), ("solve", 0, []), ("eigen", 0, [])]
        report = json.loads(
            (tmp_path / "o4" / "subordinacy_k=1_lambda=-1.json").read_text())
        assert report["phase_band"]["r_end"] == 25.0
        assert (tmp_path / "o5" / "residuals_k=1_lambda=-1.csv").exists()
        assert (tmp_path / "o6" / "trajectory_k=1_lambda=-1.csv").exists()
        assert (tmp_path / "o7" / "eigenvalues.json").exists()

    def test_scipy_commands_still_run(self, tmp_path):
        # the Cartesian solve steps with scipy's DOP853
        small = {"model": EQUAL_MODEL, "k_set": [1], "lambda_grid": [-1.0],
                 "solver": {"r_end": 25.0}}
        steps = self._fresh(tmp_path, [("solve", small)])
        assert [(cmd, rc) for cmd, rc, _ in steps] == [
            ("import", 0), ("solve", 0)]
        assert (tmp_path / "o0" / "trajectory_k=1_lambda=-1.csv").exists()

    def test_trapezoid_helpers_match_scipy_bit_for_bit(self):
        from scipy.integrate import trapezoid as scipy_trapezoid

        rng = np.random.default_rng(20)
        for n in (2, 3, 17, 1000, 4001):
            x = np.sort(rng.uniform(0.5, 80.0, n))
            y = rng.standard_normal(n) * np.exp(rng.uniform(-5.0, 5.0, n))
            for xs, ys in ((x, y), (x[::2], np.abs(y)[::2])):
                assert trapezoid(ys, xs) == scipy_trapezoid(ys, xs)
