import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracspec
from diracspec.bvcalc import trapezoid
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
from diracspec.solver import prefer_pruefer


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


class TestConfig:
    def test_fixtures_load(self):
        for name in ("dominant_linear", "borderline_linear", "modulated_quarter",
                     "sqrt_periodic", "constant_coeff"):
            cfg = load_config(fixture_path(name))
            assert cfg.model is not None or cfg.channel_const is not None

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

    def test_zero_k_rejected(self, tmp_path):
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [0]})
        with pytest.raises(ConfigError, match="k_set"):
            load_config(path)

    @pytest.mark.parametrize("section", [
        {"solver": {"rtol": "tight"}},
        {"solver": {"rtol": 0.0}},
        {"solver": {"r_start": 5.0, "r_end": 2.0}},
        {"solver": {"stride": -0.1}},
        {"ladder": {"factor": 0.5}},
        {"tail_ladder": {"rungs": "many"}},
        {"subordinacy": {"delta": "x"}},
        {"subordinacy": {"r0": 0.0}},
        {"eigen": {"tol": 0}},
        {"eigen": {"scan_step": -0.05}},
        {"asymptotics": {"r_start": "x"}},
        {"asymptotics": {"stride": 0.0}},
        {"asymptotics": {"windows": [[10.0]]}},
        {"bv": {"instances": "x"}},
        {"bv": {"instances": 0}},
        {"seed": "x"},
        {"bracket": [0.0, "x"]},
        {"bracket": [2.0, 1.0]},
        {"bracket": "12"},
        {"channel": {"Q": "x", "M": 1.0, "L": 0.0}},
        {"k_set": [True]},
        {"lambda_grid": [False]},
        {"bracket": [True, 2.0]},
        {"bracket": [-math.inf, 1.0]},
        {"workers": 0},
        *({key: bad} for key in ("seed", "workers")
          for bad in (True, 2.7, "3")),
        *({section: {key: bad}} for section, key in (
            ("ladder", "rungs"), ("tail_ladder", "rungs"),
            ("bv", "instances")) for bad in (True, 2.7, "3")),
        *({section: {key: bad}} for section, key in (
            ("solver", "rtol"), ("ladder", "start"), ("tail_ladder", "factor"),
            ("subordinacy", "r0"), ("eigen", "tol"),
            ("asymptotics", "stride")) for bad in (True, "3")),
        {"asymptotics": {"windows": [[True, 10.0]]}},
        {"channel": {"Q": "3", "M": 1.0, "L": 0.0}},
    ])
    def test_malformed_value_exits_two(self, tmp_path, capsys, section):
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                       "lambda_grid": [0.0], **section})
        code = run(["hypotheses", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_tolerance_flag_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": LINEAR_MODEL, "k_set": [1],
                                       "lambda_grid": [0.0]})
        code = run(["solve", "--config", path, "--out", tmp_path / "o",
                    "--tolerance", 2.0])
        assert code == 2
        assert "config error: --tolerance" in capsys.readouterr().err

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
        # the last tail window's grid serves q, m, m' and q' for every model
        # check, the C gap floor and the C3 quotients
        sizes = [size for _, _, size, _, _ in seen]
        assert sizes.count(180_000) == 4 and 100_000 not in sizes


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

        sizes = []

        class InlineExecutor:
            # records the pool size and runs the chunks in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlineExecutor)
        # one chunk per |k|: a single chunk runs in this process
        for i, (k_set, pools) in enumerate((([1, -1, 1], []),
                                            ([1, -1, 2], [2]))):
            sizes.clear()
            out = tmp_path / str(i)
            cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                          "k_set": k_set,
                                          "lambda_grid": [-1.0],
                                          "subordinacy": {"r_end": 20.0}})
            run(["scan", "--config", cfg, "--out", out / "seq"])
            assert run(["scan", "--config", cfg, "--out", out / "par",
                        "--workers", 5000]) == 0
            assert sizes == pools
            assert (out / "seq" / "scan.json").read_bytes() == \
                (out / "par" / "scan.json").read_bytes()

    def test_worker_pool_over_abs_k_chunks_matches_sequential(self, tmp_path):
        # k = 1 and -1 share a chunk, k = 2 has its own: two worker processes
        cfg = write_config(tmp_path, {"model": LINEAR_MODEL,
                                      "k_set": [1, -1, 2],
                                      "lambda_grid": [-1.0, 0.5],
                                      "solver": {"r_end": 20.0}})
        run(["scan", "--config", cfg, "--out", tmp_path / "seq"])
        assert run(["scan", "--config", cfg, "--out", tmp_path / "par",
                    "--workers", 2]) == 0
        for rel in ("scan.csv", "scan.json"):
            assert (tmp_path / "seq" / rel).read_bytes() == \
                (tmp_path / "par" / rel).read_bytes()

    def test_config_ladders_reach_every_check(self, tmp_path):
        # the A reports of scan equal those of hypotheses, and each cell's C
        # reports those of boundedness, on the config's ladders
        cfg = write_config(tmp_path, {
            "model": LINEAR_MODEL, "k_set": [1, -1], "lambda_grid": [0.0],
            "ladder": {"start": 30.0, "factor": 3.0, "rungs": 3},
            "tail_ladder": {"start": 40.0, "factor": 5.0, "rungs": 3},
            "solver": {"r_end": 20.0}, "subordinacy": {"r_end": 20.0}})
        for command in ("scan", "hypotheses", "boundedness"):
            run([command, "--config", cfg, "--out", tmp_path / command,
                 "--workers", 2])
        scan = json.loads((tmp_path / "scan" / "scan.json").read_text())
        hyp = json.loads((tmp_path / "hypotheses" / "hypotheses.json")
                         .read_text())
        assert scan["hypotheses"] == [r for r in hyp["conditions"]
                                      if r["condition"].startswith("A")]
        extreme = [[30.0, 90.0], [90.0, 270.0], [270.0, 810.0]]
        tail = [[40.0, 200.0], [200.0, 1000.0], [1000.0, 5000.0]]
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
        sections = {"solver": {"r_end": 30.0, "stride": 0.1},
                    "subordinacy": {"r0": 1.5, "r_end": 40.0, "delta": 2e-3}}
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
            assert (report["census"] is not None) == (cell["lambda"] < 0.0)
            assert cell["report"] == {**report, "census": None}
            if cell["lambda"] < 0.0:
                assert (report["r0"], report["r_end"], report["delta"]) == \
                    (1.5, 40.0, 2e-3)

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


    def test_failed_cell_keeps_traceback(self, tmp_path, monkeypatch):
        import diracspec.subordinacy as sub

        dominant_cell = sub._dominant_cell

        def failing_for_k2(model, k, lam, solver, reports):
            if k == 2:
                raise TypeError("synthetic cell failure")
            return dominant_cell(model, k, lam, solver, reports)

        monkeypatch.setattr(sub, "_dominant_cell", failing_for_k2)
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
        # cell is refused without a fundamental solve
        import diracspec.boundedness as boundedness

        solved = []
        solve = boundedness.integrate_fundamental

        def counting(channel, cfg):
            solved.append(channel.label())
            return solve(channel, cfg)

        traced = []
        trace = boundedness.r_trace

        def counting_trace(traj):
            traced.append(traj.channel.label())
            return trace(traj)

        monkeypatch.setattr(boundedness, "integrate_fundamental", counting)
        monkeypatch.setattr(boundedness, "r_trace", counting_trace)
        assert run(["boundedness", "--config",
                    fixture_path("modulated_quarter"), "--out", tmp_path]) == 0
        assert solved == ["k=1,lambda=0"]
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
        ("boundedness", {"max_step": 0.0}),
        ("boundedness", {"max_step": -1.0}),
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

    @pytest.mark.parametrize("windows", [[[30.0, 20.0]], [[20.0, 20.0]],
                                         [[10.0, 20.0], [2.0, 8.0]],
                                         [[20.0, 30.0]]])
    def test_asymptotics_windows_inside_the_range(self, tmp_path, capsys,
                                                  windows):
        # a reversed or outside window would leave no residual to compare,
        # and --assert would pass on an empty list
        cfg = write_config(tmp_path, {
            "model": EQUAL_MODEL, "k_set": [1], "lambda_grid": [-1.0],
            "asymptotics": {"r_start": 5.0, "r_end": 25.0,
                            "windows": windows}})
        assert run(["asymptotics", "--config", cfg, "--out", tmp_path / "o",
                    "--assert"]) == 2
        assert "config error: config.asymptotics: each window" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("doc", [
        {"model": EQUAL_MODEL, "k_set": [1], "bracket": [-1.0, 1.0]},
        {"model": LINEAR_MODEL, "k_set": [1], "bracket": [0.0, 1.0]},
    ])
    def test_eigen_refused_input_exits_two(self, tmp_path, capsys, doc):
        cfg = write_config(tmp_path, doc)
        assert run(["eigen", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error: eigen needs" in capsys.readouterr().err

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


class TestPlotData:
    def test_kinds_and_stability(self, tmp_path):
        run(["scan", "--config", fixture_path("borderline_linear"),
             "--out", tmp_path / "o"])
        target = tmp_path / "o" / "cells" / "cell_k=1_lambda=-1.json"
        assert run(["plotdata", target, tmp_path / "o" / "scan.csv",
                    "--out", tmp_path / "p1"]) == 2
        assert run(["plotdata", tmp_path / "o" / "scan.csv",
                    "--out", tmp_path / "p1"]) == 0
        assert (tmp_path / "p1" / "scan.dat").read_text().startswith("# k\\")
        # per-cell files carry no plot kind; use the report artifacts instead
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
        ("census.json", json.dumps({"kind": "census", "ns": [1],
                                    "J_lengths": [2.0]})),
    ], ids=["csv-no-header", "scan-no-cells", "census-no-K"])
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
                 "ladder": {"start": 10.0, "rungs": 2},
                 "tail_ladder": {"start": 10.0, "rungs": 2},
                 "subordinacy": {"r_end": 20.0}, "bv": {"instances": 3}}
        # m == q and lambda < 0: subordinacy runs its phase census
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
        census = json.loads(
            (tmp_path / "o4" / "subordinacy_k=1_lambda=-1.json").read_text())
        assert census["census"] is not None
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
