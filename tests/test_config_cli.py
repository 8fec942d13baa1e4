import copy
import glob
import inspect
import json
import os

import numpy as np
import pytest

from ldpagg import privacy
from ldpagg.algorithm import baseline_seeds, run_seeds
from ldpagg.cli import _COLUMN_ORDER, _write_csv, main
from ldpagg.config import ConfigError, parse_config
from ldpagg.problems import make_personalized_problem, make_quadratic_problem
from ldpagg.schedules import ConvexityCase

BASE = {
    "topology": {"type": "ring", "m": 3, "w": 0.3},
    "schedules": {"preset": "corollary1-sc", "delta": 0.01,
                  "lambda0": [0.5, 1.0, 1.0], "sigma": 0.5},
    "problem": {"family": "quadratic", "ni": 2, "r": 2, "gamma": 1.0,
                "box": [-10, 10], "seed": 7},
    "T": 200,
    "seeds": 2,
    "master_seed": 11,
}

SENS = {"L_l": 0.1, "L_h": 1.0, "Lbar_l": 0.0, "Lbar_h": 1.0,
        "d_l": 0.1, "d_z": 1.0}

EXPLICIT_SCHED = {
    "stepsize": {"x": {"lambda0": 0.01, "v": 0.95},
                 "y": {"lambda0": 0.5, "v": 0.1},
                 "z": {"lambda0": 0.08, "v": 0.12}},
    "noise": {"x": {"sigma": 1.0, "varsigma": 0.03},
              "y": {"sigma": 1.0, "varsigma": 0.05},
              "z": {"sigma": 1.0, "varsigma": 0.06}},
}


# `ldpagg validate` stdout of each shipped config, as lines
with open(os.path.join(os.path.dirname(__file__), "validate_stdout.json")) as f:
    VALIDATE_STDOUT = json.load(f)["stdout"]

# `ldpagg budget` and `ldpagg calibrate` stdout of each shipped config with
# a sensitivity block, as lines: config name -> command -> lines
with open(os.path.join(os.path.dirname(__file__), "accountant_stdout.json")) as f:
    ACCOUNTANT_STDOUT = json.load(f)["stdout"]

# per-agent sigma/varsigma lists (m = 3)
MIXED_SCHED = copy.deepcopy(EXPLICIT_SCHED)
MIXED_SCHED["noise"]["x"] = {"sigma": [1.0, 0.5, 2.0], "varsigma": [0.03, 0.5, 0.7]}
MIXED_SCHED["noise"]["y"] = {"sigma": [1.0, 3.0, 0.2], "varsigma": [0.05, 0.01, 0.08]}
MIXED_SCHED["noise"]["z"] = {"sigma": [1.0, 0.7, 5.0], "varsigma": [0.06, 0.1, 0.02]}


def factory_params():
    """A pytest.param (family, key, default as JSON) for every parameter
    of a problem factory but m."""
    return [pytest.param(fam, k, json.loads(json.dumps(q.default)),
                         id=f"{fam}.{k}")
            for fam, make in (("quadratic", make_quadratic_problem),
                              ("personalized", make_personalized_problem))
            for k, q in inspect.signature(make).parameters.items() if k != "m"]


def assert_same_problem(got, want):
    """Equal fields, arrays bitwise; index tuples derive from m."""
    got, want = vars(got), vars(want)
    assert got.keys() == want.keys()
    for k, v in want.items():
        if isinstance(v, np.ndarray):
            assert got[k].dtype == v.dtype and got[k].shape == v.shape, k
            assert got[k].tobytes() == v.tobytes(), k
        elif not isinstance(v, tuple):
            assert got[k] == v, k


def cfg_dict(**over):
    d = copy.deepcopy(BASE)
    d.update(copy.deepcopy(over))
    return d


def write_cfg(tmp_path, d, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


def write_manifest(directory, seeds):
    """The one manifest field analyze reads: the run's seeds."""
    (directory / "manifest.json").write_text(json.dumps({"seeds": seeds}))


class TestParseConfig:
    def test_defaults_fill_in(self):
        d = cfg_dict()
        del d["T"], d["seeds"], d["master_seed"]
        cfg = parse_config(d)
        assert cfg.T == 1000 and cfg.seeds == 1 and cfg.master_seed == 0
        assert cfg.out == "runs"
        assert cfg.case is ConvexityCase.STRONGLY_CONVEX
        assert cfg.sensitivity is None

    def test_unknown_key_path_in_error(self):
        d = cfg_dict()
        d["problem"]["granma"] = 1
        with pytest.raises(ConfigError, match=r"problem\.granma: unknown key"):
            parse_config(d)
        d = cfg_dict()
        d["bogus"] = 1
        with pytest.raises(ConfigError, match=r"config\.bogus: unknown key"):
            parse_config(d)
        d = cfg_dict(schedules=copy.deepcopy(EXPLICIT_SCHED))
        d["schedules"]["noise"]["w"] = d["schedules"]["noise"]["x"]
        with pytest.raises(ConfigError, match=r"schedules\.noise\.w: unknown key"):
            parse_config(d)

    def test_preset_excludes_explicit_blocks(self):
        d = cfg_dict()
        d["schedules"]["stepsize"] = EXPLICIT_SCHED["stepsize"]
        with pytest.raises(ConfigError, match="preset excludes"):
            parse_config(d)

    def test_explicit_schedules(self):
        d = cfg_dict(schedules=copy.deepcopy(EXPLICIT_SCHED), case="sc")
        cfg = parse_config(d)
        assert cfg.schedules.lambda_x.v == 0.95
        assert cfg.schedules.noise_y[0].sigma == 1.0
        assert len(cfg.schedules.noise_x) == 3

    def test_condition_violation_downgraded_to_warning(self):
        d = cfg_dict(schedules=copy.deepcopy(EXPLICIT_SCHED), case="cvx")
        # varsigma_x = 0.03 < 1/2 violates the cvx noise condition
        cfg = parse_config(d)
        assert any("schedule conditions violated" in w for w in cfg.warnings)

    def test_sensitivity_block(self):
        d = cfg_dict(sensitivity=copy.deepcopy(SENS))
        cfg = parse_config(d)
        assert cfg.sensitivity is not None
        assert cfg.sensitivity.w_bar == pytest.approx(0.6)
        assert cfg.sensitivity.n_i == 2 and cfg.sensitivity.r == 2

    def test_single_agent_sensitivity_warns(self):
        d = cfg_dict(topology={"type": "trivial"},
                     sensitivity=copy.deepcopy(SENS))
        cfg = parse_config(d)
        assert cfg.sensitivity.w_bar == 0.5
        assert any("m=1" in w for w in cfg.warnings)

    def test_matrix_topology(self):
        W = [[-0.3, 0.3], [0.3, -0.3]]
        cfg = parse_config(cfg_dict(topology={"type": "matrix", "weights": W}))
        assert cfg.topology.m == 2
        assert np.allclose(cfg.topology.weights, W)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ConfigError, match="topology"):
            parse_config(cfg_dict(topology={"type": "matrix",
                                            "weights": [[0, 0], [0, 0]]}))

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_nonfinite_matrix_rejected(self, entry):
        W = [[-0.3, 0.3], [0.3, entry]]
        with pytest.raises(ConfigError,
                           match=r"^topology\.weights: W must have finite entries$"):
            parse_config(cfg_dict(topology={"type": "matrix", "weights": W}))

    def test_bad_case_rejected(self):
        with pytest.raises(ConfigError, match="case"):
            parse_config(cfg_dict(case="mediumconvex"))

    def test_personalized_family(self):
        d = cfg_dict(problem={"family": "personalized", "classes": 3,
                              "features": 2, "lam": 1.0, "dataset_size": 8,
                              "box": [-10, 10], "seed": 1})
        cfg = parse_config(d)
        assert cfg.problem.family == "personalized"
        assert cfg.problem.r == 1

    @pytest.mark.parametrize("family, make", [
        ("quadratic", make_quadratic_problem),
        ("personalized", make_personalized_problem)])
    def test_family_only_block_is_factory_defaults(self, family, make):
        # every problem default lives in the factory signature: a block
        # with only the family builds what the factory builds from m
        assert_same_problem(
            parse_config(cfg_dict(problem={"family": family})).problem,
            make(m=3))

    @pytest.mark.parametrize("family, key, default", factory_params())
    def test_factory_parameter_is_key(self, family, key, default):
        # each factory parameter but m is a problem key, and setting it
        # to its default builds what leaving it out builds
        assert_same_problem(
            parse_config(cfg_dict(problem={"family": family, key: default})).problem,
            parse_config(cfg_dict(problem={"family": family})).problem)

    @pytest.mark.parametrize("family", ["quadratic", "personalized"])
    def test_m_is_not_a_problem_key(self, family):
        with pytest.raises(ConfigError, match=r"problem\.m: unknown key"):
            parse_config(cfg_dict(problem={"family": family, "m": 3}))

    @pytest.mark.parametrize("family", ["quadratic", "personalized"])
    def test_inverted_box_rejected(self, family):
        with pytest.raises(ConfigError, match="inverted"):
            parse_config(cfg_dict(problem={"family": family, "box": [1, -1]}))

    @pytest.mark.parametrize("family", ["quadratic", "personalized"])
    def test_infinite_box_bound_is_an_unbounded_side(self, family):
        box = [-float("inf"), float("inf")]
        prob = parse_config(cfg_dict(problem={"family": family,
                                              "box": box})).problem
        assert (prob.box_lo == -np.inf).all() and (prob.box_hi == np.inf).all()

    def test_calibration_block_rejected(self):
        with pytest.raises(ConfigError, match=r"config\.calibration: unknown key"):
            parse_config(cfg_dict(calibration={"epsilon": 1.0}))

    def test_negative_T_rejected(self):
        with pytest.raises(ConfigError, match="T"):
            parse_config(cfg_dict(T=-5))


class TestCliRun:
    def test_run_writes_outputs(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_cfg(tmp_path, cfg_dict(out=out,
                                            sensitivity=copy.deepcopy(SENS)))
        assert main(["run", "--config", path, "--threads", "1"]) == 0
        assert os.path.exists(os.path.join(out, "seed_11.csv"))
        assert os.path.exists(os.path.join(out, "seed_12.csv"))
        assert os.path.exists(os.path.join(out, "aggregate.csv"))
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["seeds"] == [11, 12]
        assert "master_seed" not in manifest  # seeds[0] holds it
        assert manifest["config"]["T"] == 200
        with open(os.path.join(out, "seed_11.csv")) as f:
            header = f.readline().strip().split(",")
        assert header[0] == "t"
        assert "err_to_opt_sq" in header
        assert "eps_cum_a0" in header and "eps_cum_a2" in header

    def test_eps_columns_end_at_per_agent_budget(self, tmp_path,
                                                 one_agent_budget):
        out = str(tmp_path / "out")
        d = cfg_dict(out=out, seeds=1, sensitivity=copy.deepcopy(SENS),
                     schedules=copy.deepcopy(MIXED_SCHED))
        path = write_cfg(tmp_path, d)
        assert main(["run", "--config", path, "--threads", "1"]) == 0
        with open(os.path.join(out, "seed_11.csv")) as f:
            header = f.readline().strip().split(",")
            last = [float(v) for v in f.read().strip().splitlines()[-1].split(",")]
        assert last[0] == 200
        cfg = parse_config(d)
        s = cfg.schedules
        for i in range(3):
            acct = one_agent_budget(200, cfg.sensitivity, s.noise_x[i],
                                    s.noise_y[i], s.noise_z[i])
            eps = last[header.index(f"eps_cum_a{i}")]
            assert eps == pytest.approx(acct.eps_total, rel=1e-12)

    def test_eps_columns_without_closed_form_constants(self, tmp_path):
        # v_z < v_y is an admissibility violation (run proceeds as an
        # ablation); the recursion budget still fills the eps columns
        out = str(tmp_path / "out")
        d = cfg_dict(out=out, seeds=1, T=50, sensitivity=copy.deepcopy(SENS),
                     schedules=copy.deepcopy(EXPLICIT_SCHED))
        d["schedules"]["stepsize"]["y"]["v"] = 0.2
        path = write_cfg(tmp_path, d)
        assert main(["run", "--config", path, "--threads", "1"]) == 0
        with open(os.path.join(out, "seed_11.csv")) as f:
            header = f.readline().strip().split(",")
        assert "eps_cum_a2" in header

    def test_zero_sigma_run_has_no_eps_columns(self, tmp_path):
        # one agent's sigma = 0 leaves nothing to account: the run writes
        # its metrics without eps columns, where `budget` refuses
        out = str(tmp_path / "out")
        d = cfg_dict(out=out, seeds=1, T=50, sensitivity=copy.deepcopy(SENS),
                     schedules=copy.deepcopy(MIXED_SCHED))
        d["schedules"]["noise"]["z"]["sigma"] = [1.0, 0.0, 5.0]
        path = write_cfg(tmp_path, d)
        assert not privacy.accountable(parse_config(d).schedules)
        assert main(["run", "--config", path, "--threads", "1"]) == 0
        with open(os.path.join(out, "seed_11.csv")) as f:
            header = f.readline().strip().split(",")
        assert "err_to_opt_sq" in header
        assert not any(c.startswith("eps_cum") for c in header)

    def test_same_seed_identical_bytes_across_threads(self, tmp_path):
        # with 3 seeds and 2 threads one worker runs a 2-seed batch
        for seeds in (2, 3):
            outs = []
            for tag, threads in (("a", "1"), ("b", "2")):
                out = str(tmp_path / f"{tag}{seeds}")
                path = write_cfg(tmp_path, cfg_dict(out=out, seeds=seeds),
                                 name=f"c{tag}{seeds}.json")
                assert main(["run", "--config", path, "--threads", threads]) == 0
                outs.append(out)
            names = [f"seed_{11 + k}.csv" for k in range(seeds)]
            for fname in names + ["aggregate.csv"]:
                with open(os.path.join(outs[0], fname), "rb") as f:
                    a = f.read()
                with open(os.path.join(outs[1], fname), "rb") as f:
                    b = f.read()
                assert a == b, (seeds, fname)

    def test_run_then_analyze_pipeline(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        path = write_cfg(tmp_path, cfg_dict(out=out, T=2000))
        assert main(["run", "--config", path, "--threads", "1"]) == 0
        capsys.readouterr()
        code = main(["analyze", "--in", out, "--metric", "err_to_opt_sq",
                     "--window", "100,2000"])
        assert code == 0
        fit = json.loads(capsys.readouterr().out)
        assert set(fit) >= {"slope", "r2", "window", "n_seeds"}
        assert fit["n_seeds"] == 2
        assert os.path.exists(os.path.join(out, "mean_err_to_opt_sq.csv"))

    def test_analyze_fits_only_the_manifest_seeds(self, tmp_path, capsys):
        # a 2-seed run into the directory of a 4-seed run leaves 4 stale
        # seed CSVs; analyze fits the 2 seeds the manifest lists, exactly
        # as in a directory of the 2-seed run alone
        reused, clean = str(tmp_path / "reused"), str(tmp_path / "clean")
        for out, seeds, master in ((reused, 4, 100), (reused, 2, 5000),
                                   (clean, 2, 5000)):
            path = write_cfg(tmp_path, cfg_dict(out=out, seeds=seeds,
                                                master_seed=master))
            assert main(["run", "--config", path, "--threads", "1"]) == 0
        capsys.readouterr()
        fits = []
        for out in (reused, clean):
            assert main(["analyze", "--in", out, "--metric", "err_to_opt_sq"]) == 0
            fits.append(capsys.readouterr().out)
        assert json.loads(fits[0])["n_seeds"] == 2 and fits[0] == fits[1]
        means = [open(os.path.join(out, "mean_err_to_opt_sq.csv"), "rb").read()
                 for out in (reused, clean)]
        assert means[0] == means[1]

    def test_baseline_subcommand(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_cfg(tmp_path, cfg_dict(out=out, seeds=1))
        assert main(["baseline", "--config", path, "--threads", "1"]) == 0
        with open(os.path.join(out, "seed_11.csv")) as f:
            header = f.readline().strip().split(",")
        assert "tracker_err" in header

    def test_runtime_abort_exit_code(self, tmp_path):
        # the y tracker is not box-clipped, so a huge lambda_y makes it
        # accumulate past the float range within a few rounds
        d = cfg_dict(seeds=1, T=300, out=str(tmp_path / "out"))
        d["schedules"]["lambda0"] = [0.5, 1e306, 1.0]
        d["schedules"]["sigma"] = 0.0
        path = write_cfg(tmp_path, d)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--config", path, "--threads", "1"])
        assert code == 2

    def test_runtime_abort_keeps_finished_seeds(self, tmp_path):
        # y noise near the float range: seeds diverge at different rounds;
        # every seed's CSV is written and the manifest names each abort
        d = cfg_dict(seeds=6, T=60, schedules=copy.deepcopy(EXPLICIT_SCHED))
        d["schedules"]["noise"]["y"] = {"sigma": 2e307, "varsigma": 0.05}
        cfg = parse_config(d)
        seeds = [cfg.master_seed + k for k in range(cfg.seeds)]
        for command, driver, code in (("run", run_seeds, 2),
                                      ("baseline", baseline_seeds, 0)):
            out = str(tmp_path / command)
            path = write_cfg(tmp_path, dict(d, out=out), name=f"{command}.json")
            with np.errstate(over="ignore", invalid="ignore"):
                assert main([command, "--config", path, "--threads", "1"]) == code
                alone = {s: driver(cfg.problem, cfg.topology, cfg.schedules,
                                   cfg.T, [s])[0].aborted_at for s in seeds}
            with open(os.path.join(out, "manifest.json")) as f:
                aborted = json.load(f)["aborted"]
            assert aborted == {str(s): a for s, a in alone.items() if a}
            if command == "run":
                assert 0 < len(aborted) < len(seeds)
            for s in seeds:
                with open(os.path.join(out, f"seed_{s}.csv")) as f:
                    rows = len(f.read().strip().splitlines()) - 1
                assert rows == (alone[s] or cfg.T + 1)

    def test_config_error_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, cfg_dict(bogus=1))
        assert main(["run", "--config", path, "--threads", "1"]) == 1

    def test_missing_command_usage(self):
        assert main([]) == 1


@pytest.mark.parametrize("keys, value, where", [
    (("topology", "m"), ..., "topology"),
    (("topology", "w"), "x", "topology"),
    (("schedules", "stepsize", "x", "v"), ..., "schedules.stepsize.x"),
    (("schedules", "noise", "x", "sigma"), "a", "schedules.noise.x"),
    (("schedules", "noise", "x", "sigma"), float("nan"), "schedules.noise.x"),
    (("schedules", "stepsize", "x", "lambda0"), float("inf"),
     "schedules.stepsize.x"),
    (("seeds",), "two", "config.seeds"),
    (("T",), "abc", "config.T"),
    (("schedules", "delta"), "x", "schedules.preset"),
    (("schedules", "preset"), ["corollary1-sc"], "schedules.preset"),
    (("schedules", "stepsize"), [0.5, 0.1], "schedules.stepsize"),
    (("schedules", "lambda0"), None, "schedules.lambda0"),
    (("schedules", "noise", "x", "varsigma"), float("nan"),
     "schedules.noise.x"),
    (("sensitivity", "d_l"), float("nan"), "sensitivity"),
    (("sensitivity", "d_z"), float("inf"), "sensitivity"),
    (("T",), 1.5, "config.T"),
    (("T",), True, "config.T"),
    (("seeds",), 2.7, "config.seeds"),
    (("seeds",), 0, "config.seeds"),
    (("master_seed",), -5, "config.master_seed"),
    (("master_seed",), 1.25, "config.master_seed"),
    (("topology", "m"), 3.5, "topology"),
    (("problem", "ni"), 2.5, "problem"),
    (("problem", "seed"), True, "problem"),
    (("topology", "type"), "star", "topology.type"),
    (("schedules", "stepsize"), ..., "schedules.stepsize"),
    (("schedules", "noise"), ..., "schedules.noise"),
    (("schedules", "noise", "y"), ..., "schedules.noise.y"),
    (("problem", "family"), ..., "problem.family"),
    (("problem", "family"), "linear", "problem.family"),
    (("problem",), ..., "config.problem"),
    (("schedules", "delta"), 0.1, "schedules.preset"),
    (("problem", "gamma"), "2", "problem"),
    (("topology", "w"), "0.3", "topology"),
    (("schedules", "lambda0"), [True, 1, 1], "schedules.preset"),
    (("schedules", "sigma"), ["2", 1, 1], "schedules.preset"),
    (("schedules", "delta"), "0.01", "schedules.preset"),
    (("schedules", "noise", "x", "sigma"), [1.0, "2", 1.0],
     "schedules.noise.x"),
    (("sensitivity", "L_l"), "0.7", "sensitivity"),
    (("sensitivity", "d_l"), True, "sensitivity"),
    (("problem",), {"family": "personalized", "lam": float("nan")}, "problem"),
    (("problem",), {"family": "personalized", "classes": 0}, "problem"),
    (("problem",), {"family": "personalized", "features": 0}, "problem"),
    (("problem", "ni"), 0, "problem"),
    (("problem", "r"), 0, "problem"),
    (("problem", "box"), ["-10", "10"], "problem: box"),
    (("problem", "box"), [False, True], "problem: box"),
    (("problem", "box"), [float("nan"), 1], "problem: box"),
    (("problem", "box"), "ab", "problem: box"),
    (("out",), None, "config.out"),
    (("out",), 5, "config.out"),
    (("out",), [1], "config.out"),
    (("init_radius",), float("nan"), "config.init_radius"),
    (("init_radius",), -3, "config.init_radius"),
    (("init_radius",), "3", "config.init_radius"),
], ids=["topology.m-missing", "topology.w", "stepsize.x.v-missing",
        "noise.x.sigma", "noise.x.sigma-nan", "stepsize.x.lambda0-inf",
        "seeds", "T", "delta", "preset-list", "stepsize-list",
        "lambda0-null", "noise.x.varsigma-nan", "sensitivity.d_l-nan",
        "sensitivity.d_z-inf", "T-fraction", "T-bool", "seeds-fraction",
        "seeds-zero", "master_seed-negative", "master_seed-fraction",
        "topology.m-fraction", "problem.ni-fraction", "problem.seed-bool",
        "topology.type-unknown",
        "stepsize-missing", "noise-missing", "noise.y-missing",
        "problem.family-missing", "problem.family-unknown", "problem-missing",
        "delta-inadmissible", "problem.gamma-string", "topology.w-string",
        "lambda0-bool", "sigma-string", "delta-string",
        "noise.x.sigma-list-string", "sensitivity.L_l-string",
        "sensitivity.d_l-bool", "problem.lam-nan",
        "problem.classes-zero", "problem.features-zero", "problem.ni-zero",
        "problem.r-zero", "problem.box-string", "problem.box-bool",
        "problem.box-nan", "problem.box-not-a-pair", "out-null", "out-number",
        "out-list", "init_radius-nan", "init_radius-negative",
        "init_radius-string"])
def test_bad_config_value_is_config_error(tmp_path, capsys, keys, value, where):
    # a missing (...), non-numeric, non-finite (NaN and Infinity are JSON
    # literals to Python), out-of-range or malformed value, a bool or
    # string for a real key (each per-agent element and box bound
    # included, and NaN for a box bound, which may be infinite), a bool or
    # fractional number for an integer key, a zero problem dimension, or
    # any value of a removed key such as init_radius, is one config error
    # line on the path of its block, with exit code 1
    d = cfg_dict()
    if "stepsize" in keys or "noise" in keys:
        d["schedules"] = copy.deepcopy(EXPLICIT_SCHED)
    if keys[0] == "sensitivity":
        d["sensitivity"] = copy.deepcopy(SENS)
    block = d
    for k in keys[:-1]:
        block = block[k]
    if value is ...:
        del block[keys[-1]]
    else:
        block[keys[-1]] = value
    assert main(["validate", "--config", write_cfg(tmp_path, d)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("problem, key, value", [
    (None, "init_radius", 10.0),
    ("quadratic", "coeff_scale", 0.3),
    ("personalized", "spread", 1.5),
    ("personalized", "primary_frac", 0.6),
], ids=["init_radius", "quadratic.coeff_scale", "personalized.spread",
        "personalized.primary_frac"])
def test_removed_key_is_unknown_key(tmp_path, capsys, problem, key, value):
    # the start radius and the factories' constants are not config keys:
    # set, even to the value the code uses, each is one unknown-key line
    # with exit code 1
    d = cfg_dict()
    block, path = d, f"config.{key}"
    if problem is not None:
        block = d["problem"] = {"family": problem}
        path = f"problem.{key}"
    block[key] = value
    assert main(["validate", "--config", write_cfg(tmp_path, d)]) == 1
    assert capsys.readouterr().err == f"config error: {path}: unknown key\n"


@pytest.mark.parametrize("text, fragment", [
    (None, "cannot read config"), ("{\"T\": 5", "config is not valid JSON")],
    ids=["unreadable", "invalid-json"])
def test_bad_config_file_is_config_error(tmp_path, capsys, text, fragment):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {fragment}") and len(err.splitlines()) == 1


def test_integral_numbers_are_integer_keys():
    # an integral float such as 2e2 is accepted for an integer key
    d = cfg_dict(T=2e2, seeds=2.0, master_seed=1e1)
    d["topology"]["m"] = 3.0
    d["problem"]["ni"] = 2.0
    cfg = parse_config(d)
    assert (cfg.T, cfg.seeds, cfg.master_seed) == (200, 2, 10)
    assert all(type(v) is int for v in (cfg.T, cfg.seeds, cfg.master_seed))
    assert cfg.topology.m == 3 and cfg.problem.ni == 2
    assert_same_problem(cfg.problem, parse_config(cfg_dict()).problem)


class TestCliUsageErrors:
    # each bad argument gives one error line on stderr and exit code 1
    def assert_usage_error(self, capsys, argv, fragment):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err

    @pytest.mark.parametrize("argv", [
        ["budget", "--config", "x.json", "--bogus"],
        ["run", "--config", "x.json", "--seeds", "x"],
        ["budget"],
        ["nosuch"],
        ["budget", "--config", "x.json", "--source", "recursion"],
    ], ids=["unknown-option", "bad-int", "missing-config", "unknown-command",
            "removed-source"])
    def test_argument_error_exits_1(self, capsys, argv):
        # argparse's own rejections are usage errors too, not its exit 2
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["abc", "-3"])
    def test_budget_bad_horizon(self, tmp_path, capsys, horizon):
        path = write_cfg(tmp_path, cfg_dict(sensitivity=copy.deepcopy(SENS),
                                            schedules=copy.deepcopy(EXPLICIT_SCHED)))
        self.assert_usage_error(
            capsys, ["budget", "--config", path, "--horizon", horizon],
            "--horizon")

    @pytest.mark.parametrize("window", ["1,2,3", "a,b"])
    def test_analyze_bad_window(self, tmp_path, capsys, window):
        write_manifest(tmp_path, [1])
        (tmp_path / "seed_1.csv").write_text(
            "t,err_to_opt_sq\n" + "".join(f"{t},{1.0 / (t + 1)}\n"
                                          for t in range(20)))
        self.assert_usage_error(
            capsys, ["analyze", "--in", str(tmp_path), "--metric",
                     "err_to_opt_sq", "--window", window], "--window")

    @pytest.mark.parametrize("command", ["run", "baseline"])
    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_run_nonpositive_seeds(self, tmp_path, capsys, command, seeds):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, cfg_dict(out=str(out)))
        self.assert_usage_error(
            capsys, [command, "--config", path, "--seeds", seeds,
                     "--threads", "1"], "--seeds")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "baseline"])
    def test_run_negative_threads(self, tmp_path, capsys, command):
        # 0 means every core; a negative count is a usage error
        out = tmp_path / "out"
        path = write_cfg(tmp_path, cfg_dict(out=str(out)))
        self.assert_usage_error(
            capsys, [command, "--config", path, "--threads", "-3"], "--threads")
        assert not out.exists()

    @pytest.mark.parametrize("files, metric, fragment", [
        ({"other.csv": "t,x\n0,1\n"}, "err_to_opt_sq", "no seed CSVs"),
        ({"seed_1.csv": "t,err_to_opt_sq\n1,1\n2,0.5\n"}, "F_gap",
         "'F_gap' not in seed_1.csv"),
        ({"seed_1.csv": "t,err_to_opt_sq\n1,1\n2,0.5\n"}, "err_to_opt_sq",
         "sampled points"),
        ({"seed_1.csv": "t,err_to_opt_sq\n1,1\n2,abc\n"}, "err_to_opt_sq",
         "seed_1.csv: could not convert string to float: 'abc'"),
        ({"seed_1.csv": "t,err_to_opt_sq\n1,1\n2,0.5,7\n"}, "err_to_opt_sq",
         "seed_1.csv: a row without the 2 header fields"),
        ({"seed_1.csv": "t,err_to_opt_sq\n"}, "err_to_opt_sq",
         "need at least 5 sampled points in the window"),
        ({"seed_1.csv": "x,err_to_opt_sq\n1,1\n2,0.5\n"}, "err_to_opt_sq",
         "column 't' not in seed_1.csv"),
    ], ids=["no-seed-csv", "unknown-metric", "fit-error", "non-numeric",
            "ragged-row", "header-only", "no-t-column"])
    def test_analyze_usage_errors(self, tmp_path, capsys, files, metric,
                                  fragment):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        write_manifest(tmp_path, [int(name[5:-4]) for name in files
                                  if name.startswith("seed_")])
        self.assert_usage_error(
            capsys, ["analyze", "--in", str(tmp_path), "--metric", metric],
            fragment)

    def test_analyze_names_seed_on_another_grid(self, tmp_path, capsys):
        # the diverging config of test_runtime_abort_keeps_finished_seeds:
        # an aborted seed's CSV ends early, so its t column differs from
        # the first file's and analyze names it
        out = str(tmp_path / "out")
        d = cfg_dict(seeds=6, T=60, out=out,
                     schedules=copy.deepcopy(EXPLICIT_SCHED))
        d["schedules"]["noise"]["y"] = {"sigma": 2e307, "varsigma": 0.05}
        path = write_cfg(tmp_path, d)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", path, "--threads", "1"]) == 2
        capsys.readouterr()
        with open(os.path.join(out, "manifest.json")) as f:
            aborted = json.load(f)["aborted"]
        # equal abort iterations (None: complete) mean equal t columns
        ends = [aborted.get(str(s)) for s in range(11, 17)]
        other = 11 + next(k for k, a in enumerate(ends) if a != ends[0])
        self.assert_usage_error(
            capsys, ["analyze", "--in", out, "--metric", "consensus_x"],
            f"seed_{other}.csv")

    @pytest.mark.parametrize("horizon", ["inf", "1000"])
    def test_budget_zero_sigma(self, tmp_path, capsys, horizon):
        d = cfg_dict(sensitivity=copy.deepcopy(SENS),
                     schedules=copy.deepcopy(EXPLICIT_SCHED))
        d["schedules"]["noise"]["x"]["sigma"] = 0.0
        self.assert_usage_error(
            capsys, ["budget", "--config", write_cfg(tmp_path, d),
                     "--horizon", horizon], "positive noise scales")

    def test_budget_closed_form_without_constants(self, tmp_path, capsys):
        # v_z < v_y admits no closed-form constants: the infinite horizon
        # table still has a row per agent, with bound_inf +inf
        d = cfg_dict(sensitivity=copy.deepcopy(SENS),
                     schedules=copy.deepcopy(EXPLICIT_SCHED))
        d["schedules"]["stepsize"]["y"]["v"] = 0.2
        path = write_cfg(tmp_path, d)
        assert main(["budget", "--config", path, "--horizon", "inf"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == [f"{i},,,,,inf" for i in range(3)]

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_calibrate_nonfinite_epsilon(self, tmp_path, capsys, epsilon):
        # nan would write "sigma": NaN, which is not JSON; inf writes
        # sigma = 0, which budget refuses
        out = tmp_path / "calibrated.json"
        path = write_cfg(tmp_path, cfg_dict(sensitivity=copy.deepcopy(SENS),
                                            schedules=copy.deepcopy(EXPLICIT_SCHED)))
        self.assert_usage_error(
            capsys, ["calibrate", "--config", path, "--epsilon", epsilon,
                     "--out", str(out)], "finite and positive")
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["1e-300", "5e-324"])
    def test_calibrate_scale_past_float_range(self, tmp_path, capsys, epsilon):
        # sigma ~ C / (gap * epsilon) overflows to inf (which would write
        # "sigma": Infinity, a config no command loads) or divides by an
        # underflowed zero; either is one error line, and nothing is written
        out = tmp_path / "calibrated.json"
        src = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "quadratic_sc.json")
        self.assert_usage_error(
            capsys, ["calibrate", "--config", src, "--epsilon", epsilon,
                     "--out", str(out)], "beyond the float range")
        assert not out.exists()

    def test_calibrate_out_in_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "calibrated.json")
        path = write_cfg(tmp_path, cfg_dict(sensitivity=copy.deepcopy(SENS),
                                            schedules=copy.deepcopy(EXPLICIT_SCHED)))
        self.assert_usage_error(
            capsys, ["calibrate", "--config", path, "--epsilon", "1",
                     "--out", out], f"cannot write {out}")

    @pytest.mark.parametrize("command", ["run", "baseline"])
    def test_run_out_under_a_file(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "sub")
        self.assert_usage_error(
            capsys, [command, "--config", write_cfg(tmp_path, cfg_dict()),
                     "--out", out, "--threads", "1"], f"cannot create {out}")

    @pytest.mark.parametrize("command", ["run", "baseline"])
    @pytest.mark.parametrize("name", ["seed_12.csv", "aggregate.csv",
                                      "manifest.json"])
    def test_run_output_is_a_directory(self, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        path = write_cfg(tmp_path, cfg_dict(T=20, out=str(out)))
        self.assert_usage_error(
            capsys, [command, "--config", path, "--threads", "1"],
            f"cannot write {out / name}")

    def test_analyze_mean_csv_is_a_directory(self, tmp_path, capsys):
        write_manifest(tmp_path, [1])
        (tmp_path / "seed_1.csv").write_text(
            "t,err_to_opt_sq\n" + "".join(f"{t},{1.0 / (t + 1)}\n"
                                          for t in range(20)))
        out = tmp_path / "mean_err_to_opt_sq.csv"
        out.mkdir()
        self.assert_usage_error(
            capsys, ["analyze", "--in", str(tmp_path), "--metric",
                     "err_to_opt_sq"], f"cannot write {out}")

    @pytest.mark.parametrize("manifest, fragment", [
        (None, "cannot read {dir}/manifest.json"),
        ("{", "manifest.json holds no list of integer seeds"),
        ('{"seeds": 3}', "manifest.json holds no list of integer seeds"),
        ('{"seeds": "12"}', "manifest.json holds no list of integer seeds"),
        ('{"seeds": [1.9, 2]}', "manifest.json holds no list of integer seeds"),
        ('{"seeds": [true, 2]}', "manifest.json holds no list of integer seeds"),
        ('{"seeds": [1, 1.0]}', "manifest.json lists a seed twice"),
        ('{"seeds": [1, 2]}', "cannot read {dir}/seed_2.csv"),
    ], ids=["missing", "not-json", "not-a-list", "a-string", "a-fraction",
            "a-bool", "repeated", "missing-seed-csv"])
    def test_analyze_reads_the_manifest_seeds(self, tmp_path, capsys,
                                              manifest, fragment):
        (tmp_path / "seed_1.csv").write_text(
            "t,err_to_opt_sq\n" + "".join(f"{t},{1.0 / (t + 1)}\n"
                                          for t in range(20)))
        if manifest is not None:
            (tmp_path / "manifest.json").write_text(manifest)
        self.assert_usage_error(
            capsys, ["analyze", "--in", str(tmp_path), "--metric",
                     "err_to_opt_sq"], fragment.format(dir=tmp_path))

    def test_analyze_missing_directory(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        self.assert_usage_error(
            capsys, ["analyze", "--in", missing, "--metric", "err_to_opt_sq"],
            missing)


class TestCliBudget:
    def test_budget_table(self, tmp_path, capsys):
        path = write_cfg(tmp_path, cfg_dict(sensitivity=copy.deepcopy(SENS),
                                            schedules=copy.deepcopy(EXPLICIT_SCHED)))
        assert main(["budget", "--config", path, "--horizon", "100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "agent,eps_x,eps_y,eps_z,eps_total,bound_inf"
        assert len(lines) == 4
        row = lines[1].split(",")
        total = float(row[4])
        assert total == pytest.approx(sum(float(v) for v in row[1:4]), rel=1e-12)

    def test_budget_infinite_horizon(self, tmp_path, capsys):
        path = write_cfg(tmp_path, cfg_dict(sensitivity=copy.deepcopy(SENS),
                                            schedules=copy.deepcopy(EXPLICIT_SCHED)))
        assert main(["budget", "--config", path, "--horizon", "inf"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        bound = float(lines[1].split(",")[-1])
        assert np.isfinite(bound) and bound > 0

    def test_budget_rows_match_per_agent_budget(self, tmp_path, capsys,
                                                one_agent_budget):
        d = cfg_dict(sensitivity=copy.deepcopy(SENS),
                     schedules=copy.deepcopy(MIXED_SCHED))
        path = write_cfg(tmp_path, d)
        assert main(["budget", "--config", path, "--horizon", "300"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cfg = parse_config(d)
        s = cfg.schedules
        assert len(lines) == 4
        for i in range(3):
            acct = one_agent_budget(300, cfg.sensitivity, s.noise_x[i],
                                    s.noise_y[i], s.noise_z[i])
            expect = ",".join([str(i)] + ["%.17g" % v for v in (
                acct.eps_x, acct.eps_y, acct.eps_z, acct.eps_total,
                acct.bound_inf)])
            assert lines[i + 1] == expect

    @pytest.mark.parametrize("name,command", [
        (name, command) for name, runs in sorted(ACCOUNTANT_STDOUT.items())
        for command in runs])
    def test_shipped_config_accountant_stdout(self, capsys, name, command):
        # every line and every digit of the table or the patched config,
        # as recorded
        path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
        cmd, *args = command.split()
        assert main([cmd, "--config", path, *args]) == 0
        want = "".join(line + "\n" for line in ACCOUNTANT_STDOUT[name][command])
        assert capsys.readouterr().out == want

    def test_budget_runs_recursion_once(self, tmp_path, monkeypatch):
        calls = []
        real = privacy.sensitivity_trajectory

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(privacy, "sensitivity_trajectory", counted)
        path = write_cfg(tmp_path, cfg_dict(sensitivity=copy.deepcopy(SENS),
                                            schedules=copy.deepcopy(MIXED_SCHED)))
        assert main(["budget", "--config", path, "--horizon", "100"]) == 0
        assert calls == [100]

    def test_budget_requires_sensitivity(self, tmp_path):
        path = write_cfg(tmp_path, cfg_dict())
        assert main(["budget", "--config", path, "--horizon", "10"]) == 1


class TestCliCalibrate:
    def test_calibrate_patches_config(self, tmp_path, capsys):
        path = write_cfg(tmp_path, cfg_dict(sensitivity=copy.deepcopy(SENS),
                                            schedules=copy.deepcopy(EXPLICIT_SCHED)))
        out = str(tmp_path / "calibrated.json")
        assert main(["calibrate", "--config", path, "--epsilon", "1.0",
                     "--out", out]) == 0
        with open(out) as f:
            patched = json.load(f)
        sig = patched["schedules"]["noise"]["x"]["sigma"]
        assert sig > 0
        # patched config parses and the budget respects the target
        cfg = parse_config(patched)
        from ldpagg.privacy import infinite_horizon_bound
        bound = infinite_horizon_bound(cfg.sensitivity,
                                       cfg.schedules.noise_x[0],
                                       cfg.schedules.noise_y[0],
                                       cfg.schedules.noise_z[0])
        assert bound <= 1.0 + 1e-9

    def test_calibrate_bounds_every_agent(self, tmp_path):
        d = cfg_dict(sensitivity=copy.deepcopy(SENS),
                     schedules=copy.deepcopy(EXPLICIT_SCHED))
        d["schedules"]["noise"]["x"]["varsigma"] = [0.03, 0.5, 0.7]
        path = write_cfg(tmp_path, d)
        out = str(tmp_path / "calibrated.json")
        assert main(["calibrate", "--config", path, "--epsilon", "1.0",
                     "--out", out]) == 0
        with open(out) as f:
            cfg = parse_config(json.load(f))
        s = cfg.schedules
        bounds = [privacy.infinite_horizon_bound(cfg.sensitivity, s.noise_x[i],
                                                 s.noise_y[i], s.noise_z[i])
                  for i in range(3)]
        assert max(bounds) <= 1.0 + 1e-9
        # the agent with the largest varsigma (smallest gap) meets it exactly
        assert bounds[2] == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("epsilon", [1.0, 0.25])
    def test_calibrate_preset_round_trip(self, tmp_path, capsys, epsilon):
        # a preset config gets one sigma triple; budget --horizon inf on
        # the written config reads epsilon back, and without --out the
        # same config goes to stdout
        src = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "quadratic_sc.json")
        out = tmp_path / "calibrated.json"
        assert main(["calibrate", "--config", src, "--epsilon", str(epsilon),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["calibrate", "--config", src, "--epsilon", str(epsilon)]) == 0
        assert capsys.readouterr().out == out.read_text()
        patched = json.loads(out.read_text())
        assert "noise" not in patched["schedules"]
        assert len(patched["schedules"]["sigma"]) == 3
        assert main(["budget", "--config", str(out), "--horizon", "inf"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            assert float(row.split(",")[-1]) == pytest.approx(epsilon, rel=1e-12)

    def test_calibrate_rejects_closed_gap(self, tmp_path):
        d = cfg_dict(sensitivity=copy.deepcopy(SENS),
                     schedules=copy.deepcopy(EXPLICIT_SCHED))
        d["schedules"]["noise"]["x"]["varsigma"] = 0.9
        path = write_cfg(tmp_path, d)
        assert main(["calibrate", "--config", path, "--epsilon", "1.0"]) == 1


class TestCliValidate:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, cfg_dict())
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "rate exponent" in out

    def test_validate_reports_failures(self, tmp_path, capsys):
        d = cfg_dict(schedules=copy.deepcopy(EXPLICIT_SCHED), case="cvx")
        path = write_cfg(tmp_path, d)
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" in out

    @pytest.mark.parametrize("name", sorted(VALIDATE_STDOUT))
    def test_shipped_config_validate_stdout(self, capsys, name):
        # every line, its order and every digit, as recorded
        path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
        assert main(["validate", "--config", path]) == 0
        want = "".join(line + "\n" for line in VALIDATE_STDOUT[name])
        assert capsys.readouterr().out == want

    def test_bundled_configs_validate(self, capsys):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        paths = glob.glob(os.path.join(root, "*.json"))
        assert paths
        for path in paths:
            assert main(["validate", "--config", path]) == 0, path


def per_value_csv(path, ts, columns, extra=None):
    """The CSV writer as a per-value join of "%.17g" % float(v), the oracle
    of _write_csv's bytes."""
    names = [c for c in _COLUMN_ORDER if c == "t" or c in columns]
    extra_names = sorted(extra) if extra else []
    with open(path, "w") as f:
        f.write(",".join(names + extra_names) + "\n")
        for k in range(len(ts)):
            vals = [ts[k] if c == "t" else columns[c][k] for c in names]
            vals += [extra[c][k] for c in extra_names]
            f.write(",".join("%.17g" % float(v) for v in vals) + "\n")


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                    2.2250738585072004e-308, 1e300, -1e300, 1.7976931348623157e308,
                    0.1, 1 / 3, 2.0 ** 53 + 2, 1e-5, 123456.0])


def csv_cases():
    n, rng = len(SPECIAL), np.random.default_rng(5)
    columns = {"err_to_opt_sq": SPECIAL, "consensus_x": rng.permutation(SPECIAL),
               "F_gap": rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n),
               "F_gap_runmean": -SPECIAL[::-1],
               "tracker_err": list(rng.permutation(SPECIAL))}
    # eps columns on the full grid: longer than an aborted seed's rows,
    # and a10 sorts before a2
    eps = {f"eps_cum_a{i}": np.cumsum(rng.random(n + 4)) for i in range(12)}
    ts = np.arange(n) * 7  # an integer t column
    return {"all": (ts, columns, eps), "no extras": (ts, columns, None),
            "float t, extras only": (ts.astype(float), {}, eps),
            "aborted": (ts[:5], {c: v[:5] for c, v in columns.items()}, eps),
            "no rows": (ts[:0], {c: v[:0] for c, v in columns.items()}, eps)}


@pytest.mark.parametrize("case", sorted(csv_cases()))
def test_write_csv_bytes_equal_per_value_join(tmp_path, case):
    ts, columns, extra = csv_cases()[case]
    _write_csv(str(tmp_path / "a.csv"), ts, columns, extra)
    per_value_csv(str(tmp_path / "b.csv"), ts, columns, extra)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_analyze_mean_csv_bytes_equal_per_value_join(tmp_path, capsys):
    # values before the fit window carry NaN, inf, a subnormal and 1e300
    # into the cross-seed mean (-0.0 comes out of np.mean as +0.0); the fit
    # reads only t in [10, 1000]
    ts = np.array([0, 1, 2, 3, 4, 100, 200, 300, 400, 500, 1000])
    fit = 1.0 / ts[5:]
    a = np.concatenate([[np.nan, np.inf, -0.0, 5e-324, 1e300], fit])
    b = np.concatenate([[1.0, 2.0, -0.0, 5e-324, 1e300], 3 * fit])
    for seed, v in ((1, a), (2, b)):
        per_value_csv(str(tmp_path / f"seed_{seed}.csv"), ts, {"F_gap": v})
    write_manifest(tmp_path, [1, 2])
    assert main(["analyze", "--in", str(tmp_path), "--metric", "F_gap"]) == 0
    capsys.readouterr()
    want = str(tmp_path / "want.csv")
    # analyze's mean of the two series, as parsed back from the CSVs
    per_value_csv(want, ts.astype(float), {},
                  {"F_gap": np.stack([a, b]).mean(axis=0)})
    got = (tmp_path / "mean_F_gap.csv").read_bytes()
    assert got == open(want, "rb").read()
    assert b",nan\n" in got and b",inf\n" in got
