"""Drive the ldpagg CLI in-process, check its outputs, and derive metrics.

Importing this module pins BLAS to one thread for the whole process,
before numpy loads, so the numbers describe the program and not the
scheduler.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
GOLDEN = os.path.join(BENCH, "golden.json")
if not os.path.isdir(os.path.join(ROOT, "src", "ldpagg")):
    raise ImportError(f"no ldpagg sources under {ROOT}/src")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

cli = importlib.import_module("ldpagg.cli")
config = importlib.import_module("ldpagg.config")

COMMANDS = ("run", "baseline", "budget")
END_TO_END = {"setup_s": "s", "run_s": "s", "baseline_s": "s",
              "budget_s": "s", "peak_rss_mb": "MB"}
SETUP_ROUNDS = 8
SETUP_ROUND_S = 0.1
# Probe time that end-to-end times are scaled to (see Probe).
PROBE_REFERENCE_S = 0.1


class Probe:
    """Fixed CPU work that tracks how fast this machine runs right now.

    On shared hosts the speed of a core drifts by a factor of two or more
    over seconds, and a command slows with it. The probe mixes the
    program's kinds of work (an interpreted float loop, small-array numpy
    calls, a per-row loop over a (200, 400) state with elementwise
    updates, and the BLAS product of a 200-agent consensus step) and is
    timed before and after every command. End-to-end times are reported
    as seconds * PROBE_REFERENCE_S / probe seconds, i.e. in seconds at
    the speed where the probe takes PROBE_REFERENCE_S. Raw times are kept
    in the result file.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((5, 10))
        self.rows = rng.random((5, 2))
        self.weights = rng.random((200, 200))
        self.state = rng.random((200, 400))
        self.stream = rng.random(4096)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200000):
            acc += i * 0.5
        x = self.small
        for _ in range(2000):
            y = x + 0.1 * np.sign(x) * np.log(np.maximum(1.0 - np.abs(x - 0.5), 1e-300))
            x = np.clip(0.5 * y.mean(axis=0)[None, :] + 0.5 * x, -1.0, 1.0)
            np.linalg.norm(self.rows, axis=1)
        X = self.state
        for _ in range(30):
            for i in range(200):
                self.stream[i:i + 400] - 0.5
            Y = np.clip(X + self.weights @ X - 0.01 * X, -1.0, 1.0)
            np.sum((Y - Y.mean(axis=0)) ** 2)
        return time.perf_counter() - t0


@dataclass
class Op:
    """One CLI invocation: what ran, how long it took, what it produced."""

    command: str
    rc: int | None
    seconds: float
    stdout: str
    stderr: str
    out_dir: str
    spans: spans.Spans | None = None
    probe_s: float | None = None  # mean probe time around the command
    problems: list = field(default_factory=list)

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * PROBE_REFERENCE_S / self.probe_s


def command_argv(command, w, inputs, out_dir):
    if command == "budget":
        return ["budget", "--config", inputs.budget_config,
                "--horizon", str(w.horizon)]
    return [command, "--config", inputs.run_config, "--out", out_dir,
            "--threads", "1"]


def call_cli(argv):
    """Run `ldpagg <argv>` in this process; (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects arguments by exiting
            rc = e.code if isinstance(e.code, int) else int(e.code is not None)
        except Exception:
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - t0
    return rc, seconds, out.getvalue(), err.getvalue()


def run_cycle(w, inputs, work, tracer=None, probe=None):
    """One closed-loop cycle: run, baseline, budget, each after the last returns.

    With a probe, it is timed before and after every command.
    """
    ops = []
    before = probe() if probe else None
    for command in COMMANDS:
        out_dir = os.path.join(work, command)
        shutil.rmtree(out_dir, ignore_errors=True)
        rc, seconds, stdout, stderr = call_cli(
            command_argv(command, w, inputs, out_dir))
        op = Op(command, rc, seconds, stdout, stderr, out_dir,
                tracer.take() if tracer else None)
        if probe:
            after = probe()
            op.probe_s = (before + after) / 2
            before = after
        ops.append(op)
    return ops


# -- output checks -----------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(op) -> dict:
    """sha256 of the budget table, or of every CSV a simulator command wrote."""
    if op.command == "budget":
        return {"stdout": _sha256(op.stdout.encode())}
    if not os.path.isdir(op.out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(op.out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(op.out_dir, name), "rb") as f:
                out[name] = _sha256(f.read())
    return out


def _read_table(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def check(op, w, expected) -> list:
    """Problems with one command's outputs; empty when it is correct.

    expected holds the golden digests; None skips that comparison (used
    while recording them).
    """
    if op.rc != 0:
        return [f"{op.command}: exit code {op.rc}: {op.stderr.strip()[-300:]}"]
    problems = []
    got = digests(op)
    if expected is not None and got != expected:
        bad = sorted(k for k in set(got) | set(expected)
                     if got.get(k) != expected.get(k))
        problems.append(f"{op.command}: output differs from golden: {bad}")
    if op.command == "budget":
        tables = {"stdout": op.stdout}
    else:
        if len(got) != w.seeds + 1:
            problems.append(f"{op.command}: {len(got)} CSVs, expected "
                            f"{w.seeds} seeds plus aggregate.csv")
        try:
            with open(os.path.join(op.out_dir, "manifest.json")) as f:
                aborted = json.load(f)["aborted"]
        except (OSError, ValueError, KeyError) as e:
            return problems + [f"{op.command}: unreadable manifest: {e}"]
        if aborted:
            problems.append(f"{op.command}: aborted seeds {aborted}")
        tables = {}
        for name in got:
            with open(os.path.join(op.out_dir, name)) as f:
                tables[name] = f.read()
    for name, text in tables.items():
        try:
            header, data = _read_table(text)
        except (ValueError, IndexError) as e:
            problems.append(f"{op.command}/{name}: unreadable table: {e}")
            continue
        if data.size == 0 or not np.all(np.isfinite(data)):
            problems.append(f"{op.command}/{name}: empty or non-finite values")
        elif (op.command == "run" and w.quadratic
              and not data[-1, header.index("err_to_opt_sq")]
              < data[0, header.index("err_to_opt_sq")]):
            problems.append(f"{op.command}/{name}: err_to_opt_sq at T is not "
                            "below its t = 0 value")
    return problems


def load_golden(w):
    """Golden digests of w by offset; raises if they were recorded for other inputs."""
    with open(GOLDEN) as f:
        entry = json.load(f)["workloads"][w.name]
    if entry["spec"] != spec_dict(w):
        raise ValueError(f"golden digests of {w.name} were recorded for "
                         f"{entry['spec']}, not {spec_dict(w)}")
    return entry["offsets"]


def spec_dict(w):
    return {k: getattr(w, k) for k in ("base", "T", "seeds", "horizon", "m",
                                       "run_sensitivity")}


def record(w, work):
    """Golden digests of every offset of w; raises if an output check fails."""
    offsets = {}
    for inputs in workloads.write_configs(w, ROOT, os.path.join(work, "configs")):
        ops = run_cycle(w, inputs, work)
        problems = [p for op in ops for p in check(op, w, None)]
        if problems:
            raise RuntimeError(f"{w.name} offset {inputs.offset}: {problems}")
        offsets[str(inputs.offset)] = {op.command: digests(op) for op in ops}
    return {"spec": spec_dict(w), "offsets": offsets}


# -- measurement -------------------------------------------------------------

def measure_setup(config_path, probe):
    """Time everything before iteration 0: config load plus x_star/F_star.

    Sets up repeatedly in SETUP_ROUNDS rounds of about SETUP_ROUND_S each,
    with the probe timed between rounds. Returns the medians over rounds
    of (raw seconds, probe-scaled seconds).
    """
    raw, scaled = [], []
    before = probe()
    for _ in range(SETUP_ROUNDS):
        times = []
        stop = time.perf_counter() + SETUP_ROUND_S
        while len(times) < 3 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            cfg = config.load_config(config_path)
            if cfg.problem.has_optimizer:
                cfg.problem.x_star
                cfg.problem.F_star
            times.append(time.perf_counter() - t0)
        after = probe()
        raw.append(statistics.median(times))
        scaled.append(raw[-1] * PROBE_REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(raw), statistics.median(scaled)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict     # {name: (value, unit)} that the result line reports
    end_to_end: dict  # {name: (value, unit)}, also kept for a traced run
    raw: dict         # unscaled medians and the median probe time
    problems: list

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in self.metrics.items()}})


def measure(w, golden, seed, seconds, trace, work):
    """Closed loop of cycles for `seconds`; end-to-end or (trace) per-layer metrics.

    Per-layer numbers are raw; end-to-end ones are probe-scaled and are
    also kept for a traced run, to show the tracing overhead.
    """
    cycles_in = workloads.write_configs(w, ROOT, os.path.join(work, "configs"))
    probe = Probe()
    setup_raw, setup_s = measure_setup(cycles_in[0].run_config, probe)
    rng = random.Random(seed)
    tracer = spans.Tracer() if trace else None
    all_ops, layer_rows, first_run_spans = [], [], None
    if tracer:
        tracer.install()
    try:
        stop = time.perf_counter() + seconds
        while not all_ops or time.perf_counter() < stop:
            inputs = cycles_in[rng.randrange(workloads.OFFSETS)]
            ops = run_cycle(w, inputs, work, tracer, probe)
            for op in ops:
                op.problems = check(op, w, golden[str(inputs.offset)][op.command])
            if tracer:
                layer_rows.append(layer_metrics(w, ops))
                if first_run_spans is None:
                    first_run_spans = ops[0].spans
                for op in ops:
                    op.spans = None
            all_ops.extend(ops)
    finally:
        if tracer:
            tracer.uninstall()
    for command in ("run", "baseline"):
        shutil.rmtree(os.path.join(work, command), ignore_errors=True)
    if first_run_spans is not None:
        first_run_spans.save(os.path.join(work, "spans_run.npz"))

    def median_of(command, attr):
        return statistics.median(getattr(op, attr) for op in all_ops
                                 if op.command == command)

    raw = {"cycles": len(all_ops) // len(COMMANDS), "setup_s": setup_raw,
           "probe_s": statistics.median(op.probe_s for op in all_ops)}
    raw.update({f"{c}_s": median_of(c, "seconds") for c in COMMANDS})
    values = {f"{c}_s": median_of(c, "scaled_seconds") for c in COMMANDS}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {k: (values[k], u) for k, u in END_TO_END.items()}
    problems = [p for op in all_ops for p in op.problems]
    return Result(correct=not problems, attempted=len(all_ops),
                  failed=sum(1 for op in all_ops if op.problems),
                  metrics=summarise_layers(layer_rows) if trace else end_to_end,
                  end_to_end=end_to_end, raw=raw, problems=problems)


# -- per-layer metrics from the traced cycles ----------------------------------

COUNT, INCL, SELF = 0, 1, 2
NOISE = {"schedules.LaplaceStream.draw_centered", "schedules.laplace_from_uniform",
         "schedules.NoiseSchedule.laplace_param"}


def _sum(fold, name, parent=lambda p: True, field=INCL):
    """Sum one field over the (name, parent) keys both predicates accept."""
    return sum(v[field] for (n, p), v in fold.items() if name(n) and parent(p))


def _is(*names):
    return lambda n: n in names


def _ends(*suffixes):
    return lambda n: n.startswith("problems.") and n.endswith(suffixes)


def layer_metrics(w, ops):
    """Per-layer metrics of one traced cycle: {name: (value, unit)}."""
    f = {op.command: op.spans.fold() for op in ops}
    run, base, bud = f["run"], f["baseline"], f["budget"]
    iters = w.seeds * w.T
    rounds = w.seeds * (w.T + 1)  # broadcast frames: one before iteration 0
    us = 1e6 / iters
    erm = _ends(".erm_eval", ".grad_f_x", ".grad_f_y", ".grad_g_dot")
    truth = _ends(".F_true", ".grad_F_true", ".g_true")
    in_loop = _is("algorithm.run", "analysis.metric_eval")
    m = {
        "schedules.noise_draw_us_per_iter": (
            _sum(run, NOISE.__contains__, _is("algorithm.run")) * us, "us"),
        "schedules.draw_centered_calls_per_iter": (
            _sum(run, _is("schedules.LaplaceStream.draw_centered"),
                 _is("algorithm.run"), COUNT) / rounds, "count"),
        "schedules.laplace_param_calls": (
            sum(_sum(x, _is("schedules.NoiseSchedule.laplace_param"), field=COUNT)
                for x in f.values()), "count"),
        "problems.erm_us_per_iter": (
            _sum(run, erm, lambda p: p is None or not erm(p)) * us, "us"),
        "problems.erm_calls_per_iter": (
            _sum(run, _ends(".erm_eval"), field=COUNT) / iters, "count"),
        "problems.erm_calls_per_iter_baseline": (
            _sum(base, _ends(".erm_eval"), field=COUNT) / iters, "count"),
        "problems.truth_us_per_iter": (_sum(run, truth, in_loop) * us, "us"),
        "problems.F_true_calls": (_sum(run, _ends(".F_true"), field=COUNT), "count"),
        "problems.data_draw_us_per_iter": (_sum(run, _ends(".draw")) * us, "us"),
        "problems.l_audit_s": (_sum(run, _ends(".sample_l_norm1")), "s"),
        "algorithm.iterate_self_us_per_iter": (
            _sum(run, _is("algorithm.iterate"), field=SELF) * us, "us"),
        "algorithm.driver_self_us_per_iter": (
            _sum(run, _is("algorithm.run"), field=SELF) * us, "us"),
        "algorithm.baseline_self_us_per_iter": (
            _sum(base, _is("algorithm.baseline_gradient_tracking"), field=SELF) * us,
            "us"),
        "algorithm.us_per_iter": (  # the loop alone: x_star/F_star are set-up
            (_sum(run, _is("algorithm.run"))
             - _sum(run, _ends(".x_star", ".F_star"), _is("algorithm.run"))) * us,
            "us"),
        "privacy.sensitivity_trajectory_s": (
            sum(_sum(x, _is("privacy.sensitivity_trajectory")) for x in f.values()),
            "s"),
        "privacy.budget_s": (_sum(bud, _is("privacy.budget")), "s"),
        "cli.self_s": (_sum(run, _is("cli.main"), field=SELF), "s"),
        "cli.bytes_written": (sum(
            os.path.getsize(os.path.join(op.out_dir, name))
            for op in ops[:2] for name in digests(op)), "count"),
        "config.load_s": (_sum(run, _is("config.load_config")), "s"),
        "reference.x_star_s": (_sum(run, _is("reference.centralized_minimize")), "s"),
        "analysis.metric_eval_s": (_sum(run, _is("analysis.metric_eval")), "s"),
        "analysis.snapshots": (
            _sum(run, _is("analysis.metric_eval"), field=COUNT), "count"),
    }
    for layer in (x for x in spans.LAYERS if x != "cli"):  # cli.self_s above
        m[f"{layer}.run_self_s"] = (
            _sum(run, lambda n: n.startswith(layer + "."), field=SELF), "s")
    m["trace.spans_per_run"] = (len(ops[0].spans), "count")
    return m


def summarise_layers(rows):
    """Counts from the first cycle, whose inputs --seed fixes, so they repeat
    exactly from run to run; timings as medians over all cycles."""
    out = {}
    for name, (value, unit) in rows[0].items():
        if unit != "count":
            value = statistics.median(r[name][0] for r in rows)
        out[name] = (value, unit)
    return out


# -- environment ----------------------------------------------------------------

def _openblas_threads():
    """Thread count OpenBLAS reports in this process, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def _cache_sizes():
    sizes = {}
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(d, "type")) as f:
                kind = {"Data": "d", "Instruction": "i"}.get(f.read().strip(), "")
            with open(os.path.join(d, "size")) as f:
                sizes[f"L{level}{kind}"] = f.read().strip()
        except OSError:
            continue
    return sizes


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    src = glob.glob(os.path.join(ROOT, "src", "ldpagg", "*.py"))
    lines = 0
    for path in src:
        with open(path) as f:
            lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": _openblas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "cache": _cache_sizes(),
        "git_commit": _git_commit(),
        "src_ldpagg_lines": lines,
    }

