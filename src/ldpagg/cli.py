"""Command-line entry point: run, baseline, budget, calibrate, analyze, validate.

Exit codes: 0 success, 1 validation/usage failure, 2 runtime abort.
All floating-point output uses 17 significant digits (round-trip exact),
and results are independent of --threads.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .algorithm import baseline_seeds, run_seeds
from .analysis import fit_rate, sampling_grid
from .config import ConfigError, _integer, load_config, with_noise_scales
from .privacy import budgets, calibrate_noise, eps_at

_COLUMN_ORDER = ["t", "err_to_opt_sq", "F_gap", "F_gap_runmean",
                 "grad_norm_sq", "consensus_x", "consensus_y",
                 "consensus_z", "tracker_err"]


class _UsageError(Exception):
    """A bad argument: main prints it as an error line and returns 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with exit 1, not 2, for an argument error; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    return "%.17g" % float(x)


@contextlib.contextmanager
def _writing(path):
    """open(path, "w"), with an OSError from opening or writing it
    reported as one usage error naming path."""
    try:
        with open(path, "w") as f:
            yield f
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e.strerror}") from None


def _write_csv(path, ts, columns):
    """t, then the columns in _COLUMN_ORDER, then the rest by name (one
    named t too), len(ts) rows; each row is one % of a "%.17g,...,%.17g"
    template on Python floats, so its fields are the strings _fmt gives."""
    names = [c for c in _COLUMN_ORDER[1:] if c in columns]
    names += sorted(set(columns) - set(names))
    cols = [np.asarray(c, dtype=float)[:len(ts)].tolist()
            for c in [ts] + [columns[c] for c in names]]
    template = ",".join(["%.17g"] * len(cols)) + "\n"
    with _writing(path) as f:
        f.write(",".join(["t"] + names) + "\n")
        f.write("".join(template % row for row in zip(*cols)))


def _read_csv(path):
    try:
        with open(path) as f:
            header = f.readline().strip().split(",")
            rows = [line.strip().split(",") for line in f if line.strip()]
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}") from None
    if any(len(row) != len(header) for row in rows):
        raise _UsageError(f"{path}: a row without the {len(header)} header fields")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as e:  # a field that is not a number
        raise _UsageError(f"{path}: {e}") from None
    return header, data.reshape(len(rows), len(header))


def _cmd_run(args):
    if args.seeds is not None and args.seeds < 1:
        raise _UsageError(f"--seeds must be positive, not {args.seeds}")
    if args.threads < 0:
        raise _UsageError(f"--threads must be nonnegative, not {args.threads}")
    baseline = args.baseline
    cfg = load_config(args.config)
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    seeds = args.seeds or cfg.seeds
    out_dir = args.out if args.out is not None else cfg.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise _UsageError(f"cannot create {out_dir}: {e.strerror}") from None
    grid = sampling_grid(cfg.T)
    seed_list = [cfg.master_seed + k for k in range(seeds)]
    t0 = time.perf_counter()
    threads = args.threads if args.threads else (os.cpu_count() or 1)
    # one contiguous, nonempty batch of seeds per worker
    batches = [b.tolist() for b in np.array_split(
        seed_list, min(threads, len(seed_list)))]
    drive = functools.partial(baseline_seeds if baseline else run_seeds,
                              cfg.problem, cfg.topology, cfg.schedules, cfg.T)
    if len(batches) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(batches)) as ex:
            records = [r for batch in ex.map(drive, batches) for r in batch]
    else:
        records = drive(seed_list)
    eps = eps_at(cfg.T, cfg.sensitivity, cfg.schedules, grid)
    eps_cols = {f"eps_cum_a{i}": e for i, e in enumerate(eps or ())}
    agg = {}
    for rec, seed in zip(records, seed_list):
        if rec.aborted_at is not None:
            kind = "warning" if baseline else "runtime abort"
            print(f"{kind}: seed {seed} went non-finite at iteration "
                  f"{rec.aborted_at}", file=sys.stderr)
        _write_csv(os.path.join(out_dir, f"seed_{seed}.csv"),
                   rec.ts, {**rec.columns, **eps_cols})
    complete = [r for r in records if r.aborted_at is None]
    if complete:
        ts = complete[0].ts
        for c in complete[0].columns:
            agg[c] = np.mean([r.columns[c] for r in complete], axis=0)
        _write_csv(os.path.join(out_dir, "aggregate.csv"), ts, {**agg, **eps_cols})
    manifest = {
        "config": cfg.raw,
        "version": __version__,
        "baseline": baseline,
        "seeds": seed_list,
        "aborted": {str(s): r.aborted_at for s, r in zip(seed_list, records)
                    if r.aborted_at is not None},
        "wall_time_sec": time.perf_counter() - t0,
        "grid": [int(g) for g in grid],
        "warnings": cfg.warnings,
    }
    with _writing(os.path.join(out_dir, "manifest.json")) as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    print(f"wrote {len(records)} seed series to {out_dir}")
    # a diverging baseline is the expected phenomenon, not a failure
    return 2 if manifest["aborted"] and not baseline else 0


def _sensitivity(cfg):
    if cfg.sensitivity is None:
        raise _UsageError("config has no sensitivity block")
    return cfg.sensitivity


def _horizon(text):
    """--horizon as an iteration count, or None for 'inf'."""
    if text == "inf":
        return None
    if not text.isdecimal():
        raise _UsageError(f"--horizon must be a nonnegative integer or 'inf', "
                          f"not {text!r}")
    return int(text)


def _window(text):
    """--window lo,hi as a float pair, or None when not given."""
    if not text:
        return None
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError:
        raise _UsageError(f"--window must be lo,hi, not {text!r}") from None
    return a, b


def _cmd_budget(args):
    horizon = _horizon(args.horizon)
    cfg = load_config(args.config)
    sens = _sensitivity(cfg)
    try:
        accounts = budgets(horizon or 0, sens, cfg.schedules)
    except ValueError as e:
        raise _UsageError(e) from None
    print("agent,eps_x,eps_y,eps_z,eps_total,bound_inf")
    for i, (acct, _) in enumerate(accounts):
        eps = ("",) * 4 if horizon is None else (_fmt(acct.eps_x), _fmt(acct.eps_y),
                                                 _fmt(acct.eps_z), _fmt(acct.eps_total))
        print(",".join([str(i), *eps, _fmt(acct.bound_inf)]))
    return 0


def _cmd_calibrate(args):
    cfg = load_config(args.config)
    try:
        sigmas = calibrate_noise(args.epsilon, _sensitivity(cfg), cfg.schedules)
    except ValueError as e:
        raise _UsageError(e) from None
    text = json.dumps(with_noise_scales(cfg.raw, sigmas), indent=2, sort_keys=True)
    if args.out:
        with _writing(args.out) as f:
            f.write(text + "\n")
        print(f"wrote calibrated config to {args.out}")
    else:
        print(text)
    return 0


def _cmd_analyze(args):
    window = _window(args.window)
    if not os.path.isdir(args.indir):
        raise _UsageError(f"no directory {args.indir}")
    manifest = os.path.join(args.indir, "manifest.json")
    try:  # the seeds of the run that wrote the directory, not stale files
        with open(manifest) as f:
            seeds = json.load(f)["seeds"]
        if not isinstance(seeds, list):  # a string would iterate its digits
            raise TypeError
        seeds = [_integer(s) for s in seeds]  # as config's integer keys
    except OSError as e:
        raise _UsageError(f"cannot read {manifest}: {e.strerror}") from None
    except (ValueError, KeyError, TypeError):  # not JSON, or no integer list
        raise _UsageError(f"{manifest} holds no list of integer seeds") from None
    if len(set(seeds)) < len(seeds):
        raise _UsageError(f"{manifest} lists a seed twice")
    if not seeds:
        raise _UsageError(f"no seed CSVs in {args.indir}")
    series = []
    ts = None
    for fname in sorted(f"seed_{s}.csv" for s in seeds):
        header, data = _read_csv(os.path.join(args.indir, fname))
        for col in ("t", args.metric):
            if col not in header:
                raise _UsageError(f"column {col!r} not in {fname}")
        t = data[:, header.index("t")]
        if ts is None:
            ts, first = t, fname
        elif not np.array_equal(t, ts):
            raise _UsageError(f"{fname} is not sampled at the iterations of "
                              f"{first} (an aborted seed?)")
        series.append(data[:, header.index(args.metric)])
    values = np.stack(series)
    try:
        fit = fit_rate(ts, values, window=window)
    except ValueError as e:
        raise _UsageError(e) from None
    print(json.dumps(vars(fit), indent=2, sort_keys=True))
    _write_csv(os.path.join(args.indir, f"mean_{args.metric}.csv"), ts,
               {args.metric: values.mean(axis=0)})
    return 0


def _cmd_validate(args):
    cfg = load_config(args.config)
    print(f"topology: m={cfg.topology.m} w_bar={_fmt(cfg.topology.w_bar)} "
          f"rho2_abs={_fmt(cfg.topology.rho2_abs)} "
          f"contraction={_fmt(cfg.topology.conditions[3][2])}")  # "contraction norm < 1"
    for name, passed, residual in cfg.topology.conditions:
        print(f"  [{'ok' if passed else 'FAIL'}] {name} (residual {residual:.3g})")
    checks, rate = cfg.schedule_conditions
    print(f"schedule conditions ({cfg.case.value}):")
    for name, passed in checks:
        print(f"  [{'ok' if passed else 'FAIL'}] {name}")
    if rate is not None:
        print(f"  rate exponent: {_fmt(rate)}")
    for w in cfg.warnings:
        print(f"warning: {w}")
    print("config ok")
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="ldpagg",
        description="LDP distributed aggregative optimization simulator "
                    "and privacy accountant")
    sub = parser.add_subparsers(dest="command")

    def add_config(p):
        p.add_argument("--config", required=True)

    p_run = sub.add_parser("run", help="simulate the main algorithm")
    p_base = sub.add_parser("baseline", help="simulate the gradient-tracking baseline")
    for p, baseline in ((p_run, False), (p_base, True)):
        p.set_defaults(func=_cmd_run, baseline=baseline)
        add_config(p)
        p.add_argument("--seeds", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=0,
                       help="worker processes, each running one contiguous "
                            "batch of seeds (default, or 0: available cores); "
                            "never affects results")

    p_budget = sub.add_parser("budget", help="cumulative privacy budget table")
    p_budget.set_defaults(func=_cmd_budget)
    add_config(p_budget)
    p_budget.add_argument("--horizon", default="inf",
                          help="iteration count or 'inf'")

    p_cal = sub.add_parser("calibrate", help="noise scales for a target budget")
    p_cal.set_defaults(func=_cmd_calibrate)
    add_config(p_cal)
    p_cal.add_argument("--epsilon", type=float, required=True)
    p_cal.add_argument("--out", default=None)

    p_an = sub.add_parser("analyze", help="log-log rate fit over seed CSVs")
    p_an.set_defaults(func=_cmd_analyze)
    p_an.add_argument("--in", dest="indir", required=True)
    p_an.add_argument("--metric", required=True)
    p_an.add_argument("--window", default=None, help="lo,hi")

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.set_defaults(func=_cmd_validate)
    add_config(p_val)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
