"""Command-line front end.

Subcommands: test (run tests on two sample files), power (power-curve
experiments), boundary (closed-form detection boundaries), diagnose
(power-condition diagnostics), calibrate (null-table cache files).

All data goes to stdout or --out files.  Every failure, a refused input or
an unreadable or unwritable file, is one "error: ..." line on stderr with
exit status 1.  Every randomized command takes an explicit --seed (default 0).

The parser is built once per process, at main's first call, so a caller that
runs many commands in one process pays for it once.  main looks a command's
cmd_<command> up in this module at call time, so a wrapper put on one sees
every later call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import experiments as exp
from . import statistics as st
from . import theory
from .distributions import GGParams, MixtureAlt, check_integer


def read_sample_file(path) -> np.ndarray:
    """One finite decimal per line; blank lines and '#' comments ignored."""
    values = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            # float() also reads digit-group underscores and non-ASCII digits
            if "_" in body or not body.isascii():
                raise ValueError
            v = float(body)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {body!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"{path}:{lineno}: non-finite value {body!r}")
        values.append(v)
    if not values:
        raise ValueError(f"{path}: no values found")
    return np.asarray(values)


def _model_and_alt(args, lrt: bool) -> tuple[GGParams, MixtureAlt | None]:
    """The model, and the alternative if the LRT reads it or --epsilon or
    --mu is given: every model flag given is validated, read or not."""
    model, alt = GGParams(gamma=args.gamma, scale=args.gg_scale), None
    if lrt or args.epsilon is not None or args.mu is not None:
        if args.epsilon is None or args.mu is None:
            raise ValueError("this operation requires --epsilon and --mu")
        alt = MixtureAlt(epsilon=args.epsilon, mu=args.mu)
    return model, alt


def _check_writable(path: Path) -> None:
    """Refuse an output file that is a directory or has no directory to go in."""
    if path.is_dir() or not path.parent.is_dir():
        reason = "it is a directory" if path.is_dir() else f"no directory {path.parent}"
        raise ValueError(f"cannot write {path}: {reason}")


def cmd_test(args) -> int:
    # the calibration flags are validated whether or not a table is simulated
    cal._check_table_inputs(args.reps, args.seed)
    # nonempty and finite: read_sample_file and dejitter refuse anything else
    x = read_sample_file(args.x)
    y = read_sample_file(args.y)
    if args.dejitter:
        x, y = st.dejitter(x, y)
    xi = st.pooled_indicator(x, y)
    names = _parse_tests(args.tests)
    stats = [cal.STATISTICS[t] for t in names]
    m, n = x.size, y.size
    model, alt = _model_and_alt(args, lrt=not all(s.rank for s in stats))
    table = None
    if args.table:
        # the file serves a selected HC that, simulated with the file's reps
        # and seed, would give a table of the file's key
        table = cal.load_null_table(args.table)
        if st.HC not in names or table.key != cal.table_key(st.HC, m, n, table.reps, table.seed):
            raise ValueError(f"table {args.table} is for {table.key}; "
                             "it matches no selected test here")
    report = {"m": m, "n": n, "tests": {}}
    # a Y-value whose LRT term overflows is refused by lrt_stats, without numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        values = cal.block_values(stats, xi[None], y[None], m, n, model, alt)[0].tolist()
    for stat, value in zip(stats, values):
        null = cal.null_for(stat.name, m, n, model, alt, table, args.reps, args.seed)
        pv = stat.pvalue(value, m, n, null)
        row = {"statistic": value, "pvalue": pv.p, "method": pv.method}
        if stat.extra is not None:
            row.update(stat.extra(value, m, n))
        report["tests"][stat.name] = row
    print(json.dumps(report, sort_keys=True))
    return 0


def _parse_tests(spec: str) -> list[str]:
    names = [t.strip().upper() for t in spec.split(",") if t.strip()]
    return list(st.ALL_STATISTICS) if names == ["ALL"] else st.check_tests(names)


def cmd_power(args) -> int:
    if bool(args.config) == bool(args.preset):
        raise ValueError("provide exactly one of --config or --preset")
    if args.config and args.scale is not None:
        raise ValueError("--scale applies only to --preset; a config gives m and n itself")
    stem = args.stem or (args.preset or Path(args.config).stem)
    # Path drops a trailing "/" or "/.", so the file name is read from the string
    if Path(stem).is_absolute() or ".." in Path(stem).parts or os.path.basename(stem) in ("", "."):
        raise ValueError(f"--stem must name a file inside --out, got {stem!r}")
    scale = 1.0 if args.scale is None else args.scale
    if args.preset:
        config = exp.figure_config(args.preset, scale=scale)
    else:
        try:
            raw = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as e:
            raise ValueError(f"config is not valid JSON: {e}")
        try:
            config = exp.ScenarioConfig.from_dict(raw)
        except (TypeError, ValueError, KeyError) as e:
            raise ValueError(f"invalid config: {e!r}")
    overrides = {"master_seed": args.seed, "power_reps": args.reps, "level": args.level}
    # replace() validates the overridden config again
    config = dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None}
    )
    # a bad --threads, --out or --cache-dir fails now, not after simulating
    # the curve, and a refused thread count makes no directory
    check_integer("threads", args.threads)
    for directory in [d for d in (args.out, args.cache_dir) if d is not None]:
        Path(directory).mkdir(parents=True, exist_ok=True)
    for suffix in (".csv", ".json"):
        _check_writable(Path(args.out) / f"{stem}{suffix}")
    curve = exp.run_power_grid(config, threads=args.threads, cache_dir=args.cache_dir)
    if args.preset:
        notes = {**curve.notes, **exp.figure_notes(args.preset, scale)}
        curve = dataclasses.replace(curve, notes=notes)
    csv_path, json_path = curve.write(args.out, stem)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_boundary(args) -> int:
    if args.regime == "sparse":
        value = theory.detection_boundary_sparse(args.beta, args.gamma)
    else:
        value = theory.detection_boundary_dense(args.beta, args.gamma)
    print(f"{value:.12g}")
    return 0


def _report_json(report) -> dict:
    """A ConditionReport or TailRunCheck as a dict, without its None fields."""
    return {k: v for k, v in dataclasses.asdict(report).items() if v is not None}


def cmd_diagnose(args) -> int:
    # the flags each condition reads besides --gamma, --gg-scale and --mu,
    # with their defaults; a flag given to a condition that does not read it
    # is refused
    reads = {
        "hc": {"n": 10**5, "t": None, "eta": 0.5, "epsilon": None},
        "wilcoxon": {"n": 10**5, "epsilon": None},
        "ks": {"n": 10**5, "epsilon": None},
        "tailrun": {"n": 10**5, "m": 10**5, "t": None, "l": 1, "epsilon": None},
        "lower-bound": {"x_upper": math.inf},
    }[args.condition]
    for name in ("n", "m", "t", "l", "eta", "x_upper", "epsilon"):
        if getattr(args, name) is not None and name not in reads:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} does not apply to --condition {args.condition}")
    flags = {k: v if getattr(args, k) is None else getattr(args, k) for k, v in reads.items()}
    if args.condition == "lower-bound":
        # --mu is a bare shift here, with no --epsilon
        model = GGParams(gamma=args.gamma, scale=args.gg_scale)
        if args.mu is None:
            raise ValueError("lower-bound requires --mu")
        value = theory.lower_bound_integral(flags["x_upper"], model, args.mu)
        print(json.dumps({"lower_bound_integral": value}, sort_keys=True))
        return 0
    model, alt = _model_and_alt(args, lrt=True)
    if args.condition == "wilcoxon":
        out = _report_json(theory.wilcoxon_condition(flags["n"], model, alt))
    elif args.condition == "ks":
        out = _report_json(theory.ks_condition(flags["n"], model, alt))
    elif args.condition == "hc":
        if flags["t"] is None:
            raise ValueError("hc requires --t (the threshold t_n)")
        reps = theory.hc_conditions(flags["t"], flags["n"], model, alt, flags["eta"])
        names = ("tail_mass", "separation", "median_separation")
        out = {name: _report_json(rep) for name, rep in zip(names, reps)}
    else:  # tailrun
        if flags["t"] is None:
            raise ValueError("tailrun requires --t")
        chk = theory.tailrun_condition(flags["t"], flags["m"], flags["n"], model, alt, flags["l"])
        out = _report_json(chk)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_calibrate(args) -> int:
    statistic = args.statistic.upper()
    # an unknown statistic, or one whose p-value reads no table (the LRT
    # among them), is refused first
    cal._table_statistic(statistic)
    # a bad --out fails now, not after simulating the table; a directory is
    # refused as given, before npz_path names a file beside it
    out = Path(args.out or cal.cache_key(statistic, args.m, args.n, args.reps, args.seed))
    if not out.is_dir():
        # Path drops a trailing "/" or "/.", so the file name is read from the string
        if args.out and os.path.basename(args.out) in ("", "."):
            raise ValueError(f"cannot write {args.out}: it names no file")
        out = cal.npz_path(out)
    _check_writable(out)
    if out.exists() and not args.force:
        raise ValueError(f"{out} exists; pass --force to overwrite")
    table = cal.mc_null_table(statistic, args.m, args.n, args.reps, args.seed)
    out = cal.save_null_table(table, out, force=args.force)
    q = {lev: float(np.quantile(table.draws, lev)) for lev in (0.90, 0.95, 0.99)}
    print(
        json.dumps(
            {
                "path": str(out),
                "quantiles": {"0.90": q[0.90], "0.95": q[0.95], "0.99": q[0.99]},
            },
            sort_keys=True,
        )
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="mixdetect",
        description="Two-sample sparse heterogeneous mixture detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--gamma", type=float, default=2.0, help="shape exponent")
        p.add_argument(
            "--gg-scale", type=float, default=1.0, help="scale of the base density"
        )
        p.add_argument("--epsilon", type=float, default=None, help="contamination fraction")
        p.add_argument("--mu", type=float, default=None, help="location shift")

    p = sub.add_parser("test", help="run tests on two sample files")
    p.add_argument("--x", required=True, help="control sample file (from F)")
    p.add_argument("--y", required=True, help="test sample file (from G)")
    p.add_argument("--tests", default="HC,WILCOXON,KS,TAILRUN", help="comma list or 'all'")
    p.add_argument("--reps", type=int, default=4000, help="Monte Carlo calibration reps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--table",
        default=None,
        help="null-table file from calibrate, read by the selected HC test; its m and n "
        "must match the run's",
    )
    p.add_argument("--dejitter", action="store_true", help="break ties deterministically")
    add_model_args(p)

    p = sub.add_parser("power", help="run a power-curve experiment")
    p.add_argument("--config", default=None, help="JSON scenario config file")
    p.add_argument("--preset", default=None, choices=exp.FIGURE_PRESETS)
    p.add_argument("--scale", type=float, default=None, help="shrink m=n from 1e5 (--preset)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--stem", default=None, help="output file stem, relative to --out")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--reps", type=int, default=None, help="override power reps")
    p.add_argument("--level", type=float, default=None, help="override test level")
    p.add_argument("--threads", type=int, default=1, help="0 = auto; output-invariant")
    p.add_argument("--cache-dir", default=None, help="null-table cache directory")

    p = sub.add_parser("boundary", help="print a detection boundary value")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--regime", choices=("sparse", "dense"), required=True)

    p = sub.add_parser("diagnose", help="evaluate a power-condition diagnostic")
    p.add_argument(
        "--condition",
        required=True,
        choices=("hc", "wilcoxon", "ks", "tailrun", "lower-bound"),
    )
    # each condition refuses the flags it does not read and sets the
    # defaults of those it does (cmd_diagnose)
    p.add_argument("--n", type=int, default=None, help="Y-sample size (not lower-bound; 100000)")
    p.add_argument("--m", type=int, default=None, help="X-sample size (tailrun; 100000)")
    p.add_argument("--t", type=float, default=None, help="threshold t_n (hc, tailrun)")
    p.add_argument("--l", type=int, default=None, help="tail-run length (tailrun; 1)")
    p.add_argument("--eta", type=float, default=None, help="limit of n/(m+n) (hc; 0.5)")
    p.add_argument("--x-upper", type=float, default=None,
                   help="upper integration limit (lower-bound; inf)")
    add_model_args(p)

    p = sub.add_parser("calibrate", help="write a null-table cache file")
    p.add_argument("--statistic", required=True,
                   help="HC, the one test with a Monte Carlo table (the LRT's null is computed)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (.npz)")
    p.add_argument("--force", action="store_true", help="overwrite existing file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapper put on cmd_<command> sees the call
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
