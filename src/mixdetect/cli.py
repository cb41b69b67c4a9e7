"""Command-line front end.

Subcommands: test (run tests on two sample files), power (power-curve
experiments), boundary (closed-form detection boundaries), diagnose
(power-condition diagnostics), calibrate (null-table cache files).

All data goes to stdout or --out files; diagnostics go to stderr.  Every
randomized command takes an explicit --seed (default 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import experiments as exp
from . import statistics as st
from . import theory
from .distributions import GGParams, MixtureAlt


class CliError(Exception):
    pass


def read_sample_file(path) -> np.ndarray:
    """One finite decimal per line; blank lines and '#' comments ignored."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            v = float(body)
        except ValueError:
            raise CliError(f"{path}:{lineno}: not a number: {body!r}")
        if not np.isfinite(v):
            raise CliError(f"{path}:{lineno}: non-finite value {body!r}")
        values.append(v)
    if not values:
        raise CliError(f"{path}: no values found")
    return np.asarray(values)


def _model_from_args(args) -> GGParams:
    return GGParams(gamma=args.gamma, scale=args.gg_scale)


def _alt_from_args(args) -> MixtureAlt:
    if args.epsilon is None or args.mu is None:
        raise CliError("this operation requires --epsilon and --mu")
    return MixtureAlt(epsilon=args.epsilon, mu=args.mu)


def _null_table(args, stat, m: int, n: int, model, alt) -> cal.NullTable:
    """The Monte Carlo null table of stat: --table for a rank statistic, or simulated."""
    if stat.rank and args.table:
        try:
            table = cal.load_null_table(args.table)
        except OSError as e:
            raise CliError(f"cannot read table {args.table}: {e}")
        if (table.statistic, table.m, table.n) != (stat.name, m, n):
            raise CliError(
                f"table {args.table} is for "
                f"({table.statistic}, m={table.m}, n={table.n})"
            )
        return table
    return cal.mc_null_table(
        stat.name, m, n, args.reps, args.seed, model=None if stat.rank else (model, alt)
    )


def cmd_test(args) -> int:
    x = read_sample_file(args.x)
    y = read_sample_file(args.y)
    if args.dejitter:
        x, y = st.dejitter(x, y)
    ts = st.TwoSample(x=x, y=y)
    xi = st.pooled_indicator(ts.x, ts.y)
    stats = [cal.STATISTICS[t] for t in _parse_tests(args.tests)]
    m, n = ts.m, ts.n
    model = alt = None
    if not all(s.rank for s in stats):
        model, alt = _model_from_args(args), _alt_from_args(args)
    report = {"m": m, "n": n, "tests": {}}
    for stat in stats:
        (value,) = stat.values(xi, ts.y, m, n, model, [alt])
        table = _null_table(args, stat, m, n, model, alt) if stat.monte_carlo else None
        pv = stat.pvalue(value, m, n, table)
        row = {"statistic": value, "pvalue": pv.p, "method": pv.method}
        if stat.extra is not None:
            row.update(stat.extra(value, m, n))
        report["tests"][stat.name] = row
    print(json.dumps(report, sort_keys=True))
    return 0


def _parse_tests(spec: str) -> list[str]:
    names = [t.strip().upper() for t in spec.split(",") if t.strip()]
    if not names:
        raise CliError("no tests selected")
    if names == ["ALL"]:
        return list(st.ALL_STATISTICS)
    for t in names:
        if t not in st.ALL_STATISTICS:
            raise CliError(f"unknown test {t!r}; choose from {st.ALL_STATISTICS}")
    return names


def cmd_power(args) -> int:
    if bool(args.config) == bool(args.preset):
        raise CliError("provide exactly one of --config or --preset")
    if args.preset:
        config = exp.figure_config(args.preset, scale=args.scale)
    else:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as e:
            raise CliError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise CliError(f"config is not valid JSON: {e}")
        try:
            config = exp.ScenarioConfig.from_dict(raw)
        except (TypeError, ValueError, KeyError) as e:
            raise CliError(f"invalid config: {e!r}")
    overrides = {"master_seed": args.seed, "power_reps": args.reps, "level": args.level}
    # replace() validates the overridden config again
    config = dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None}
    )
    try:  # a bad --out or --cache-dir fails now, not after simulating the curve
        for directory in [d for d in (args.out, args.cache_dir) if d is not None]:
            Path(directory).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create directory: {e}")
    curve = exp.run_power_grid(config, threads=args.threads, cache_dir=args.cache_dir)
    if args.preset:
        notes = {**curve.notes, **exp.figure_notes(args.preset, args.scale)}
        curve = dataclasses.replace(curve, notes=notes)
    stem = args.stem or (args.preset or Path(args.config).stem)
    csv_path, json_path = curve.write(args.out, stem)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_boundary(args) -> int:
    if args.regime == "sparse":
        value = theory.detection_boundary_sparse(
            theory.BoundaryQuery(beta=args.beta, gamma=args.gamma)
        )
    else:
        value = theory.detection_boundary_dense(args.beta, args.gamma)
    print(f"{value:.12g}")
    return 0


def _report_json(report) -> dict:
    """A ConditionReport or TailRunCheck as a dict, without its None fields."""
    return {k: v for k, v in dataclasses.asdict(report).items() if v is not None}


def cmd_diagnose(args) -> int:
    model = _model_from_args(args)
    if args.condition == "lower-bound":
        if args.mu is None:
            raise CliError("lower-bound requires --mu")
        x_upper = float(args.x_upper) if args.x_upper is not None else np.inf
        value = theory.lower_bound_integral(x_upper, model, args.mu)
        print(json.dumps({"lower_bound_integral": value}, sort_keys=True))
        return 0
    alt = _alt_from_args(args)
    if args.condition == "wilcoxon":
        out = _report_json(theory.wilcoxon_condition(args.n, model, alt))
    elif args.condition == "ks":
        out = _report_json(theory.ks_condition(args.n, model, alt))
    elif args.condition == "hc":
        if args.t is None:
            raise CliError("hc requires --t (the threshold t_n)")
        reps = theory.hc_conditions(args.t, args.n, model, alt, args.eta)
        names = ("tail_mass", "separation", "median_separation")
        out = {name: _report_json(rep) for name, rep in zip(names, reps)}
    elif args.condition == "tailrun":
        if args.t is None:
            raise CliError("tailrun requires --t")
        chk = theory.tailrun_condition(args.t, args.m, args.n, model, alt, args.l)
        out = _report_json(chk)
    else:
        raise CliError(f"unknown condition {args.condition!r}")
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_calibrate(args) -> int:
    statistic = args.statistic.upper()
    if statistic == st.TAILRUN:
        raise CliError(
            "exact null available for the tail run; use the test command instead"
        )
    if statistic not in st.ALL_STATISTICS:
        raise CliError(f"unknown statistic {args.statistic!r}")
    model = None
    if statistic == st.LRT:
        model = (_model_from_args(args), _alt_from_args(args))
    # a bad --out fails now, not after simulating the table
    out = cal.npz_path(
        args.out or cal.cache_key(statistic, args.m, args.n, args.reps, args.seed, model)
    )
    if out.exists() and not args.force:
        raise CliError(f"{out} exists; pass --force to overwrite")
    if not out.parent.is_dir():
        raise CliError(f"cannot write {out}: no directory {out.parent}")
    table = cal.mc_null_table(
        statistic, args.m, args.n, args.reps, args.seed, model=model
    )
    try:
        out = cal.save_null_table(table, out, force=args.force)
    except OSError as e:
        raise CliError(str(e))
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--table", default=None, help="null-table cache file for HC")
    p.add_argument("--dejitter", action="store_true", help="break ties deterministically")
    add_model_args(p)
    p.set_defaults(fn=cmd_test)

    p = sub.add_parser("power", help="run a power-curve experiment")
    p.add_argument("--config", default=None, help="JSON scenario config file")
    p.add_argument("--preset", default=None, choices=exp.FIGURE_PRESETS)
    p.add_argument("--scale", type=float, default=1.0, help="shrink m=n from 1e5")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--stem", default=None, help="output file stem")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--reps", type=int, default=None, help="override power reps")
    p.add_argument("--level", type=float, default=None, help="override test level")
    p.add_argument("--threads", type=int, default=1, help="0 = auto; output-invariant")
    p.add_argument("--cache-dir", default=None, help="null-table cache directory")
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("boundary", help="print a detection boundary value")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--regime", choices=("sparse", "dense"), required=True)
    p.set_defaults(fn=cmd_boundary)

    p = sub.add_parser("diagnose", help="evaluate a power-condition diagnostic")
    p.add_argument(
        "--condition",
        required=True,
        choices=("hc", "wilcoxon", "ks", "tailrun", "lower-bound"),
    )
    p.add_argument("--n", type=int, default=10**5)
    p.add_argument("--m", type=int, default=10**5)
    p.add_argument("--t", type=float, default=None, help="threshold t_n")
    p.add_argument("--l", type=int, default=1, help="tail-run length")
    p.add_argument("--eta", type=float, default=0.5, help="limit of n/(m+n)")
    p.add_argument("--x-upper", type=float, default=None, help="upper integration limit")
    add_model_args(p)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("calibrate", help="write a null-table cache file")
    p.add_argument("--statistic", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (.npz)")
    p.add_argument("--force", action="store_true", help="overwrite existing file")
    add_model_args(p)
    p.set_defaults(fn=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
