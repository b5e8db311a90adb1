"""Command-line front end: table generation, campaigns, sweeps, validation.

Exit codes: 0 success, 2 usage error, 3 unreadable config, 4 invariant
violation.  Every failure prints a single ``error: ...`` line on stderr.
All output files are written to a temporary name and renamed on success.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import geometry as geo
from . import simulation as sim
from . import waveform as wf

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_INVARIANT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser():
    p = _Parser(prog="d2d-underlay",
                description="Monte Carlo simulator of asynchronous D2D pairs "
                            "underlaying an OFDMA uplink.")
    sub = p.add_subparsers(dest="subcommand", metavar="{tables,run,sweep,validate}")

    t = sub.add_parser("tables", help="generate interference tables as CSV")
    t.add_argument("--out", default=".", help="output directory")

    r = sub.add_parser("run", help="run one Monte Carlo campaign")
    r.add_argument("--config", required=True, help="key = value config file")
    r.add_argument("--out", default=".", help="output directory")
    r.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = sequential)")

    s = sub.add_parser("sweep", help="sweep one parameter, one campaign per value")
    s.add_argument("--config", required=True, help="key = value config file")
    s.add_argument("--parameter", required=True,
                   choices=[param.value.lower() for param in sim.SweepParameter])
    s.add_argument("--values", required=True,
                   help="comma-separated list of parameter values")
    s.add_argument("--out", default=".", help="output directory")
    s.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = sequential)")

    v = sub.add_parser("validate", help="check a config without running")
    v.add_argument("--config", required=True, help="key = value config file")
    return p


def _out_dir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _build_tables():
    """The tables every command uses: receiver model, 512 subcarriers,
    default span."""
    return wf.build_all_tables(wf.build_phydyas_filter(4, 512))


def _cmd_tables(args):
    out = _out_dir(args)
    for (a, b), table in _build_tables().items():
        path = os.path.join(out, "table_%s_%s.csv" % (a.value.lower(),
                                                      b.value.lower()))
        wf.save_table(table, path)
        print(path)


def _cmd_run(args):
    config = geo.load_config(args.config)
    out = _out_dir(args)
    tables = _build_tables()
    report = sim.run_campaign(config, tables, jobs=args.jobs)
    sim.write_samples_csv(report, os.path.join(out, "samples.csv"))
    sim.write_cdf_csv(report, os.path.join(out, "cdf.csv"))
    sim.write_gnuplot_cdf(os.path.join(out, "cdf.gp"))
    print("%d iterations, %d skipped -> %s" % (report.iterations,
                                               report.skipped, out))


def _cmd_sweep(args):
    config = geo.load_config(args.config)
    parameter = sim.SweepParameter[args.parameter.upper()]
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise UsageError("bad --values: %s" % exc)
    sim.sweep_configs(config, parameter, values)
    out = _out_dir(args)
    tables = _build_tables()
    points = sim.sweep(config, parameter, values, tables, jobs=args.jobs)
    sim.write_sweep_csv(parameter, points, os.path.join(out, "sweep.csv"))
    sim.write_gnuplot_sweep(parameter, os.path.join(out, "sweep.gp"))
    print("%d sweep points -> %s" % (len(points), out))


def _cmd_validate(args):
    geo.load_config(args.config)
    print("ok")


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "jobs", 0) < 0:
            raise UsageError("--jobs must be >= 0, got %d" % args.jobs)
        if args.subcommand is None:
            raise UsageError("a subcommand is required "
                             "(tables, run, sweep, validate)")
        {"tables": _cmd_tables, "run": _cmd_run, "sweep": _cmd_sweep,
         "validate": _cmd_validate}[args.subcommand](args)
        return EXIT_OK
    except UsageError as exc:
        code, message = EXIT_USAGE, exc
    except ValueError as exc:
        code, message = EXIT_INVARIANT, exc
    except OSError as exc:
        code, message = EXIT_CONFIG, exc
    print("error: %s" % message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
