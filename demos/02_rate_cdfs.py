"""Clustered campaign: predicted vs actual rate CDFs for both waveforms.

Each Monte Carlo iteration drops a cluster of D2D pairs into the cell, runs
the assignment and power-loading pipeline once with a plain-OFDM D2D tier
and once with a filter-bank tier on the identical snapshot, and records two
rates per case: the "predicted" rate the allocator believes it achieved
(ignoring inter-D2D leakage) and the "actual" rate including that leakage.

The headline result: with clustered, asynchronous pairs the plain-OFDM
prediction is off by roughly 20% at the median, while the filter-bank
prediction is within about 2% — its leakage barely reaches past the
adjacent subcarrier, so ignoring it costs almost nothing.
"""
import argparse
import os

from d2d_underlay import (ScenarioConfig, build_all_tables,
                          build_phydyas_filter, run_campaign, with_updates,
                          write_cdf_csv, write_gnuplot_cdf, write_samples_csv)
from d2d_underlay.simulation import Case


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_output", help="output directory")
    ap.add_argument("--iterations", type=int, default=500,
                    help="Monte Carlo iterations (2000 for smooth CDFs)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    tables = build_all_tables(build_phydyas_filter(4, 512), num_offsets=400)
    cfg = with_updates(ScenarioConfig(), iterations=args.iterations,
                       seed=args.seed)
    print("running %d clustered iterations, %d pairs..."
          % (cfg.iterations, cfg.num_d2d_pairs))
    report = run_campaign(cfg, tables)
    print("%d iterations, %d skipped as infeasible\n"
          % (report.iterations, report.skipped))

    print("%-22s %14s %14s %8s" % ("", "median pred", "median actual", "gap"))
    for case in Case:
        p = report.summary[(case, "predicted", "median")]
        a = report.summary[(case, "actual", "median")]
        print("%-22s %12.0f %14.0f %7.1f%%"
              % (case.value, p, a, 100 * (p - a) / p))
    print("\nRates are bit/s per pair over its 12 reused subcarriers.")

    write_samples_csv(report, os.path.join(args.out, "samples.csv"))
    write_cdf_csv(report, os.path.join(args.out, "cdf.csv"))
    write_gnuplot_cdf(os.path.join(args.out, "cdf.gp"))
    print("wrote samples.csv, cdf.csv and cdf.gp to %s" % args.out)
    print("render with: gnuplot -p %s" % os.path.join(args.out, "cdf.gp"))


if __name__ == "__main__":
    main()
