"""Parameter sweeps: how density, cluster distance and radius move the rates.

Three sweeps, each a fresh Monte Carlo campaign per parameter value:

* number of pairs — more pairs on a fixed 15-RB band means tighter packing,
  so everyone's actual rate drops; the filter-bank tier degrades more slowly
  because its pairs barely interfere across RB boundaries;
* cluster distance from the base station — further out, the CU uplink
  constraint bites less (less D2D leakage reaches the BS relative to the
  CU's own signal path) and pairs may transmit harder;
* cluster radius — a tighter cluster means shorter interferer distances, so
  inter-D2D leakage grows and the filter-bank advantage widens.
"""
import argparse
import os

from d2d_underlay import (ScenarioConfig, build_all_tables,
                          build_phydyas_filter, sweep, with_updates,
                          write_gnuplot_sweep, write_sweep_csv)
from d2d_underlay.simulation import Case, SweepParameter

SWEEPS = [
    (SweepParameter.NUM_PAIRS, [5, 7, 9, 11, 13]),
    (SweepParameter.CLUSTER_DISTANCE, [0.0, 35.0, 70.0, 105.0, 140.0]),
    (SweepParameter.CLUSTER_RADIUS, [40.0, 55.0, 70.0, 85.0, 100.0]),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_output", help="output directory")
    ap.add_argument("--iterations", type=int, default=200,
                    help="iterations per sweep point (1000 for smooth curves)")
    args = ap.parse_args()

    tables = build_all_tables(build_phydyas_filter(4, 512), num_offsets=400)
    cfg = with_updates(ScenarioConfig(), iterations=args.iterations)

    for parameter, values in SWEEPS:
        print("\nsweeping %s over %s (%d iterations/point)"
              % (parameter.value.lower(), values, cfg.iterations))
        points = sweep(cfg, parameter, values, tables)
        print("%12s %16s %16s %12s" % (parameter.value.lower(),
                                       "OFDM actual", "FBMC actual",
                                       "FBMC lead"))
        for value, report in points:
            o = report.summary[(Case.D2D_OFDM, "actual", "mean")]
            f = report.summary[(Case.D2D_FBMC, "actual", "mean")]
            print("%12g %16.0f %16.0f %11.1f%%" % (value, o, f,
                                                   100 * (f - o) / o))
        # one directory per sweep, laid out as d2d-underlay sweep writes it
        out = os.path.join(args.out, parameter.value.lower())
        os.makedirs(out, exist_ok=True)
        write_sweep_csv(parameter, points, os.path.join(out, "sweep.csv"))
        write_gnuplot_sweep(parameter, os.path.join(out, "sweep.gp"))
        print("wrote sweep.csv and sweep.gp to %s" % out)


if __name__ == "__main__":
    main()
