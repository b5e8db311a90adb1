"""Build the four interference tables and compare spectral containment.

An interference table I(l) gives the mean power one subcarrier of the
interfering waveform leaks into a victim subcarrier l positions away, after
averaging over random timing offsets between the two transmitters.  This
script builds all four waveform combinations, prints the profiles around the
carrier, and shows why a filter-bank D2D tier barely disturbs its neighbours
while plain OFDM smears roughly half of one subcarrier's power out of band.
"""
import argparse
import os

from d2d_underlay import (build_all_tables, build_phydyas_filter,
                          save_table, table_from_psd)
from d2d_underlay.waveform import FBMC, OFDM, WaveformType


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_output", help="output directory")
    ap.add_argument("--offsets", type=int, default=400)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    filt = build_phydyas_filter(4, 512)
    tables = build_all_tables(filt, num_offsets=args.offsets)

    print("Mean leaked power per spectral distance l (fraction of a unit-power")
    print("subcarrier), averaged over %d timing offsets:\n" % args.offsets)
    header = "  l  " + "".join("%18s" % ("%s->%s" % (a.name, b.name))
                               for (a, b) in tables)
    print(header)
    for l in range(0, 6):
        row = "  %d  " % l
        for table in tables.values():
            row += "%18.3e" % table.coeffs[l]
        print(row)

    ff = tables[(WaveformType.FBMC_OQAM, WaveformType.FBMC_OQAM)]
    oo = tables[(WaveformType.OFDM, WaveformType.OFDM)]
    span = ff.half_span
    oob = lambda t: 2 * t.coeffs[1:].sum()
    print("\nTotal out-of-band leakage: filter-bank %.3e vs plain %.3e"
          % (oob(ff), oob(oo)))
    print("Beyond the adjacent subcarrier (|l| >= 2) the ratio collapses to "
          "%.1e:" % (ff.coeffs[2:].sum() / oo.coeffs[2:].sum()))
    print("the filter bank is leaky only into its immediate neighbour, and "
          "even\nthere only because an asynchronous victim cannot exploit the "
          "real-field\northogonality of offset-QAM.\n")

    psd = table_from_psd(FBMC, FBMC, filt, span)
    print("Band-integration (PSD) estimate at l = 0..2 vs receiver "
          "simulation:")
    for l in range(3):
        print("  l=%d  psd %.3e   receiver %.3e" % (l, psd.coeffs[l],
                                                    ff.coeffs[l]))
    print("The PSD route ignores the receiver's matched filtering, so it is "
          "a\nrough cross-check, not a substitute.\n")

    for (a, b), table in tables.items():
        name = "table_%s_%s.csv" % (a.value.lower(), b.value.lower())
        save_table(table, os.path.join(args.out, name))
        print("wrote", os.path.join(args.out, name))


if __name__ == "__main__":
    main()
