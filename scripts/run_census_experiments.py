#!/usr/bin/env python3
"""Count-vs-bound tables for the integer censuses.

Prints, for a doubling Q-grid, the degree-4 count against 2 Q^2, the
square-rootable count against (4/3) Q^(3/2), and the fitted power laws.
"""

import argparse

from salemcensus.asymptotics import power_fit
from salemcensus.census import box_sums, count_salem_deg4, count_sr


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qmax", type=int, default=4000)
    args = ap.parse_args()

    grid = [args.qmax]
    while grid[-1] // 2 >= 125:
        grid.append(grid[-1] // 2)
    grid.reverse()

    print(f"{'Q':>8} {'deg4':>12} {'/2Q^2':>9} {'sr':>10} {'/Q^1.5*3/4':>11} "
          f"{'box_sr':>10} {'box_deg4':>12}")
    deg4_pts, sr_pts = [], []
    for Q in grid:
        c4 = count_salem_deg4(Q)
        cs = count_sr(Q)
        s_sr, s_deg4 = box_sums(Q)
        deg4_pts.append((Q, c4))
        sr_pts.append((Q, cs))
        print(f"{Q:>8} {c4:>12} {c4 / (2 * Q * Q):>9.5f} {cs:>10} "
              f"{cs / Q**1.5 * 3 / 4:>11.5f} {s_sr:>10} {s_deg4:>12}")

    f4 = power_fit(deg4_pts)
    fs = power_fit(sr_pts)
    print(f"\ndeg4 fit: count ~ {f4.constant:.4f} * Q^{f4.exponent:.4f} "
          f"(target 2 * Q^2)")
    print(f"sr   fit: count ~ {fs.constant:.4f} * Q^{fs.exponent:.4f} "
          f"(target {4 / 3:.4f} * Q^1.5)")


if __name__ == "__main__":
    main()
