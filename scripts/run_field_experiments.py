#!/usr/bin/env python3
"""Field-side experiments: Bianchi census constants and the real-quadratic
system counts.

For each imaginary quadratic field parameter D the census count over
norm-bounded traces is compared with pi/(4 sqrt D) resp. pi/(2 sqrt D);
for each real quadratic field parameter d the system count is fitted to a
power law and the verified fraction and c2 upper bound are reported.
"""

import argparse
import math

from salemcensus.asymptotics import power_fit
from salemcensus.bianchi import bianchi_census, marklof_constant
from salemcensus.totally_real import (
    c2_upper_bound,
    count_system,
    enumerate_system,
    lattice_geometry,
    verify_salem_over_L,
)


def bianchi_table(qmax: int) -> None:
    print(f"Bianchi censuses at Q = {qmax:g}")
    print(f"{'D':>4} {'count':>8} {'count/sqrt(Q)':>14} {'constant':>10} {'rel':>8}")
    for D in (1, 2, 3, 5, 6, 7, 10, 11, 13, 15):
        c = bianchi_census(D, qmax)
        ratio = c.count / math.sqrt(qmax)
        const = marklof_constant(D)
        print(f"{D:>4} {c.count:>8} {ratio:>14.5f} {const:>10.5f} "
              f"{ratio / const - 1:>+8.2%}")


def system_table(qmax: int, verify_q: int) -> None:
    print(f"\nReal-quadratic system counts up to Q = {qmax}")
    print(f"{'d':>4} {'disc':>5} {'delta':>7} {'c2 bound':>9} "
          f"{'exponent':>9} {'verified@Q=' + str(verify_q):>14}")
    for d in (2, 3, 5, 13):
        grid = [qmax]
        while grid[-1] // 2 >= qmax // 16:
            grid.append(grid[-1] // 2)
        fit = power_fit([(q, count_system(d, q)) for q in sorted(grid)])
        total = verified = 0
        for s in enumerate_system(d, verify_q):
            total += 1
            verified += verify_salem_over_L(d, s)
        geo = lattice_geometry(d)
        print(f"{d:>4} {geo.disc:>5} {geo.delta:>7.4f} {c2_upper_bound(d):>9.2f} "
              f"{fit.exponent:>9.4f} {verified:>7}/{total} "
              f"({verified / total:.1%})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qmax-bianchi", type=int, default=10**8)
    ap.add_argument("--qmax-system", type=int, default=2000)
    ap.add_argument("--verify-q", type=int, default=50)
    args = ap.parse_args()
    bianchi_table(args.qmax_bianchi)
    system_table(args.qmax_system, args.verify_q)


if __name__ == "__main__":
    main()
