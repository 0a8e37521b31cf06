#!/usr/bin/env python3
"""Verified feasibility report for H(3,q).

For every q up to --q-max and every eigenvalue index, lists the feasible
gamma values (gamma <= beta convention).  With --build, each feasible entry
is realized by its designated construction and re-verified, and the table
shows which builder produced it.

Usage:
    python3 scripts/feasibility_report.py --q-max 12 --build
"""

import argparse
import sys
import time

from crcforge.constructions import build_feasible
from crcforge.parameters import feasible_table
from crcforge.verifier import CrcCertificate, check_crc


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q-max", type=int, default=12)
    ap.add_argument("--build", action="store_true",
                    help="build and verify every feasible entry")
    args = ap.parse_args()

    t0 = time.time()
    built = 0
    failures = 0
    for q in range(2, args.q_max + 1):
        for index, row in feasible_table(3, q).items():
            entries = []
            for gamma, _ in row:
                if not args.build:
                    entries.append(str(gamma))
                    continue
                code, spec = build_feasible(q, gamma, index)
                cert = check_crc(code)
                ok = (isinstance(cert, CrcCertificate) and cert.gamma == gamma
                      and cert.eigenvalue_index == index)
                built += 1
                if not ok:
                    failures += 1
                entries.append(f"{gamma}[{spec.kind}{'' if ok else '!'}]")
            tag = ",".join(entries) if entries else "-"
            print(f"q={q:<3d} i={index}: {tag}")
    if args.build:
        print(f"built and verified {built} codes, {failures} failure(s), "
              f"{time.time() - t0:.2f}s")
        if failures:
            sys.exit(1)


if __name__ == "__main__":
    main()
