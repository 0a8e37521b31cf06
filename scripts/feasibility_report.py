#!/usr/bin/env python3
"""Verified feasibility report for H(3,q).

For every q up to --q-max and every eigenvalue index, builds each feasible
gamma (gamma <= beta convention) by its designated construction,
re-verifies it, and lists it with the builder that produced it.  Exits 1 if
any build fails its check.

Usage:
    python3 scripts/feasibility_report.py --q-max 12
"""

import argparse
import sys
import time

from crcforge.cli import feasible_tables, guarded
from crcforge.constructions import build_feasible
from crcforge.verifier import CrcCertificate, check_crc


def report(q_max: int) -> int:
    t0 = time.time()
    built = failures = 0
    for q, table in feasible_tables(q_max):
        for index, row in table.items():
            entries = []
            for gamma, _ in row:
                code, spec = build_feasible(q, gamma, index)
                cert = check_crc(code)
                ok = (isinstance(cert, CrcCertificate) and cert.gamma == gamma
                      and cert.eigenvalue_index == index)
                built += 1
                failures += not ok
                entries.append(f"{gamma}[{spec['kind']}{'' if ok else '!'}]")
            print(f"q={q:<3d} i={index}: {','.join(entries) or '-'}")
    print(f"built and verified {built} codes, {failures} failure(s), "
          f"{time.time() - t0:.2f}s")
    return 1 if failures else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q-max", type=int, default=12)
    args = ap.parse_args()
    sys.exit(guarded(report, args.q_max))


if __name__ == "__main__":
    main()
