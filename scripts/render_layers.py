#!/usr/bin/env python3
"""Render a three-dimensional code as ASCII hyperface layers.

Reads a code file (as produced by ``crcforge construct``) and prints, for
each symbol of the chosen direction, the q x q slice of the indicator with
'*' for codewords.  A file that cannot be read, a space other than H(3,q),
a bad --direction and an empty or full code each end in one error line and
exit status 2.

Usage:
    crcforge construct c --q 6 --t 5 -o /tmp/c65.json
    python3 scripts/render_layers.py /tmp/c65.json --direction 3
"""

import argparse
import sys
from typing import NoReturn

import numpy as np

from crcforge.codefile import CodeFileError, read_code
from crcforge.stochastic import GridSet
from crcforge.verifier import CrcCertificate, check_crc


def fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", help="code file to render")
    ap.add_argument("--direction", type=int, default=1,
                    help="position whose symbols index the layers (1-based)")
    args = ap.parse_args()

    try:
        code, _meta = read_code(args.file)
    except CodeFileError as e:
        fail(str(e))
    sp = code.space
    if sp.n != 3:
        fail(f"layer rendering needs n=3, file has n={sp.n}")
    if not 1 <= args.direction <= 3:
        fail(f"--direction must be 1..3, got {args.direction}")
    try:
        cert = check_crc(code)
    except ValueError as e:  # the empty code and the whole space
        fail(str(e))
    head = f"H(3,{sp.q}), {code.size} codewords"
    if isinstance(cert, CrcCertificate) and cert.rho == 1:
        head += f", gamma={cert.gamma} beta={cert.beta}"
    print(head)

    g = np.moveaxis(code.grid, args.direction - 1, 0)
    others = [j for j in (1, 2, 3) if j != args.direction]
    for s in range(sp.q):
        print(f"\nposition {args.direction} = {s}   "
              f"(rows: position {others[0]}, cols: position {others[1]})")
        print(GridSet(sp.q, sp.q, g[s]).render())


if __name__ == "__main__":
    main()
