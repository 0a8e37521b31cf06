#!/usr/bin/env python3
"""Render a three-dimensional code as ASCII hyperface layers.

Reads a code file (as produced by ``crcforge construct``) and prints, for
each symbol of the chosen direction, the q x q slice of the indicator with
'*' for codewords.  A file that cannot be read, a space other than H(3,q),
a bad --direction, an empty or full code and a space too large for memory
each end in one error line and exit status 2.

Usage:
    crcforge construct c --q 6 --t 5 -o /tmp/c65.json
    python3 scripts/render_layers.py /tmp/c65.json --direction 3
"""

import argparse
import sys

import numpy as np

from crcforge.cli import guarded
from crcforge.codefile import read_code
from crcforge.verifier import CrcCertificate, check_crc


def render(path: str, direction: int) -> int:
    code, _meta = read_code(path)
    sp = code.space
    if sp.n != 3:
        raise ValueError(f"layer rendering needs n=3, file has n={sp.n}")
    if not 1 <= direction <= 3:
        raise ValueError(f"--direction must be 1..3, got {direction}")
    cert = check_crc(code)  # a ValueError on the empty code and the whole space
    head = f"H(3,{sp.q}), {code.size} codewords"
    if isinstance(cert, CrcCertificate) and cert.rho == 1:
        head += f", gamma={cert.gamma} beta={cert.beta}"
    print(head)

    g = np.moveaxis(code.grid, direction - 1, 0)
    others = [j for j in (1, 2, 3) if j != direction]
    for s in range(sp.q):
        print(f"\nposition {direction} = {s}   "
              f"(rows: position {others[0]}, cols: position {others[1]})")
        print("\n".join("".join("*" if c else "." for c in row) for row in g[s]))
    return 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", help="code file to render")
    ap.add_argument("--direction", type=int, default=1,
                    help="position whose symbols index the layers (1-based)")
    args = ap.parse_args()
    sys.exit(guarded(render, args.file, args.direction))


if __name__ == "__main__":
    main()
