#!/usr/bin/env python3
"""Census of covering-radius-1 completely regular codes in small Hamming spaces.

Enumerates every code exhaustively, tallies codes per (gamma, beta, index),
and checks the realized normalized parameters against the feasibility
classification: every eigenvalue index in H(3,q), and index 2 in H(n,q) for
the other n >= 2, where the classification covers index 2 only.

Usage:
    python3 scripts/census.py                  # default space list
    python3 scripts/census.py --spaces 3,3 --workers 4
    python3 scripts/census.py --spaces '4,2;5,2'
"""

import argparse
import sys
import time

from crcforge.cli import guarded
from crcforge.parameters import feasible_table
from crcforge.search import SearchConstraints, enumerate_crcs, resolve_workers

DEFAULT_SPACES = [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3)]


def census(n: int, q: int, workers) -> bool:
    """Print the census of H(n,q); False if it disagrees with the classification."""
    t0 = time.time()
    summary = enumerate_crcs(SearchConstraints(n, q), workers=workers)
    elapsed = time.time() - t0
    print(f"H({n},{q}): {summary.codes_found} codes, {summary.nodes} nodes, "
          f"{elapsed:.2f}s")
    for g, b, i in sorted(summary.parameter_sets):
        print(f"    gamma={g} beta={b} index={i}")
    if n < 2:
        return True
    table = feasible_table(n, q)  # keyed by the classified indices
    realized = {(min(g, b), i) for g, b, i in summary.parameter_sets if i in table}
    predicted = {(gamma, i) for i, entries in table.items() for gamma, _ in entries}
    status = "MATCH" if realized == predicted else "MISMATCH"
    scope = "" if n == 3 else " at index 2"
    print(f"    classification check{scope}: {status} "
          f"(realized {sorted(realized)}, predicted {sorted(predicted)})")
    return realized == predicted


def parse_spaces(text: str) -> list:
    """'n,q;n,q' -> [(n, q), ...]; ValueError names the first bad entry."""
    spaces = []
    for part in text.split(";"):
        fields = part.split(",")
        try:
            n, q = (int(x) for x in fields)
        except ValueError:
            raise ValueError(f"bad --spaces: {part!r} is not of the form n,q") from None
        try:
            SearchConstraints(n, q)
        except ValueError as e:
            raise ValueError(f"bad --spaces: {part!r}: {e}") from None
        spaces.append((n, q))
    return spaces


def run_census(text, workers) -> int:
    """Census every space of ``text`` (the defaults if None); 1 at the first mismatch."""
    spaces = DEFAULT_SPACES if text is None else parse_spaces(text)
    workers = resolve_workers(workers)
    for n, q in spaces:
        if not census(n, q, workers):
            return 1
    return 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spaces", type=str, default=None,
                    help="comma pair n,q (repeatable via semicolons), e.g. '3,2;3,3'")
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()
    sys.exit(guarded(run_census, args.spaces, args.workers))


if __name__ == "__main__":
    main()
