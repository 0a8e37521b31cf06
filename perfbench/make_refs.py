#!/usr/bin/env python3
"""Write perfbench/refs.json: the outputs pinned for the default seed.

Runs one round of every workload at the default seed, untimed, and refuses
to pin any output that fails its structural check.  Regenerate only when a
change is meant to alter outputs, and say so in the change.

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import os
import shutil

from run import ROOT, import_program


def main() -> None:
    os.chdir(ROOT)
    import_program()
    import workloads
    from workloads import DEFAULT_SEED, WORKLOADS, records_digest

    work = os.path.join(".perfbench-work", "refs")
    os.makedirs(work, exist_ok=True)
    records: dict[str, list] = {}
    try:
        for name, wl in WORKLOADS.items():
            state = {"workers": min(2, len(os.sched_getaffinity(0))), "work": work}
            out = records[name] = []
            for item in wl.make_round(DEFAULT_SEED, False):
                try:
                    outcome = wl.run(item, state)
                except Exception as e:  # pinned as a failure of the program
                    out.append((item.key, "error", type(e).__name__))
                    continue
                record, _units, problems = wl.observe(item, outcome, state, True)
                if problems:
                    raise SystemExit(f"{name} {item.key}: {problems}")
                out.append((item.key, item.kind, record))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    refs = {
        "sweep": {"certificates": records_digest(records["sweep"], ("build", "build_c")),
                  "flips": records_digest(records["sweep"], ("flip",))},
        "roundtrip": {key: {"error": rec} if kind == "error" else {"record": rec}
                      for key, kind, rec in records["roundtrip"]},
        "search": {key: rec for key, _kind, rec in records["search"]},
    }
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fp:
        fp.write(f'{{\n "seed": {DEFAULT_SEED},\n')
        for i, name in enumerate(("sweep", "roundtrip", "search")):
            entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                                  for k, v in sorted(refs[name].items()))
            fp.write(f' "{name}": {{\n{entries}\n }}{"," if i < 2 else ""}\n')
        fp.write("}\n")
    print(f"wrote {os.path.relpath(workloads.REFS_PATH, ROOT)}")


if __name__ == "__main__":
    main()
