"""Spans around the public functions of each crcforge layer.

A Tracer replaces selected module-level functions with wrappers that record
one span per call: (name, start, end, parent span, item id, extra, error).
Spans stay in memory and are written out once, at the end of the run.  The
wrappers are installed from outside the package: every module attribute that
refers to a wrapped function object is swapped, so names imported with
``from .x import f`` are covered as well.  ``uninstall`` restores the
originals.

From the spans, ``layer_metrics`` derives the per-layer figures: self time
(a span's duration minus the time its direct child spans cover), call
counts, and ratios measured where the work happens.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

from crcforge import (cli, codefile, constructions, parameters, search, stochastic,
                      structure, verifier)
from crcforge.verifier import CrcFailure


def _dumps_extra(args, result) -> list:
    return [args[0].size, len(result)]   # codewords, bytes (the text is ASCII)


def _read_extra(args, result) -> list:
    src = args[0]
    return [result[0].size, os.path.getsize(src) if isinstance(src, str) else 0]


def _enumerate_extra(args, result) -> list:
    return [result.nodes, result.codes_found]


def _check_extra(args, result) -> list:
    space = args[0].space
    return [space.size, space.q, int(isinstance(result, CrcFailure))]


def _cover_failed(args, result) -> int:
    return int(isinstance(result, structure.CliqueCoverFailure))


# (module, function name, span name, extra(args, result) or None)
TARGETS = [
    (codefile, "dumps_code", "codefile.dumps_code", _dumps_extra),
    (codefile, "write_code", "codefile.write_code", None),
    (codefile, "read_code", "codefile.read_code", _read_extra),
    *[(constructions, f, f"constructions.{f}", None)
      for f in ("build_index1", "build_index3", "build_a", "build_b", "build_c", "build_d",
                "build_feasible", "build_from_spec", "construction_d_blocks")],
    (stochastic, "build", "stochastic.build", None),
    (stochastic, "to_code", "stochastic.to_code", None),
    (parameters, "solve_condition1", "parameters.solve_condition1", None),
    (parameters, "feasible_h3q", "parameters.feasible_h3q", None),
    (parameters, "feasible_hnq", "parameters.feasible_hnq", None),
    (parameters, "check_condition1", "parameters.check_condition1", None),
    (verifier, "check_crc", "verifier.check_crc", _check_extra),
    (verifier, "distance_partition", "verifier.distance_partition", None),
    (verifier, "neighbor_counts", "verifier.neighbor_counts", None),
    (verifier, "hyperface_profile", "verifier.hyperface_profile", None),
    (verifier, "clique_profile", "verifier.clique_profile", None),
    (verifier, "essential_positions", "verifier.essential_positions", None),
    (verifier, "reduce_code", "verifier.reduce_code", None),
    (verifier, "extend_code", "verifier.extend_code", None),
    (structure, "classify_all", "structure.classify_all", None),
    (structure, "classify", "structure.classify", None),
    (structure, "clique_cover", "structure.clique_cover", _cover_failed),
    (structure, "extract_construction_d", "structure.extract_construction_d", None),
    (search, "enumerate_crcs", "search.enumerate_crcs", _enumerate_extra),
    (cli, "run", "cli.run", None),
]

PROFILE_SPANS = ("verifier.hyperface_profile", "verifier.clique_profile",
                 "verifier.essential_positions")
LARGE_Q = 128


class Tracer:
    """Records spans while installed and enabled; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list = []
        self.item: Optional[int] = None
        self.enabled = True
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, extra: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.item, None, type(e).__name__)
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (name, t0, t1, parent, self.item,
                          extra(args, result) if extra else None, None)
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "crcforge" or k.startswith("crcforge.")]
        for owner, attr, name, extra in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, extra)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    @contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def write(self, path: str) -> None:
        """One JSON array per line: name, start_us, end_us, parent, item, extra, error."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fp:
            for name, t0, t1, parent, item, extra, error in self.spans:
                fp.write(json.dumps([name, round((t0 - base) * 1e6, 1),
                                     round((t1 - base) * 1e6, 1), parent, item, extra, error],
                                    separators=(",", ":")))
                fp.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, plus self seconds and calls
    per layer (the layer being the span name up to its first dot)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    layers: dict[str, list] = {}
    for i, s in enumerate(spans):
        name = s[0]
        incl[name] = incl.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + self_t[i]
        calls[name] = calls.get(name, 0) + 1
        lay = layers.setdefault(name.split(".")[0], [0.0, 0])
        lay[0] += self_t[i]
        lay[1] += 1

    def of(table, *names):
        return sum(table.get(nm, 0) for nm in names)

    dumps = [s for s in spans if s[0] == "codefile.dumps_code" and s[5]]
    reads = [s for s in spans if s[0] == "codefile.read_code" and s[5]]
    codec_words = sum(s[5][0] for s in dumps) + sum(s[5][0] for s in reads)
    codec_bytes = sum(s[5][1] for s in dumps) + sum(s[5][1] for s in reads)
    codec_s = of(incl, "codefile.dumps_code", "codefile.read_code")

    build_names = [t[2] for t in TARGETS if t[2].startswith("constructions.")]
    builds = sum(1 for s in spans if s[0] in build_names
                 and (s[3] < 0 or not spans[s[3]][0].startswith("constructions.")))

    checks = [(i, s) for i, s in enumerate(spans) if s[0] == "verifier.check_crc"]
    check_ok = [(i, s) for i, s in checks if s[5]]
    check_incl = sum(dur[i] for i, _ in checks)
    check_vertices = sum(s[5][0] for _, s in check_ok)
    large_s = sum(dur[i] for i, s in check_ok if s[5][1] >= LARGE_Q)
    check_failures = sum(s[5][2] for _, s in check_ok)

    covers = [s for s in spans if s[0] == "structure.clique_cover"]
    cover_failures = sum(1 for s in covers if s[6] is not None or s[5])

    enums = [s for s in spans if s[0] == "search.enumerate_crcs"]
    enum_ids = {i for i, s in enumerate(spans) if s[0] == "search.enumerate_crcs"}
    nodes = sum(s[5][0] for s in enums if s[5])
    codes = sum(s[5][1] for s in enums if s[5])
    enum_s = incl.get("search.enumerate_crcs", 0.0)
    leaf_s = sum(dur[i] for i, s in checks if s[3] in enum_ids)

    m = {
        "codefile.dumps_code.s": incl.get("codefile.dumps_code", 0.0),
        "codefile.read_code.s": incl.get("codefile.read_code", 0.0),
        "codefile.calls": sum(v for k, v in calls.items() if k.startswith("codefile.")),
        "codefile.bytes": codec_bytes,
        "codefile.codewords_per_s": _ratio(codec_words, codec_s),
        "constructions.build.s": sum(v for k, v in own.items() if k.startswith("constructions.")),
        "constructions.build.calls": builds,
        "stochastic.build.s": incl.get("stochastic.build", 0.0),
        "parameters.solve_condition1.s": incl.get("parameters.solve_condition1", 0.0),
        "parameters.solve_condition1.calls": calls.get("parameters.solve_condition1", 0),
        "parameters.feasible.s": of(own, "parameters.feasible_h3q", "parameters.feasible_hnq"),
        "verifier.check_crc.s": own.get("verifier.check_crc", 0.0),
        "verifier.check_crc.calls": len(checks),
        "verifier.check_crc.failures": check_failures,
        "verifier.distance_partition.s": own.get("verifier.distance_partition", 0.0),
        "verifier.neighbor_counts.s": incl.get("verifier.neighbor_counts", 0.0),
        "verifier.neighbor_counts.calls": calls.get("verifier.neighbor_counts", 0),
        "verifier.neighbor_counts.per_check": _ratio(calls.get("verifier.neighbor_counts", 0),
                                                     len(checks)),
        "verifier.vertices_per_s": _ratio(check_vertices, check_incl),
        "verifier.large.s": large_s,
        "verifier.profiles.s": of(incl, *PROFILE_SPANS),
        "structure.classify_all.s": incl.get("structure.classify_all", 0.0),
        "structure.classify.calls": calls.get("structure.classify", 0),
        "structure.clique_cover.s": incl.get("structure.clique_cover", 0.0),
        "structure.clique_cover.failures": cover_failures,
        "search.enumerate.s": enum_s,
        "search.nodes": nodes,
        "search.codes_per_node": _ratio(codes, nodes),
        "search.leaf_verify.s": leaf_s,
        "search.leaf_verify.share": _ratio(leaf_s, enum_s),
        "search.dfs.s": enum_s - leaf_s,
        "cli.run.self_s": own.get("cli.run", 0.0),
    }
    return m, layers
