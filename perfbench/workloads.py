"""The three workloads: inputs from a seed, the timed call per item, and the
output checks.

Each workload provides
- ``make_round(seed, tiny)``: the items of one round, a pure function of the
  seed (``tiny`` shrinks every size for the quick tests);
- ``run(item, state)``: the timed call into crcforge for one item;
- ``observe(item, outcome, state, full)``: untimed; returns the item's record
  (a JSON-able summary of its outputs), the units it completed for
  ``items_per_s``, and the problems found by the structural checks, which
  run only when ``full`` is set (the first time an item is seen);
- ``pinned(records, seed, refs)``: compares the first round's records with
  the workload's references pinned in ``refs.json``.

Calls go through module attributes (``verifier.check_crc``, ``cli.run``) so
that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np
from crcforge import cli, codefile, constructions, parameters, search, verifier
from crcforge.hamming import Code
from crcforge.parameters import ConditionOneWitness
from crcforge.verifier import CrcCertificate, CrcFailure

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Item:
    key: str    # identity of the input; pinned references are looked up by it
    kind: str
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[int, bool], list]
    run: Callable
    observe: Callable
    pinned: Callable
    known_defects: dict


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fp:
        return json.load(fp)


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Definition-level oracles (independent of the verifier's line-sum counting)

def distance_to_code(grid, u: tuple) -> int:
    """Hamming distance from vertex u to the code: n minus the largest number
    of positions on which u agrees with some codeword."""
    n = grid.ndim
    for d in range(n + 1):
        for keep in combinations(range(n), n - d):
            idx = tuple(u[j] if j in keep else slice(None) for j in range(n))
            if grid[idx].any():
                return d
    raise ValueError("empty code")


def neighbors_of(u: tuple, q: int):
    for j in range(len(u)):
        for s in range(q):
            if s != u[j]:
                yield u[:j] + (s,) + u[j + 1:]


def check_failure_by_definition(grid, q: int, fail: CrcFailure) -> list[str]:
    """The witness lies in its layer and really deviates from the expected
    count when its neighbors are recounted by distance."""
    w = fail.witness_vertex
    if distance_to_code(grid, w) != fail.class_index:
        return [f"witness {w} is not in layer {fail.class_index}"]
    got = sum(1 for v in neighbors_of(w, q) if distance_to_code(grid, v) == fail.target_class)
    if got != fail.observed_count:
        return [f"witness {w}: recount {got} != reported {fail.observed_count}"]
    if got == fail.expected_count:
        return [f"witness {w} does not deviate (count {got})"]
    return []


def check_certificate_by_definition(grid, q: int, cert: CrcCertificate) -> list[str]:
    """Recompute every layer and both counts for every vertex (small q only)."""
    dist = {tuple(int(c) for c in v): distance_to_code(grid, tuple(int(c) for c in v))
            for v in np.ndindex(grid.shape)}
    rho = max(dist.values())
    if rho != cert.rho:
        return [f"covering radius {rho} != certified {cert.rho}"]
    seen: dict[tuple[int, int], set] = {}
    for v, i in dist.items():
        for t in (i - 1, i + 1):
            if 0 <= t <= rho:
                c = sum(1 for u in neighbors_of(v, q) if dist[u] == t)
                seen.setdefault((i, t), set()).add(c)
    for i in range(rho + 1):
        if i < rho and seen[(i, i + 1)] != {cert.betas[i]}:
            return [f"layer {i}: outward counts {sorted(seen[(i, i + 1)])} != {cert.betas[i]}"]
        if i > 0 and seen[(i, i - 1)] != {cert.gammas[i - 1]}:
            return [f"layer {i}: inward counts {sorted(seen[(i, i - 1)])} != {cert.gammas[i - 1]}"]
    return []


def result_record(res) -> list:
    if isinstance(res, CrcCertificate):
        return ["cert", res.rho, res.size, list(res.betas), list(res.gammas)]
    return ["fail", list(res.witness_vertex), res.class_index, res.target_class,
            res.observed_count, res.expected_count]


def records_digest(records: list, kinds: tuple) -> str:
    """Records are (key, item kind or "error", record)."""
    lines = [f"{key}={json.dumps(rec)}" for key, kind, rec in records if kind in kinds]
    return digest("\n".join(lines))


# ---------------------------------------------------------------------------
# sweep: build and verify every feasible (gamma, index) of H(3,q), then a
# one-vertex flip of each code; two large codes at the end.

CERT_DEFINITION_MAX_Q = 8


def sweep_round(seed: int, tiny: bool) -> list:
    qs = range(2, 7) if tiny else range(2, 41)
    large = (8,) if tiny else (128, 256)
    rng = random.Random(f"sweep:{seed}")
    items = []
    for q in qs:
        for index in (1, 2, 3):
            for gamma in range(1, q * index // 2 + 1):
                if parameters.feasible_h3q(q, gamma, index).feasible:
                    key = f"H(3,{q}) gamma={gamma} index={index}"
                    items.append(Item(key, "build", (q, gamma, index)))
                    items.append(Item(key + " flip", "flip", (q, rng.randrange(q ** 3))))
    for q in large:
        key = f"H(3,{q}) c t={q // 2 + 1}"
        items.append(Item(key, "build_c", (q, q // 2 + 1)))
        items.append(Item(key + " flip", "flip", (q, rng.randrange(q ** 3))))
    return items


def sweep_run(item: Item, state: dict):
    if item.kind == "flip":
        base = state.pop("code", None)
        if base is None:
            raise RuntimeError("no code to flip: its build item failed")
        mask = base.mask.copy()
        v = item.args[1]
        mask[v] = not mask[v]
        code = Code(base.space, mask)
    elif item.kind == "build":
        code, _spec = constructions.build_feasible(*item.args)
        state["code"] = code
    else:
        code = constructions.build_c(*item.args)
        state["code"] = code
    return code, verifier.check_crc(code)


def sweep_observe(item: Item, outcome, state: dict, full: bool):
    code, res = outcome
    problems = []
    if full:
        q = code.space.q
        if item.kind == "flip":
            if isinstance(res, CrcFailure):
                problems = check_failure_by_definition(code.grid, q, res)
            elif q <= CERT_DEFINITION_MAX_Q:
                problems = check_certificate_by_definition(code.grid, q, res)
            else:
                problems = [f"flipped code certified completely regular: {res}"]
        else:
            gamma, index = item.args[1:] if item.kind == "build" else (item.args[1], 2)
            if not isinstance(res, CrcCertificate):
                problems = [f"built code not completely regular: {res}"]
            elif (res.rho, res.gamma, res.eigenvalue_index) != (1, gamma, index):
                problems = [f"certificate rho={res.rho} gamma={res.gamma} "
                            f"index={res.eigenvalue_index}, requested gamma={gamma} index={index}"]
    return result_record(res), 1, problems


def sweep_pinned(records: list, seed: int, refs: dict) -> list[str]:
    problems = []
    if records_digest(records, ("build", "build_c")) != refs["certificates"]:
        problems.append("certificate digest differs from the pinned one")
    if seed == DEFAULT_SEED and records_digest(records, ("flip",)) != refs["flips"]:
        problems.append("digest of the flipped codes' results differs from the pinned one")
    return problems


# ---------------------------------------------------------------------------
# roundtrip: construct -> verify -> analyze through cli.run, in-process.

DERIVATIVES_RE = re.compile(r"derivatives: zero=(\d+) string=(\d+) cross=(\d+) unclassified=(\d+)")


def _witnesses(q: int) -> list:
    return sorted(parameters.solve_condition1(q), key=lambda w: (w.gamma, w.as_tuple()))


def roundtrip_round(seed: int, tiny: bool) -> list:
    """Two halves of 7 items per q.  The seed draws one parameter for each of
    a, c and d per q; the second half takes the mirror image of that draw in
    the sorted parameter list, so the round's work hardly depends on the seed."""
    qs = (6, 8) if tiny else (24, 32, 48)
    rng = random.Random(f"roundtrip:{seed}")
    halves: tuple[list, list] = ([], [])
    for q in qs:
        drawn = {
            "a": [("--gamma", str(g)) for g in range(2, q + 1, 2)],
            "c": [("--t", str(t)) for t in range(q // 2 + 1, q)],
            "d": [("--witness", ",".join(map(str, w.as_tuple()))) for w in _witnesses(q)],
        }
        picks = {k: rng.randrange(len(v)) for k, v in drawn.items()}
        for h, half in enumerate(halves):
            for kind, params in (
                    ("a", drawn["a"][picks["a"] if h == 0 else len(drawn["a"]) - 1 - picks["a"]]),
                    ("b", ("--variant", "1")),
                    ("b", ("--variant", "2")),
                    ("c", drawn["c"][picks["c"] if h == 0 else len(drawn["c"]) - 1 - picks["c"]]),
                    ("d", drawn["d"][picks["d"] if h == 0 else len(drawn["d"]) - 1 - picks["d"]]),
                    ("index1", ("--m", str(q // 2))),
                    ("index3", ("--m", str(q // 2)))):
                half.append(Item(f"{q} {kind} {' '.join(params)}", kind, (q,) + params))
    return halves[0] + halves[1]


def roundtrip_run(item: Item, state: dict):
    q, flag, value = item.args
    path = os.path.join(state["work"], f"{q}-{item.kind}-{value}.json")
    outs = []
    for argv in (["construct", item.kind, "--q", str(q), flag, value, "-o", path],
                 ["verify", path],
                 ["analyze", path, "--derivatives", "--cliques"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.run(argv)
        outs.append((rc, buf.getvalue()))
    return path, outs


def roundtrip_expected(item: Item) -> tuple[Code, int, int]:
    """The code the item should produce, built directly, with its designed
    (gamma, eigenvalue index)."""
    q, _flag, value = item.args
    kind = item.kind
    if kind == "d":
        w = ConditionOneWitness(*map(int, value.split(",")))
        return constructions.build_d(q, w), w.gamma, 2
    v = int(value)
    if kind == "a":
        return constructions.build_a(q, v), v, 2
    if kind == "b":
        return constructions.build_b(q, v), q // 2 if v == 1 else q, 2
    if kind == "c":
        return constructions.build_c(q, v), v, 2
    if kind == "index1":
        return constructions.build_index1(q, v), v, 1
    return constructions.build_index3(q, v), 3 * v, 3


def roundtrip_observe(item: Item, outcome, state: dict, full: bool):
    path, outs = outcome
    with open(path, "rb") as fp:
        data = fp.read()
    record = [[rc for rc, _ in outs], digest(data), digest(outs[1][1]), digest(outs[2][1])]
    problems = []
    if full:
        q = item.args[0]
        want, gamma, index = roundtrip_expected(item)
        if record[0] != [0, 0, 0]:
            problems.append(f"exit codes {record[0]}: {outs}")
        else:
            code, meta = codefile.read_code(path)
            cert = meta.get("certificate", {})
            if code != want:
                problems.append("read_code does not return the built code")
            if (cert.get("gamma"), cert.get("eigenvalue_index")) != (gamma, index):
                problems.append(f"certificate {cert} does not match gamma={gamma} index={index}")
            if f"gamma={gamma} beta=" not in outs[1][1]:
                problems.append(f"verify does not report gamma={gamma}: {outs[1][1]!r}")
            m = DERIVATIVES_RE.search(outs[2][1])
            if not m or sum(map(int, m.groups())) != 3 * q * (q - 1):
                problems.append("analyze does not classify all 3q(q-1) derivatives")
            if "clique cover:" not in outs[2][1]:
                problems.append("analyze prints no clique cover")
    return record, 1, problems


def roundtrip_pinned(records: list, seed: int, refs: dict) -> list[str]:
    """Outputs of every item whose input was pinned (any seed): file bytes,
    verify and analyze output, exit codes.  Items pinned as failing (the known
    defect) are left to the structural checks."""
    problems = []
    for key, kind, rec in records:
        ref = refs.get(key)
        if ref is None or ref.get("error") or kind == "error":
            continue
        if rec != ref["record"]:
            problems.append(f"{key}: outputs {rec} differ from pinned {ref['record']}")
    return problems


# ---------------------------------------------------------------------------
# search: exhaustive enumeration, the census path.

SEARCH_SPACES = ((2, 5, None, None), (5, 2, None, None), (3, 3, None, None),
                 (3, 4, 3, 2), (3, 4, 4, 2))
SEARCH_SPACES_TINY = ((2, 3, None, None), (3, 2, None, None), (2, 4, 2, 2))


def search_round(seed: int, tiny: bool) -> list:
    spaces = list(SEARCH_SPACES_TINY if tiny else SEARCH_SPACES)
    random.Random(f"search:{seed}").shuffle(spaces)
    items = []
    for n, q, gamma, index in spaces:
        key = f"H({n},{q})" + (f" gamma={gamma} index={index}" if gamma else "")
        items.append(Item(key, "search", (n, q, gamma, index)))
    return items


def search_run(item: Item, state: dict):
    n, q, gamma, index = item.args
    c = search.SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index)
    return search.enumerate_crcs(c, workers=state["workers"], count_only=True)


def _feasible(n: int, q: int, gamma: int, index: int) -> bool:
    if n == 3:
        return parameters.feasible_h3q(q, gamma, index).feasible
    return index == 2 and parameters.feasible_hnq(n, q, gamma).feasible


def search_observe(item: Item, summary, state: dict, full: bool):
    n, q, gamma_t, index_t = item.args
    params = sorted(list(p) for p in summary.parameter_sets)
    record = [summary.codes_found, summary.nodes, params]
    problems = []
    if full:
        # realized (gamma, index) under the gamma <= beta normalization
        realized = {(min(g, b), i) for g, b, i in summary.parameter_sets}
        if gamma_t is not None:
            expected = {(gamma_t, index_t)} if _feasible(n, q, gamma_t, index_t) else set()
        else:
            expected = {(g, i) for i in range(1, n + 1) for g in range(1, q * i // 2 + 1)
                        if (n == 3 or i == 2) and _feasible(n, q, g, i)}
            if n != 3:
                realized = {(g, i) for g, i in realized if i == 2}
        if realized != expected:
            problems.append(f"realized pairs {sorted(realized)} != feasible {sorted(expected)}")
    return record, summary.codes_found, problems


def search_pinned(records: list, seed: int, refs: dict) -> list[str]:
    problems = []
    for key, kind, rec in records:
        if kind != "error" and rec != refs[key]:
            problems.append(f"{key}: {rec} differs from pinned {refs[key]}")
    return problems


KNOWN_RECURSION = ("structure._exact_cover recurses once per chosen clique and raises "
                   "RecursionError near 990 cliques (index1 q=48 m=24; kind d with large gamma)")

WORKLOADS = {
    "sweep": Workload("sweep", sweep_round, sweep_run, sweep_observe, sweep_pinned, {}),
    "roundtrip": Workload("roundtrip", roundtrip_round, roundtrip_run, roundtrip_observe,
                          roundtrip_pinned, {"RecursionError": KNOWN_RECURSION}),
    "search": Workload("search", search_round, search_run, search_observe, search_pinned, {}),
}


def pinned_problems(workload: str, records: list, seed: int, tiny: bool) -> Optional[list[str]]:
    """None when nothing is pinned for these inputs (tiny sizes)."""
    if tiny:
        return None
    return WORKLOADS[workload].pinned(records, seed, load_refs()[workload])
