"""Command-line interface.

Exit codes: 0 = success / feasible / verified; 1 = verification failed or
parameters infeasible; 2 = usage or file-format error, or out of memory;
141 = stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from . import constructions, parameters, search, structure, verifier
from .codefile import CodeFileError, dumps_code, read_code, write_code
from .hamming import Code
from .parameters import ConditionOneWitness
from .verifier import CheckResult, CrcCertificate, CrcFailure


def certificate_dict(cert: CrcCertificate) -> dict:
    d = {
        "rho": cert.rho,
        "size": cert.size,
        "betas": list(cert.betas),
        "gammas": list(cert.gammas),
        "alphas": list(cert.alphas),
    }
    if cert.rho == 1:
        d.update({
            "gamma": cert.gamma,
            "beta": cert.beta,
            "alpha0": cert.alpha0,
            "alpha1": cert.alpha1,
            "eigenvalues": list(cert.code_eigenvalues),
            "eigenvalue_index": cert.eigenvalue_index,
        })
    return d


def _emit(code: Code, meta: dict, output: Optional[str]) -> None:
    if output:
        write_code(code, output, meta)
        sp = code.space
        print(f"wrote H({sp.n},{sp.q}) code with {code.size} codewords to {output}")
    else:
        sys.stdout.write(dumps_code(code, meta))


def _check_report(code: Code) -> CheckResult:
    """Print the code's space and size, then its certificate or first
    failure; return the check's result."""
    sp = code.space
    print(f"H({sp.n},{sp.q}), {code.size} codewords")
    res = verifier.check_crc(code)
    if isinstance(res, CrcFailure):
        lines = _failure_report(res)
    elif res.rho == 1:
        ev, idx = res.code_eigenvalues, res.eigenvalue_index
        lines = ["completely regular, covering radius 1",
                 f"gamma={res.gamma} beta={res.beta} alpha0={res.alpha0} alpha1={res.alpha1}",
                 f"code eigenvalues ({ev[0]}, {ev[1]}), eigenvalue index "
                 f"{idx if idx is not None else 'none'}"]
    else:
        lines = [f"completely regular, covering radius {res.rho}",
                 f"betas={list(res.betas)} gammas={list(res.gammas)} alphas={list(res.alphas)}"]
    print("\n".join(lines))
    return res


def _failure_report(fail: CrcFailure) -> list[str]:
    return [
        "not completely regular",
        f"vertex {list(fail.witness_vertex)} in layer {fail.class_index} has "
        f"{fail.observed_count} neighbors in layer {fail.target_class}; "
        f"the layer's first vertex has {fail.expected_count}",
    ]


def _parse_witness(text: str) -> ConditionOneWitness:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError(f"--witness needs six comma-separated integers r,s,t,a,b,c, got {text!r}")
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"--witness needs integers, got {text!r}")
    return ConditionOneWitness(*vals)


def cmd_construct(args) -> int:
    kind, flag = args.kind, constructions.PARAMETER[args.kind]
    value = getattr(args, flag)
    if value is None:
        raise ValueError(f"construct {kind} needs --{flag}")
    if other := [f"--{f}" for f in dict.fromkeys(constructions.PARAMETER.values())
                 if f != flag and getattr(args, f) is not None]:
        raise ValueError(f"construct {kind} takes --{flag} only, not {', '.join(other)}")
    spec = constructions.spec_for(kind, args.q, _parse_witness(value) if kind == "d" else value)
    code = constructions.build_from_spec(spec)
    cert = verifier.check_crc(code)
    if not isinstance(cert, CrcCertificate):
        print("construction self-check failed:", file=sys.stderr)
        for line in _failure_report(cert):
            print(f"  {line}", file=sys.stderr)
        return 1
    meta = {"construction": spec, "certificate": certificate_dict(cert)}
    _emit(code, meta, args.output)
    return 0


def cmd_verify(args) -> int:
    res = _check_report(read_code(args.file)[0])
    if isinstance(res, CrcFailure):
        return 1
    ok = True
    if args.expect_gamma is not None or args.expect_beta is not None or args.expect_index is not None:
        if res.rho != 1:
            print(f"expected rho=1 parameters but covering radius is {res.rho}")
            ok = False
        else:
            for name, want, got in (("gamma", args.expect_gamma, res.gamma),
                                    ("beta", args.expect_beta, res.beta),
                                    ("index", args.expect_index, res.eigenvalue_index)):
                if want is not None and want != got:
                    print(f"expected {name}={want}, got {got}")
                    ok = False
    return 0 if ok else 1


def cmd_reduce(args) -> int:
    code, _ = read_code(args.file)
    reduced = verifier.reduce_code(code)
    ess = verifier.essential_positions(code)
    _emit(reduced, {"reduced_from": {"n": code.space.n, "essential_positions": list(ess)}},
          args.output)
    return 0


def cmd_extend(args) -> int:
    code, _ = read_code(args.file)
    extended = verifier.extend_code(code, args.at)
    _emit(extended, {"extended": {"at_position": args.at}}, args.output)
    return 0


def cmd_complement(args) -> int:
    code, _ = read_code(args.file)
    _emit(code.complement(), {"complement_of_size": code.size}, args.output)
    return 0


def cmd_params(args) -> int:
    if args.params_cmd == "feasible":
        verdict = parameters.feasible(args.n, args.q, args.gamma, args.index)
        word = "feasible" if verdict.feasible else "infeasible"
        print(f"gamma={args.gamma} index={args.index} in H({args.n},{args.q}): {word}")
        print(f"rule: {verdict.rule}")
        if verdict.witness is not None:
            w = verdict.witness
            print(f"witness: r={w.r} s={w.s} t={w.t} a={w.a} b={w.b} c={w.c}")
        return 0 if verdict.feasible else 1

    if args.params_cmd == "solve-c1":
        ws = parameters.solve_condition1(args.q, args.gamma)
        for w in ws:
            print(f"r={w.r} s={w.s} t={w.t} a={w.a} b={w.b} c={w.c} gamma={w.gamma}")
        label = f"gamma={args.gamma}" if args.gamma is not None else "any gamma"
        print(f"{len(ws)} witness(es) for q={args.q}, {label}")
        return 0 if ws else 1

    # lambda
    idxs = [args.i] if args.i is not None else list(range(args.n + 1))
    for i in idxs:
        lam = parameters.eigenvalue(args.n, args.q, i)
        mult = parameters.multiplicity(args.n, args.q, i)
        print(f"lambda_{i}(H({args.n},{args.q})) = {lam}  multiplicity {mult}")
    return 0


def cmd_analyze(args) -> int:
    code, _ = read_code(args.file)
    sp = code.space
    _check_report(code)
    ess = verifier.essential_positions(code)
    print(f"essential positions: {list(ess) if ess else 'none'}")
    hp = verifier.hyperface_profile(code)
    if (hp == hp.flat[0]).all():
        print(f"hyperface counts: all {hp.flat[0]}")
    else:
        for j in range(sp.n):
            print(f"hyperface counts, position {j + 1}: {hp[j].tolist()}")
    cp = verifier.clique_profile(code)
    if (cp == cp.flat[0]).all():
        print(f"clique counts: all {cp.flat[0]}")

    if args.derivatives:
        if sp.n != 3:
            print("derivative classification needs n=3; skipped")
        else:
            kinds = structure.derivative_kinds(code)
            # the diagonal u = v is no derivative of the code
            tally = np.bincount(kinds[:, ~np.eye(sp.q, dtype=bool)].ravel(),
                                minlength=len(structure.KINDS)).tolist()
            lines = ["derivatives: " + " ".join(f"{k}={v}" for k, v in zip(structure.KINDS, tally))]
            lines += [f"  unclassified: position {i + 1}, symbols {u},{v}"
                      for i, u, v in np.argwhere(kinds == structure.UNCLASSIFIED).tolist()]
            print("\n".join(lines))

    if args.cliques:
        if sp.n != 3:
            print("clique decomposition needs n=3; skipped")
        else:
            res = structure.clique_cover(code)
            if isinstance(res, structure.CliqueCoverFailure):
                detail = res.detail or ""
                where = f" at vertex {res.witness_vertex}" if res.witness_vertex else ""
                print(f"clique cover: {res.kind}{where} ({detail})")
            else:
                counts = res.lines.sum(axis=(1, 2)).tolist()
                print(f"clique cover: partition into {sum(counts)} cliques, "
                      f"codirection counts {counts}")
                print(f"strong clique property: {'yes' if res.strong else 'no'}")
                if res.strong:
                    w = res.witness
                    print(f"block witness: r={w.r} s={w.s} t={w.t} a={w.a} b={w.b} c={w.c}")
    return 0


def cmd_search(args) -> int:
    if args.emit and args.count_only:
        raise ValueError("--emit and --count-only exclude each other: "
                         "--count-only keeps no codes to write")
    try:
        stale = args.emit and os.path.isdir(args.emit) and os.listdir(args.emit)
    except OSError as e:
        raise CodeFileError(f"cannot read {args.emit}: {e}") from e
    if stale:
        raise ValueError(f"--emit directory {args.emit} is not empty: "
                         "its files would mix with this search's")
    constraints = search.SearchConstraints(
        args.n, args.q, gamma=args.gamma, eigenvalue_index=args.index,
        fix_first_codeword=args.fix_zero)
    emitted = []
    sink = (lambda *pair: emitted.append(pair)) if args.emit else None
    summary = search.enumerate_crcs(constraints, sink=sink, workers=args.workers,
                                    count_only=args.count_only)
    print(f"search H({args.n},{args.q}): {summary.codes_found} code(s), "
          f"{summary.nodes} nodes")
    for g, b, i in sorted(summary.parameter_sets):
        print(f"  gamma={g} beta={b} index={i}")
    if args.emit:  # index.json too when nothing was found
        try:
            os.makedirs(args.emit, exist_ok=True)
        except OSError as e:
            raise CodeFileError(f"cannot write {args.emit}: {e}") from e
        width = max(4, len(str(len(emitted) - 1)))
        index_lines = []
        for k, (code, cert) in enumerate(emitted):
            name = f"code_{k:0{width}d}.json"
            path = os.path.join(args.emit, name)
            write_code(code, path, {"search": {"n": args.n, "q": args.q},
                                    "certificate": certificate_dict(cert)})
            index_lines.append({"file": name, "size": code.size,
                                "gamma": cert.gamma, "beta": cert.beta,
                                "index": cert.eigenvalue_index})
        index_path = os.path.join(args.emit, "index.json")
        try:
            with open(index_path, "w", encoding="utf-8") as fp:
                json.dump({"space": {"n": args.n, "q": args.q},
                           "codes": index_lines}, fp, indent=2, sort_keys=True)
                fp.write("\n")
        except OSError as e:
            raise CodeFileError(f"cannot write {index_path}: {e}") from e
        print(f"emitted {len(emitted)} file(s) to {args.emit}")
    return 0


def feasible_tables(q_max: int):
    """Yield (q, feasible_table(3, q)) for q = 2 .. q_max; ValueError below 2."""
    if q_max < 2:
        raise ValueError(f"--q-max {q_max} is below the least alphabet size 2")
    for q in range(2, q_max + 1):
        yield q, parameters.feasible_table(3, q)


def cmd_table(args) -> int:
    for q, table in feasible_tables(args.q_max):
        cells = []
        for index, entries in table.items():
            feas = ",".join(f"{gamma}{'' if v.witness is None else '*'}" for gamma, v in entries)
            cells.append(f"i={index}: {feas or '-'}")
        print(f"q={q:<3d} " + "   ".join(cells))
    print("(* = realized through the three-block system)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser every ``run`` call shares; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="crcforge",
        description="Completely regular codes with covering radius 1 in Hamming graphs: "
                    "construct, verify, analyze, search.")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a code and write it as JSON")
    c.add_argument("kind", choices=list(constructions.PARAMETER))
    c.add_argument("--q", type=int, required=True, help="alphabet size")
    c.add_argument("--gamma", type=int, help="total degree (kind a)")
    c.add_argument("--variant", type=int, choices=[1, 2], help="seed variant (kind b)")
    c.add_argument("--t", type=int, help="split size (kind c)")
    c.add_argument("--witness", type=str, help="r,s,t,a,b,c (kind d)")
    c.add_argument("--m", type=int, help="interval size (index1) / diagonal count (index3)")
    c.add_argument("-o", "--output", help="output file (default: stdout)")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="check complete regularity of a code file")
    v.add_argument("file")
    v.add_argument("--expect-gamma", type=int)
    v.add_argument("--expect-beta", type=int)
    v.add_argument("--expect-index", type=int)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("reduce", help="drop non-essential positions")
    r.add_argument("file")
    r.add_argument("-o", "--output")
    r.set_defaults(func=cmd_reduce)

    e = sub.add_parser("extend", help="insert a non-essential position")
    e.add_argument("file")
    e.add_argument("--at", type=int, required=True, help="insertion position (1-based)")
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_extend)

    k = sub.add_parser("complement", help="complement the codeword set")
    k.add_argument("file")
    k.add_argument("-o", "--output")
    k.set_defaults(func=cmd_complement)

    pa = sub.add_parser("params", help="spectral and feasibility computations")
    psub = pa.add_subparsers(dest="params_cmd", required=True)
    pf = psub.add_parser("feasible", help="decide (gamma, index) feasibility")
    pf.add_argument("--n", type=int, default=3)
    pf.add_argument("--q", type=int, required=True)
    pf.add_argument("--gamma", type=int, required=True)
    pf.add_argument("--index", type=int, default=2)
    pf.set_defaults(func=cmd_params)
    pc = psub.add_parser("solve-c1", help="enumerate three-block system witnesses")
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--gamma", type=int)
    pc.set_defaults(func=cmd_params)
    pl = psub.add_parser("lambda", help="eigenvalues of H(n,q)")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--q", type=int, required=True)
    pl.add_argument("--i", type=int)
    pl.set_defaults(func=cmd_params)

    a = sub.add_parser("analyze", help="profiles, derivatives, clique structure")
    a.add_argument("file")
    a.add_argument("--derivatives", action="store_true")
    a.add_argument("--cliques", action="store_true")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("search", help="enumerate all codes in a small space")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--gamma", type=int)
    s.add_argument("--index", type=int)
    s.add_argument("--emit", help="directory for the found codes: one file per code, and index.json")
    s.add_argument("--count-only", action="store_true",
                   help="keep no codes, only count them: a no-op without --emit, "
                        "an error with it")
    s.add_argument("--fix-zero", action="store_true",
                   help="anchor the all-zero word into the code")
    s.add_argument("--workers", type=int,
                   help=f"searching processes, the caller included (default: "
                        f"${search.WORKERS_ENV}, else min(4, cpus))")
    s.set_defaults(func=cmd_search)

    t = sub.add_parser("table", help="feasible gamma per (q, index) summary")
    t.add_argument("--q-max", type=int, required=True)
    t.set_defaults(func=cmd_table)

    return p


def guarded(func, *args) -> int:
    """Return ``func(*args)``, an exit code, with stdout flushed.  Bad input,
    a ValueError or a MemoryError, ends in one ``error: ...`` line and 2: the
    one error path of ``run`` and of every script.  A reader that closed
    stdout ends it quietly, with 141 as a SIGPIPE would."""
    try:
        status = func(*args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout now writes to the null device, so the interpreter's exit
        # flush of what is still buffered stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as e:  # CodeFileError is a ValueError
        print(f"error: {e}", file=sys.stderr)
    except MemoryError as e:  # a space too large for this machine
        print(f"error: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
    return 2


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    return guarded(args.func, args)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
