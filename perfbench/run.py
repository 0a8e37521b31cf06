#!/usr/bin/env python3
"""crcforge benchmark: three in-process workloads with checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,roundtrip,search} \\
        --seed N --seconds S --trace {0,1}

A run sets up (imports crcforge from ./src and generates the inputs from the
seed), then runs whole rounds of the workload until at least S seconds of
items have been timed.  Every item's outputs are checked: structurally the
first time an item is seen, against the references pinned in
perfbench/refs.json, and for equality with the first round afterwards.  An
item that raises is counted as failed, with its exception type, and the run
goes on.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics listed in BENCHMARK.json; with --trace 1 the run adds one
traced round (at one search worker) and reports the per-layer metrics
instead, writing the spans to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5
# the probes' best timings on the reference machine when idle
PROBE_LOOP_REF_S = 4.5e-4
PROBE_CODEC_REF_S = 3.95e-3
CHUNK_S = 0.4
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75)
TAIL_MIN_BEYOND = 10


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Put ./src first on the path; refuse to run against any other copy."""
    if not os.path.isfile(os.path.join(SRC, "crcforge", "__init__.py")):
        fail(f"no crcforge sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import crcforge
    if not os.path.abspath(crcforge.__file__).startswith(SRC + os.sep):
        fail(f"imported crcforge from {crcforge.__file__}, not from {SRC}")


def setup(workload: str, seed: int, tiny: bool):
    """Imports and input generation: what runs before the first timed item."""
    cal_before = calibrate()
    t0 = time.perf_counter()
    import_program()
    import workloads
    wl = workloads.WORKLOADS[workload]
    items = wl.make_round(seed, tiny)
    elapsed = time.perf_counter() - t0
    return wl, items, elapsed * 2 / (cal_before + calibrate())


def setup_probes(args, count: int) -> list[float]:
    """Set-up times of fresh interpreters, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(count):
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            fail(f"set-up probe failed: {p.stderr.strip()}")
        out.append(float(p.stdout.strip().splitlines()[-1]))
    return out


def machine_info(args, workers: int) -> dict:
    def read(path):
        try:
            with open(path, encoding="utf-8") as fp:
                return fp.read()
        except OSError:
            return ""

    cpu = next((ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), None)
    mem = next((ln.split()[1] for ln in read("/proc/meminfo").splitlines()
                if ln.startswith("MemTotal:")), None)
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for ln in lscpu.splitlines():
            if ln.startswith(("L2 cache:", "L3 cache:")):
                k, v = ln.split(":", 1)
                caches[k.split()[0]] = v.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "l2": caches.get("L2"), "l3": caches.get("L3"),
        "mem_total_kb": int(mem) if mem else None, "python": platform.python_version(),
        "numpy": numpy.__version__, "workers": workers, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "commit": commit,
    }


PROBE_DOC = json.dumps([[i % 7, i % 11, i % 13] for i in range(6000)])


def _best_of(repeat: int, fn) -> float:
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _loop() -> None:
    x = 0
    for i in range(8000):
        x += i * i


def _codec() -> None:
    json.dumps(json.loads(PROBE_DOC))


def calibrate() -> float:
    """How slow this machine runs right now, relative to the reference
    machine when idle: the geometric mean of two probes' best timings over
    their reference timings.  One probe is an interpreter loop in L1 cache,
    the other parses and prints a 80 KB JSON text (allocation and memory
    traffic).  Timed regions are divided by this factor, measured just before
    and after them, which cancels most of the speed swings (up to 1.6x on the
    reference machine) that other tenants of a shared machine cause."""
    return math.sqrt(_best_of(5, _loop) / PROBE_LOOP_REF_S
                     * _best_of(3, _codec) / PROBE_CODEC_REF_S)


def speed_scale(probes: list[float], chunk_ends: list[int]) -> list[float]:
    """Per item, the factor that scales its timings to the reference speed.
    Items are timed in chunks of at least CHUNK_S; chunk j lies between
    probes j and j+1.  A single probe is noisy, so each chunk takes the
    median of the four probes nearest to it."""
    scale, start = [], 0
    for j, end in enumerate(chunk_ends):
        near = probes[max(0, j - 1):j + 3]
        scale += [1 / statistics.median(near)] * (end - start)
        start = end
    return scale


def children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    return me.ru_utime + me.ru_stime + children_cpu()


class Run:
    """Timed rounds of one workload plus the checks of their outputs."""

    def __init__(self, wl, items, seed: int, tiny: bool, state: dict):
        self.wl, self.items, self.seed, self.tiny, self.state = wl, items, seed, tiny, state
        self.first: dict[int, list] = {}   # item index -> record of its first run
        self.problems: list[str] = []
        self.errors: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.pinned_checked = False

    def round(self, tracer=None) -> dict:
        """Run every item once.  Per item: wall and CPU seconds, the units it
        completed (0 when it failed), and its speed scale (see calibrate)."""
        lat, cpu, units, records = [], [], [], []
        import workloads
        pinned_now = not self.first
        kids0 = children_cpu()
        probes, chunks, chunk_s = [calibrate()], [], 0.0
        for idx, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = idx
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                outcome = self.wl.run(item, self.state)
                error = None
            except Exception as e:  # a failure of the program: count it and go on
                outcome, error = None, type(e).__name__
            lat.append(time.perf_counter() - t0)
            cpu.append(cpu_seconds() - c0)
            units.append(0)
            chunk_s += lat[-1]
            if chunk_s >= CHUNK_S or idx == len(self.items) - 1:
                probes.append(calibrate())
                chunks.append(idx + 1)
                chunk_s = 0.0
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.errors[error] = self.errors.get(error, 0) + 1
                records.append((item.key, "error", error))
                continue
            full = idx not in self.first
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                record, done, problems = self.observe(item, outcome, full)
            if not full and record != self.first[idx]:
                problems = problems + ["output differs from the first run of this item"]
            self.first.setdefault(idx, record)
            if problems:
                self.failed += 1
                self.problems += [f"{item.key}: {p}" for p in problems]
            else:
                units[-1] = done
            records.append((item.key, item.kind, record))
        if pinned_now:
            pinned = workloads.pinned_problems(self.wl.name, records, self.seed, self.tiny)
            self.pinned_checked = pinned is not None
            self.problems += pinned or []
        return {"lat": lat, "cpu": cpu, "units": units, "scale": speed_scale(probes, chunks),
                "busy": sum(lat),
                "children_cpu": children_cpu() - kids0}

    def observe(self, item, outcome, full: bool):
        try:
            return self.wl.observe(item, outcome, self.state, full)
        except Exception as e:  # an output the checks cannot even read
            return ["unreadable", type(e).__name__], 0, [f"checking raised {type(e).__name__}: {e}"]

    def rounds(self, seconds: float) -> list[dict]:
        out = []
        while not out or sum(r["busy"] for r in out) < seconds:
            out.append(self.round())
        return out


def tail_percentile(per_round: int) -> float:
    """Highest percentile of the ladder with at least ten of one round's
    samples beyond it; the median when a round has too few samples."""
    for p in TAIL_LADDER:
        if per_round * (1 - p / 100) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def peak_rss_kb() -> int:
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def scaled(rounds: list[dict], field: str) -> list[float]:
    """Every item's value in every round, scaled to the reference speed."""
    return [v * f for r in rounds for v, f in zip(r[field], r["scale"])]


def end_to_end(run: Run, rounds: list[dict], rss_kb: int,
               setup_s: list[float]) -> tuple[dict, dict]:
    lat = scaled(rounds, "lat")
    units = sum(u for r in rounds for u in r["units"])
    raw_s = sum(r["busy"] for r in rounds)
    tail_p = tail_percentile(len(run.items))
    values = {
        "setup_s": statistics.median(setup_s),
        "items_per_s": units / sum(lat),
        "item_p50_ms": percentile(lat, 50) * 1e3,
        "item_tail_ms": percentile(lat, tail_p) * 1e3,
        "cpu_s": sum(scaled(rounds, "cpu")) / len(rounds),
        "peak_rss_mb": rss_kb / 1024,
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "items_per_s": (f"{units} units in {sum(lat):.3f} s, {len(rounds)} round(s); "
                        f"unscaled {units / raw_s:.6g} in {raw_s:.3f} s"),
        "item_p50_ms": f"n={len(lat)}",
        "item_tail_ms": f"p{tail_p:g}, n={len(lat)}",
        "cpu_s": f"per round, process and children, n={len(rounds)}",
        "peak_rss_mb": "peak of the process plus peak of its largest child",
        "ok_ratio": (f"fail_ratio={run.failed / run.attempted:.4f} "
                     f"({run.failed} of {run.attempted} failed)"),
    }
    return values, notes


def per_layer(run: Run, rounds: list[dict], workers: int, args) -> tuple[dict, dict]:
    """One traced round (search at one worker) after the untraced rounds."""
    import tracing
    base = statistics.median(sum(scaled([r], "lat")) for r in rounds)
    busy_ratio = 0.0
    if run.wl.name == "search":
        wall = sum(r["busy"] for r in rounds)
        children = sum(r["children_cpu"] for r in rounds)
        busy_ratio = children / (workers * wall)
        run.state["workers"] = 1
        base = sum(scaled([run.round()], "lat"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.round(tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    values, layers = tracing.layer_metrics(tracer.spans)
    values["search.worker_busy_ratio"] = busy_ratio
    values["trace.overhead_ratio"] = sum(scaled([traced], "lat")) / base - 1
    print(f"traced round: {traced['busy']:.3f} s unscaled; "
          f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    print(f"{'layer':<14}{'self_s':>10}{'calls':>10}{'share':>8}")
    for name in sorted(layers, key=lambda k: -layers[k][0]):
        s, c = layers[name]
        print(f"{name:<14}{s:>10.4f}{c:>10d}{s / traced['busy']:>8.1%}")
    spanned = sum(s for s, _ in layers.values())
    print(f"{'(unspanned)':<14}{traced['busy'] - spanned:>10.4f}{'':>10}"
          f"{(traced['busy'] - spanned) / traced['busy']:>8.1%}")
    return values, {}


def load_metric_specs(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    return spec["per_layer" if trace else "end_to_end"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "roundtrip", "search"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the quick tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up in this interpreter and print it")
    args = ap.parse_args()

    if args.setup_probe:
        print(setup(args.workload, args.seed, args.tiny)[2])
        return
    os.chdir(ROOT)
    specs = load_metric_specs(args.trace)
    wl, items, setup0 = setup(args.workload, args.seed, args.tiny)
    workers = min(2, len(os.sched_getaffinity(0))) if args.workload == "search" else 1
    work = os.path.join(".perfbench-work", f"{args.workload}-seed{args.seed}")
    os.makedirs(work, exist_ok=True)
    meta = machine_info(args, workers)
    print("perfbench " + json.dumps(meta, sort_keys=True))
    print(f"{len(items)} items per round")

    run = Run(wl, items, args.seed, args.tiny, {"workers": workers, "work": work})
    try:
        rounds = run.rounds(args.seconds)
        if args.trace:
            values, notes = per_layer(run, rounds, workers, args)
        else:
            rss_kb = peak_rss_kb()  # before the set-up probes, which are children too
            values, notes = end_to_end(run, rounds, rss_kb,
                                       [setup0] + setup_probes(args, SETUP_SAMPLES - 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    item_times = []
    if not args.trace:
        item_times = [[it.key, t] for it, t in zip(items * len(rounds), scaled(rounds, "lat"))]
    metrics = {}
    for m in specs:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<34}{values[m['name']]:>16.6g} {m['unit']:<6} {notes.get(m['name'], '')}")
    for error, count in sorted(run.errors.items()):
        known = wl.known_defects.get(error)
        print(f"failed: {count} x {error}" + (f" (known defect: {known})" if known else ""))
    for p in run.problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {'passed' if not run.problems else f'{len(run.problems)} problem(s)'}; "
          f"pinned references {'compared' if run.pinned_checked else 'not applicable'}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fp:
        json.dump({"meta": meta, "metrics": metrics, "errors": run.errors,
                   "problems": run.problems,
                   "item_seconds": item_times}, fp, indent=1, sort_keys=True)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
