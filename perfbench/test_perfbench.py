"""Quick tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = bench_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = WORKLOADS[workload].make_round
    assert make(7, False) == make(7, False)
    assert make(7, True) == make(7, True)


@pytest.mark.parametrize("workload", ["sweep", "roundtrip"])
def test_seed_changes_the_drawn_inputs(workload):
    make = WORKLOADS[workload].make_round
    assert make(1, False) != make(2, False)


def test_roundtrip_mirrors_each_draw():
    items = WORKLOADS["roundtrip"].make_round(3, False)
    half = len(items) // 2
    assert [i.kind for i in items[:half]] == [i.kind for i in items[half:]]
    for kind in ("b", "index1", "index3"):
        assert ([i for i in items[:half] if i.kind == kind]
                == [i for i in items[half:] if i.kind == kind])


def test_flipped_byte_in_a_written_file_fails_the_gates(tmp_path):
    wl = WORKLOADS["roundtrip"]
    state = {"work": str(tmp_path), "workers": 1}
    item = next(i for i in wl.make_round(0, True) if i.kind == "c")
    path, outs = wl.run(item, state)
    record, _units, problems = wl.observe(item, (path, outs), state, True)
    assert problems == []
    refs = {item.key: {"record": record}}
    assert wl.pinned([(item.key, item.kind, record)], 0, refs) == []

    with open(path, "rb") as fp:
        data = bytearray(fp.read())
    at = data.index(b"[0, 0, ") + 1   # a codeword's first symbol: 0 -> 1
    data[at] = ord("1")
    with open(path, "wb") as fp:
        fp.write(bytes(data))

    bad, _units, problems = wl.observe(item, (path, outs), state, True)
    assert wl.pinned([(item.key, item.kind, bad)], 0, refs)
    assert any("read_code" in p for p in problems)


def test_changed_sweep_record_fails_the_digest():
    wl = WORKLOADS["sweep"]
    items = wl.make_round(0, True)[:4]
    state = {}
    records = []
    for item in items:
        rec, _units, problems = wl.observe(item, wl.run(item, state), state, True)
        assert problems == []
        records.append((item.key, item.kind, rec))
    refs = {"certificates": workloads.records_digest(records, ("build", "build_c")),
            "flips": workloads.records_digest(records, ("flip",))}
    assert wl.pinned(records, workloads.DEFAULT_SEED, refs) == []
    key, kind, rec = records[1]
    changed = records[:1] + [(key, kind, rec[:-1] + [rec[-1] + 1])] + records[2:]
    assert wl.pinned(changed, workloads.DEFAULT_SEED, refs)


def test_search_pins_match_the_issue_counts():
    refs = workloads.load_refs()["search"]
    assert [refs[k][0] for k in ("H(2,5)", "H(5,2)", "H(3,3)", "H(3,4) gamma=3 index=2",
                                 "H(3,4) gamma=4 index=2")] == [4380, 382, 222, 6912, 12582]
    assert [refs[k][1] for k in ("H(2,5)", "H(5,2)", "H(3,3)", "H(3,4) gamma=3 index=2",
                                 "H(3,4) gamma=4 index=2")] == [23308, 4064, 2820, 25892, 53544]


def test_definition_oracle_rejects_a_wrong_witness():
    from crcforge.constructions import build_index1
    from crcforge.verifier import CrcFailure
    code = build_index1(4, 2)
    mask = code.mask.copy()
    mask[0] = False
    flipped = type(code)(code.space, mask)
    res = __import__("crcforge").check_crc(flipped)
    assert isinstance(res, CrcFailure)
    grid = flipped.grid
    assert workloads.check_failure_by_definition(grid, 4, res) == []
    wrong = CrcFailure(res.witness_vertex, res.class_index, res.target_class,
                       res.observed_count + 1, res.expected_count)
    assert workloads.check_failure_by_definition(grid, 4, wrong)


def test_tail_percentile_rule():
    assert run.tail_percentile(2746) == 99.5
    assert run.tail_percentile(42) == 75
    assert run.tail_percentile(5) == 50


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench_spec()))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
