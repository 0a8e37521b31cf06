"""Command-line interface and the JSON code-file format."""

import fcntl
import hashlib
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcforge import constructions
from crcforge.cli import build_parser, certificate_dict, run
from crcforge.codefile import (CodeFileError, _read_canonical, _read_rows, _rows, _symbol_dtype,
                               _tokens, dumps_code, read_code, write_code)
from crcforge.constructions import (build_a, build_b, build_c, build_d, build_from_spec,
                                    build_index1, spec_for)
from crcforge.hamming import SPACE_CAP, Code, Space
from crcforge.parameters import ConditionOneWitness
from crcforge.verifier import check_crc

from helpers import (REPO, SMALL_SPACES, Clique, clique_vertices, code_of, reference_dumps_code,
                     reference_read_code, reference_rows, run_python, src_env)


# ---------------------------------------------------------------- code files

def test_dumps_and_read_round_trip():
    code = build_c(6, 5)
    text = dumps_code(code, {"note": "x"})
    back, meta = read_code(io.StringIO(text))
    assert back == code
    assert meta == {"note": "x"}
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["format"] == "crc-code.v1"
    assert obj["n"] == 3 and obj["q"] == 6
    assert len(obj["codewords"]) == 90


def test_dumps_is_canonical():
    sp = Space(2, 3)
    a = code_of(sp, [(2, 1), (0, 0), (1, 2)])
    b = code_of(sp, [(0, 0), (1, 2), (2, 1)])
    assert dumps_code(a) == dumps_code(b)  # codewords serialize in lex order
    assert dumps_code(a, {"z": 1, "a": 2}) == dumps_code(a, {"a": 2, "z": 1})


def test_write_read_file(tmp_path):
    path = tmp_path / "code.json"
    code = build_a(4, 2)
    write_code(code, str(path), {"k": 1})
    back, meta = read_code(str(path))
    assert back == code and meta == {"k": 1}


@settings(max_examples=300, deadline=None)
@given(SMALL_SPACES, st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example((3, 4), 0, 0.0)      # empty code
@example((2, 16), 0, 1.0)     # full space, two-digit symbols
@example((1, 256), 1, 0.5)    # n = 1
@example((2, 11), 2, 0.5)
def test_codec_matches_reference_on_random_codes(nq, seed, density):
    sp = Space(*nq)
    code = Code(sp, np.random.default_rng(seed).random(sp.size) < density)
    meta = {"seed": seed, "n": sp.n}
    text = dumps_code(code, meta)
    assert text == reference_dumps_code(code, meta)
    assert read_code(io.StringIO(text)) == reference_read_code(io.StringIO(text)) == (code, meta)


def assert_rejected_like_reference(text):
    with pytest.raises(CodeFileError) as want:
        reference_read_code(io.StringIO(text))
    with pytest.raises(CodeFileError) as got:
        read_code(io.StringIO(text))
    assert str(got.value) == str(want.value)


def test_read_code_rejects_malformed():
    good = dumps_code(build_a(4, 2))
    assert good.count("[0, 0, 0]") == 1 and good.index("[0, 0, 0]") < good.index("[0, 1, 1]")
    cases = [
        "not json at all",
        json.dumps([1, 2, 3]),
        good.replace("crc-code.v1", "other-tag"),
        good.replace('"n": 3', '"n": "3"'),
        good.replace('"q": 4', '"q": 1'),
        good.replace("[0, 0, 0]", "[0, 0, 9]", 1),
        good.replace("[0, 0, 0]", "[0, 0]", 1),
        # what a whole-array check could let through: a float, a length-3
        # string, a nested list, a length-3 dict, a bare number, a negative
        # symbol, a symbol beyond int64
        good.replace("[0, 0, 0]", "[0, 0, 0.0]", 1),
        good.replace("[0, 0, 0]", '"abc"', 1),
        good.replace("[0, 0, 0]", "[[0], [0], [0]]", 1),
        good.replace("[0, 0, 0]", '{"a": 0, "b": 0, "c": 0}', 1),
        good.replace("[0, 0, 0]", "7", 1),
        good.replace("[0, 0, 0]", "[0, -1, 0]", 1),
        good.replace("[0, 0, 0]", f"[0, {2**70}, 0]", 1),
        good.replace("[0, 0, 0]", f"[0, {-2**70}, 0]", 1),
        good.replace("[0, 0, 0]", "[07, 0, 0]", 1),  # a leading zero is no JSON
        good.replace('"q": 4', '"q": 04'),
        json.dumps({**json.loads(good), "codewords": 5}),
        good.replace('"meta": {}', '"meta": []'),
    ]
    for text in cases:
        assert_rejected_like_reference(text)
    # duplicates, adjacent or not, and a bad word after or before the first
    # repeat: the error names whichever comes first
    dup = good.replace("[0, 1, 1]", "[0, 0, 0]", 1)  # [0,0,0] appears twice now
    last = good.rindex("    [")
    far_dup = good[:last] + "    [0, 0, 0]" + good[good.index("]", last) + 1:]
    for text in (dup, far_dup, far_dup.replace("[0, 0, 0]", "[0, 0, 0.5]", 1),
                 dup.replace("[3, 3, 3]", "[3, 3, 4]", 1)):
        assert_rejected_like_reference(text)
    with pytest.raises(CodeFileError):
        read_code("/nonexistent/path.json")
    # JSON booleans are ints to Python; without a type check these would read
    # as H(1,3) and as the codeword (1, 0, 0)
    one = dumps_code(code_of(Space(1, 3), [(2,)]))
    word = dumps_code(code_of(Space(3, 2), [(0, 0, 1)]))
    for text in (one.replace('"n": 1', '"n": true'),
                 word.replace("[0, 0, 1]", "[true, false, 0]")):
        assert_rejected_like_reference(text)


def read_canonically(text):
    """read_code(text), asserting that json.loads never sees the whole text:
    a file in the writer's layout is decoded from its bytes."""
    seen = []
    loads = json.loads

    def spy(s, *args, **kwargs):
        seen.append(s)
        return loads(s, *args, **kwargs)

    with mock.patch.object(json, "loads", spy):
        got = read_code(io.StringIO(text))
    assert text not in seen
    return got


TRICKY_META = {"note": "caf\u00e9 \u2713 \U0001f600", "nested": [[1, [2, []]], {"a": {"b": [{}]}}],
               "s": '"],\n  "meta": {"x": [1, 2]}\n}\n', "\u00e9": None}


@settings(max_examples=200, deadline=None)
@given(SMALL_SPACES, st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
       st.sampled_from([None, {"seed": 1}, TRICKY_META]))
@example((3, 4), 0, 0.0, None)      # empty code
@example((2, 16), 0, 1.0, None)     # full space, two-digit symbols
@example((1, 256), 1, 0.5, None)    # n = 1
@example((2, 11), 2, 0.5, None)
@example((3, 10), 3, 0.5, None)     # one-digit symbols up to 9
@example((3, 11), 4, 0.5, None)     # two digits from 10
@example((2, 100), 5, 0.2, None)    # two digits up to 99
@example((2, 101), 6, 0.2, TRICKY_META)  # three digits from 100
def test_dumps_output_is_read_from_its_bytes(nq, seed, density, meta):
    sp = Space(*nq)
    code = Code(sp, np.random.default_rng(seed).random(sp.size) < density)
    text = dumps_code(code, meta)
    assert text == reference_dumps_code(code, meta)
    assert read_canonically(text) == reference_read_code(io.StringIO(text)) == (code, meta or {})


def test_seven_digit_symbols_are_read_from_their_bytes():
    sp = Space(1, 10**6 + 1)  # w = 7
    code = code_of(sp, [(0,), (9,), (10,), (99999,), (999999,), (10**6,)])
    text = dumps_code(code, TRICKY_META)
    assert text == reference_dumps_code(code, TRICKY_META)
    assert read_canonically(text) == (code, TRICKY_META)
    # a meta in unescaped UTF-8 is no writer output, but still JSON on its own
    raw = text[:text.index('"meta": ')] + '"meta": {"note": "caf\u00e9 \u2713", "n": [[]]}\n}\n'
    assert read_canonically(raw) == reference_read_code(io.StringIO(raw))
    assert read_canonically(raw)[1] == {"note": "caf\u00e9 \u2713", "n": [[]]}


def test_rows_round_trip_symbols_beyond_int32():
    # Space admits H(1, q) up to q = 2^32, too large to build a code of here;
    # its symbols need int64 cells both ways
    syms = np.array([[0], [9], [2**31 - 1], [2**31], [2**32 - 1]], dtype=np.int64)
    block = _rows(syms, 2**32)
    assert block.decode() == ",\n".join("    " + json.dumps(row) for row in syms.tolist())
    assert np.array_equal(_read_rows(block, 1, 2**32), syms)
    assert _read_rows(block, 1, 2**32 - 1) is None  # 2^32 - 1 is out of range


# the edges of the four-digit limbs that _rows splits wider symbols into
LIMB_EDGES = (9, 10, 9999, 10**4, 10**8, 2**32 - 1)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("w", range(1, 11))
def test_rows_match_reference_at_every_width(w, n):
    # the least and the greatest q whose symbols have w digits
    for q in (max(2, 10 ** (w - 1) + 1), min(10**w, 2**32)):
        edges = {0, *LIMB_EDGES, *(10**p + d for p in range(11) for d in (-1, 0))}
        values = sorted(v for v in edges if 0 <= v < q)
        rng = np.random.default_rng([w, n])
        rows = [[values[(i + j) % len(values)] for j in range(n)] for i in range(len(values))]
        syms = np.concatenate([np.array(rows, _symbol_dtype(q)).reshape(-1, n),
                               rng.integers(0, q, (50, n), dtype=_symbol_dtype(q))])
        block = _rows(syms, q)
        assert block == reference_rows(syms.tolist()).encode()
        assert np.array_equal(_read_rows(block, n, q), syms)
        if q**n <= 2**22:  # small enough to hold as a code
            code = code_of(Space(n, q), syms.tolist())
            assert dumps_code(code, TRICKY_META) == reference_dumps_code(code, TRICKY_META)


def test_rows_build_no_table_of_q():
    # tokens hold at most four digits, so the widest q needs no table of q entries
    syms = np.array([[v] for v in sorted({0, *LIMB_EDGES, 2**31})], np.int64)
    _tokens.cache_clear()
    tracemalloc.start()
    try:
        block = _rows(syms, 2**32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block == reference_rows(syms.tolist()).encode()
    assert peak < 2**22  # a table of q entries would take at least 2^32 bytes
    assert max(len(_tokens(width, units)) for width in (2, 4) for units in (False, True)) == 2 * 10**4


@pytest.mark.parametrize("n, q, density", [
    (3, 4, 0.0),             # the empty code
    (2, 16, 1.0),            # the whole space
    (6, 2, 0.5), (3, 10, 0.5), (2, 100, 0.3), (2, 1000, 0.01),  # w = 1, 1, 2, 3
    (1, 10**4, 0.1), (1, 10**5, 0.01), (1, 10**6, 0.001),      # w = 4, 5, 6
    (1, 10**6 + 1, 0.001),   # w = 7
])
def test_writer_output_is_read_line_by_line(n, q, density):
    # every writer output takes the line-offset read, never json.loads: a
    # random code, with every power-of-ten edge below q in every position
    sp = Space(n, q)
    mask = np.random.default_rng([n, q]).random(sp.size) < density
    if 0 < density < 1:
        edges = sorted(v for v in {0, *(10**p + d for p in range(7) for d in (-1, 0))} if v < q)
        mask[np.ravel_multi_index(np.array(list(itertools.product(edges, repeat=n))).T, sp.shape)] = True
    code = Code(sp, mask)
    for meta in ({}, TRICKY_META):
        raw = dumps_code(code, meta).encode()
        assert _read_canonical(raw) == (code, meta)


@pytest.mark.parametrize("q", [11, 1001])
def test_near_misses_of_the_layout_read_like_reference(q):
    # files a few bytes from the writer's layout are no canonical files: each
    # reads through the general path to the reference's code or error
    code = code_of(Space(2, q), [(0, q - 1), (7, 3), (q - 1, q - 1)])
    good = dumps_code(code, {"k": 1})
    last = f"[{q - 1}, {q - 1}]"
    same = {
        "no space after a comma": good.replace("[7, 3]", "[7,3]"),
        "crlf": good.replace("\n", "\r\n"),
        "a codeword wrapped across two lines": good.replace("[7, 3]", "[7,\n     3]"),
    }
    errors = {
        "a leading zero": good.replace("[7, 3]", "[07, 3]"),
        "one extra symbol": good.replace("[7, 3]", "[7, 3, 1]"),
        "a truncated last line": good[:good.index(last) + 4],
        "a last line without its bracket": good.replace(last, last[:-1]),
    }
    for name, text in {**same, **errors}.items():
        assert text != good, name
        assert _read_canonical(text.encode()) is None, name
        got = read_outcome(read_code, text)
        assert got == read_outcome(reference_read_code, text), name
        if name in same:
            assert got == (code, {"k": 1}), name
        else:
            assert isinstance(got, str), name


def disk_outcome(reader, path):
    try:
        return reader(str(path))
    except Exception as e:
        return type(e), str(e)


def test_files_on_disk_read_like_reference(tmp_path):
    # read_code reads a path as bytes, the reference in text mode: both
    # read each file to the same value, or fail with the same error
    code = build_a(4, 2)
    good = dumps_code(code, {"k": 1}).encode()
    meta_at = good.rindex(b'"meta": ') + len(b'"meta": ')
    block_at = good.index(b"    [") + len(b"    [")
    crlf = good.replace(b"\n", b"\r\n")
    files = {
        "crlf": (crlf, (code, {"k": 1})),
        "cr": (good.replace(b"\n", b"\r"), (code, {"k": 1})),
        "crlf, bad codeword": (crlf.replace(b"[0, 0, 0]", b"[0, 0, 9]", 1), None),
        "crlf, cut short": (crlf[:-9], None),
        "crlf, bad meta": (crlf.replace(b'"meta": {', b'"meta": {\r\n,', 1), None),
        "bom": (b"\xef\xbb\xbf" + good, None),
        "invalid utf-8 in the meta": (good[:meta_at] + b'{"k": "\xff"}\n}\n', None),
        "invalid utf-8 in the codewords": (good[:block_at] + b"\xc3" + good[block_at + 1:], None),
        "non-ascii meta": (good[:meta_at] + '{"note": "caf\u00e9 \u2713"}\n}\n'.encode(),
                           (code, {"note": "caf\u00e9 \u2713"})),
    }
    path = tmp_path / "code.json"
    for name, (data, value) in files.items():
        path.write_bytes(data)
        got = disk_outcome(read_code, path)
        assert got == disk_outcome(reference_read_code, path), name
        if value is not None:
            assert got == value, name
        else:
            assert isinstance(got[0], type) and issubclass(got[0], ValueError), name


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "code.json"
    write_code(build_a(4, 2), str(path), {"k": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_code(build_a(4, 2), str(path), {"k": {1, 2}})  # a set is no JSON
    assert path.read_bytes() == before


def read_outcome(reader, text):
    try:
        return reader(io.StringIO(text))
    except CodeFileError as e:
        return str(e)


def test_other_layouts_read_like_reference():
    # valid JSON outside the writer's layout takes the general path and
    # reads to exactly what the reference reads, value or error
    codes = [(build_a(4, 2), {"k": [1, 2]}), (code_of(Space(2, 11), [(10, 3), (0, 10)]), {}),
             (Code(Space(3, 3), np.zeros(27, bool)), TRICKY_META)]
    texts = []
    for code, meta in codes:
        good = dumps_code(code, meta)
        obj = json.loads(good)
        texts += [
            json.dumps(obj),                          # compact
            json.dumps(obj, indent=2),
            good.replace("\n", "\r\n"),
            good[:-1],                                # no final newline
            good + "x",                               # data after the object
            good.replace("\n    [", "\n    [ ", 1),  # a space inside the first row
            json.dumps(dict(reversed(list(obj.items()))), indent=2),
            good.replace('\n  "meta": ', '\n  "meta": {"first": 1},\n  "meta": '),
            good.replace('\n  "meta": ', '\n  "meta": 5,\n  "meta": '),
            good.replace("\n}\n", ',\n  "meta": []\n}\n'),
            # a meta holding the meta separator as whitespace: its last
            # occurrence is not the frame's
            good[:good.rindex('\n  ],\n  "meta": ')] + '\n  ],\n  "meta": {"x": [1\n  ],\n  "meta": 2}\n}\n',
        ]
    for text in texts:
        want = read_outcome(reference_read_code, text)
        assert read_outcome(read_code, text) == want, text[:80]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(1, 5), (2, 3), (2, 10), (2, 11), (3, 4), (1, 101)]),
       st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.sampled_from([None, TRICKY_META]),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from(["", *'0123456789 ,[]\n"{}-.e']),
                          st.booleans()), min_size=1, max_size=3))
def test_edited_files_read_like_reference(nq, seed, density, meta, edits):
    # a file one to three characters away from the writer's output reads to
    # exactly the reference's value or error message
    sp = Space(*nq)
    text = dumps_code(Code(sp, np.random.default_rng(seed).random(sp.size) < density), meta)
    for at, char, replace in edits:  # insert, or replace (delete for "")
        i = int(at * (len(text) - 1))
        text = text[:i] + char + text[i + replace:]
    assert read_outcome(read_code, text) == read_outcome(reference_read_code, text)


def test_codec_memory_is_bounded():
    # tracemalloc peaks on a 55,296-codeword file; the general path peaks at
    # 11.44 MiB to read (with the StringIO) and 4.75 MiB to write
    code = build_b(48, 2)
    text = dumps_code(code)

    def peak(f):
        tracemalloc.start()
        try:
            out = f()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (back, _), read_peak = peak(lambda: read_code(io.StringIO(text)))
    written, write_peak = peak(lambda: dumps_code(code))
    assert back == code and written == text
    assert read_peak < 11.4 * 2**20
    assert write_peak < 4.7 * 2**20


# ---------------------------------------------------------------- construct

def test_construct_to_stdout(capsys):
    assert run(["construct", "b", "--q", "6", "--variant", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["meta"]["construction"] == {"kind": "b", "q": 6, "variant": 1}
    assert obj["meta"]["certificate"]["gamma"] == 3
    assert obj["meta"]["certificate"]["eigenvalue_index"] == 2


def test_construct_flagship_file(tmp_path, capsys):
    out = tmp_path / "c65.json"
    assert run(["construct", "c", "--q", "6", "--t", "5", "-o", str(out)]) == 0
    assert "90 codewords" in capsys.readouterr().out
    code, meta = read_code(str(out))
    assert code.size == 90
    assert meta["certificate"]["gamma"] == 5
    assert meta["certificate"]["beta"] == 7
    assert meta["certificate"]["eigenvalues"] == [15, 3]


def test_construct_d_and_index_kinds(tmp_path):
    out = tmp_path / "d.json"
    assert run(["construct", "d", "--q", "8", "--witness", "2,4,6,2,3,2",
                "-o", str(out)]) == 0
    _, meta = read_code(str(out))
    assert meta["certificate"]["gamma"] == 7
    assert run(["construct", "index1", "--q", "5", "--m", "2",
                "-o", str(tmp_path / "i1.json")]) == 0
    assert run(["construct", "index3", "--q", "5", "--m", "2",
                "-o", str(tmp_path / "i3.json")]) == 0


def test_construct_self_check_failure(monkeypatch, capsys):
    # build_from_spec looks its builder up at call time, so a builder that
    # returns a non-CRC reaches the self-check: the code with its first
    # codeword dropped
    good = constructions.build_index1(6, 2)
    mask = good.mask.copy()
    mask[0] = False
    monkeypatch.setattr(constructions, "build_index1", lambda q, m: Code(good.space, mask))
    assert run(["construct", "index1", "--q", "6", "--m", "2"]) == 1
    assert capsys.readouterr() == ("", (
        "construction self-check failed:\n"
        "  not completely regular\n"
        "  vertex [0, 1, 1] in layer 0 has 4 neighbors in layer 1; "
        "the layer's first vertex has 5\n"))


def test_construct_errors(capsys):
    assert run(["construct", "a", "--q", "5"]) == 2  # missing --gamma
    for kind, flag in (("b", "variant"), ("c", "t"), ("d", "witness"),
                       ("index1", "m"), ("index3", "m")):
        assert run(["construct", kind, "--q", "6"]) == 2
        assert f"construct {kind} needs --{flag}" in capsys.readouterr().err
    assert run(["construct", "a", "--q", "5", "--gamma", "3"]) == 2  # odd gamma
    assert run(["construct", "d", "--q", "8", "--witness", "1,2,3"]) == 2
    assert run(["construct", "d", "--q", "8", "--witness", "a,b,c,d,e,f"]) == 2
    assert run(["construct", "d", "--q", "8", "--witness", "1,1,1,1,1,1"]) == 2
    capsys.readouterr()


# q^3 above the space cap; each builder's first array for these would take
# 7.45 GiB or more
OVERSIZED = [["index1", "--q", "2000", "--m", "1"], ["index3", "--q", "2000", "--m", "1"],
             ["a", "--q", "70000", "--gamma", "2"], ["b", "--q", "2000", "--variant", "1"],
             ["c", "--q", "2000", "--t", "1001"],
             ["d", "--q", "2000", "--witness", "500,1000,1500,2,3,2"]]


def _limit_address_space():
    # an allocation before the space check then fails in the child at once,
    # and cannot exhaust the machine
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_oversized_construct_fails_before_allocating():
    script = ("from crcforge.cli import run\n"
              f"for argv in {OVERSIZED!r}:\n"
              "    print(run(['construct', *argv]))\n")
    proc = run_python("-c", script, preexec_fn=_limit_address_space)
    assert proc.stdout.split() == ["2"] * len(OVERSIZED)
    assert proc.stderr.splitlines() == [
        f"error: space too large: q^n = {argv[2]}^3 exceeds cap {SPACE_CAP}" for argv in OVERSIZED]


def test_space_too_large_for_memory_is_a_one_line_error(tmp_path):
    # H(1, 2^32) is within the space cap, but its 4 GiB indicator is not
    # within the child's address space: verify and analyze must end in exit 2
    path = tmp_path / "huge.json"
    path.write_text('{"format": "crc-code.v1", "n": 1, "q": 4294967296, "codewords": [[0]]}')
    script = ("from crcforge.cli import run\n"
              f"print(run(['verify', {str(path)!r}]))\n"
              f"print(run(['analyze', {str(path)!r}]))\n")
    proc = run_python("-c", script, preexec_fn=_limit_address_space)
    assert proc.stdout.split() == ["2", "2"]
    lines = proc.stderr.splitlines()
    assert len(lines) == 2 and all(ln.startswith("error: out of memory: ") for ln in lines)


def test_render_layers_space_too_large_for_memory_is_a_one_line_error(tmp_path):
    # the file of the test above: the script exits through the same handler
    path = tmp_path / "huge.json"
    path.write_text('{"format": "crc-code.v1", "n": 1, "q": 4294967296, "codewords": [[0]]}')
    proc = run_python("scripts/render_layers.py", str(path), preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1


def test_unwritable_output_is_a_one_line_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "c.json"
    assert run(["construct", "c", "--q", "6", "--t", "5", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert run(["search", "--n", "2", "--q", "2", "--emit", str(blocker / "found"),
                "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker / 'found'}: ") and err.count("\n") == 1
    with pytest.raises(CodeFileError, match="cannot write"):
        write_code(build_a(4, 2), str(out))


def test_unwritable_search_index_is_a_one_line_error(tmp_path, capsys):
    # the code files are written, then index.json is a directory: made after
    # the first code file, since a directory that is not empty is refused
    # before the search
    outdir = tmp_path / "found"
    index = outdir / "index.json"

    def write_then_block(code, path, meta):
        write_code(code, path, meta)
        index.mkdir(exist_ok=True)

    with mock.patch("crcforge.cli.write_code", write_then_block):
        assert run(["search", "--n", "2", "--q", "2", "--emit", str(outdir),
                    "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {index}: ") and err.count("\n") == 1
    assert (outdir / "code_0000.json").is_file()


CONSTRUCT_CASES = pytest.mark.parametrize("argv, spec", [
    (["a", "--gamma", "4"], {"kind": "a", "q": 6, "gamma": 4}),
    (["b", "--variant", "2"], {"kind": "b", "q": 6, "variant": 2}),
    (["c", "--t", "5"], {"kind": "c", "q": 6, "t": 5}),
    (["d", "--witness", "2,4,6,2,3,2"],
     spec_for("d", 8, ConditionOneWitness(2, 4, 6, 2, 3, 2))),
    (["index1", "--m", "2"], {"kind": "index1", "q": 6, "m": 2}),
    (["index3", "--m", "2"], {"kind": "index3", "q": 6, "m": 2}),
], ids=["a", "b", "c", "d", "index1", "index3"])


@CONSTRUCT_CASES
def test_construct_file_matches_library(tmp_path, argv, spec):
    out = tmp_path / "code.json"
    assert run(["construct", *argv, "--q", str(spec["q"]), "-o", str(out)]) == 0
    code = build_from_spec(spec)
    meta = {"construction": spec, "certificate": certificate_dict(check_crc(code))}
    assert out.read_bytes() == dumps_code(code, meta).encode()


@CONSTRUCT_CASES
def test_recorded_construction_rebuilds_the_code(tmp_path, argv, spec):
    out = tmp_path / "code.json"
    assert run(["construct", *argv, "--q", str(spec["q"]), "-o", str(out)]) == 0
    code, meta = read_code(str(out))
    assert build_from_spec(meta["construction"]) == code


def test_construct_rejects_another_kinds_flag(capsys):
    assert run(["construct", "a", "--q", "6", "--gamma", "4", "--t", "3"]) == 2
    assert capsys.readouterr() == ("", "error: construct a takes --gamma only, not --t\n")
    assert run(["construct", "index1", "--q", "6", "--m", "2", "--variant", "1",
                "--witness", "2,4,6,2,3,2"]) == 2
    assert capsys.readouterr().err == (
        "error: construct index1 takes --m only, not --variant, --witness\n")


# ---------------------------------------------------------------- verify

def test_verify_certificate_and_expectations(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(["construct", "c", "--q", "6", "--t", "5", "-o", str(out)])
    capsys.readouterr()
    assert run(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "gamma=5 beta=7" in text
    assert "eigenvalue index 2" in text
    assert run(["verify", str(out), "--expect-gamma", "5", "--expect-beta", "7",
                "--expect-index", "2"]) == 0
    capsys.readouterr()
    assert run(["verify", str(out), "--expect-gamma", "4"]) == 1
    assert "expected gamma=4, got 5" in capsys.readouterr().out


def test_verify_rejects_non_crc(tmp_path, capsys):
    sp = Space(3, 3)
    bad = code_of(sp, [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)])
    path = tmp_path / "bad.json"
    write_code(bad, str(path))
    assert run(["verify", str(path)]) == 1
    assert "not completely regular" in capsys.readouterr().out


def test_verify_expectations_on_covering_radius_2(tmp_path, capsys):
    path = tmp_path / "pair.json"
    write_code(code_of(Space(5, 2), [(0,) * 5, (1,) * 5]), str(path))
    assert run(["verify", str(path), "--expect-gamma", "1"]) == 1
    assert capsys.readouterr() == ("H(5,2), 2 codewords\n"
                                   "completely regular, covering radius 2\n"
                                   "betas=[5, 4] gammas=[1, 2] alphas=[0, 0, 3]\n"
                                   "expected rho=1 parameters but covering radius is 2\n", "")


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{]")
    assert run(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


DEEP = "[" * 10000 + "]" * 10000  # json.loads raises RecursionError, not JSONDecodeError


@pytest.mark.parametrize("layout", ["bare", "canonical"])
def test_verify_deeply_nested_file_is_a_one_line_error(tmp_path, capsys, layout):
    text = DEEP
    if layout == "canonical":
        # the writer's layout, so the canonical reader sees the deep meta first
        shallow = dumps_code(build_a(4, 2), {"x": [[1]]})
        assert read_canonically(shallow)[1] == {"x": [[1]]}
        text = shallow.replace("[[1]]", DEEP)
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert run(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: not valid JSON") and err.count("\n") == 1


def test_verify_huge_n_is_a_prompt_one_line_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"format": "crc-code.v1", "n": 1000000000, "q": 3, "codewords": []}')
    t0 = time.perf_counter()
    assert run(["verify", str(path)]) == 2
    assert time.perf_counter() - t0 < 0.1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "space too large" in err


# ------------------------------------------------- reduce / extend / complement

def test_reduce_extend_round_trip_bytes(tmp_path, capsys):
    original = tmp_path / "a.json"
    run(["construct", "a", "--q", "5", "--gamma", "4", "-o", str(original)])
    reduced = tmp_path / "red.json"
    assert run(["reduce", str(original), "-o", str(reduced)]) == 0
    code, meta = read_code(str(reduced))
    assert code.space == Space(2, 5)
    assert meta["reduced_from"] == {"n": 3, "essential_positions": [2, 3]}

    extended = tmp_path / "ext.json"
    assert run(["extend", str(reduced), "--at", "1", "-o", str(extended)]) == 0
    # re-extending at position 1 reproduces the constructed code exactly
    assert read_code(str(extended))[0] == read_code(str(original))[0]
    capsys.readouterr()


def test_complement_involution(tmp_path, capsys):
    f0 = tmp_path / "b.json"
    run(["construct", "b", "--q", "4", "--variant", "2", "-o", str(f0)])
    f1 = tmp_path / "comp.json"
    f2 = tmp_path / "comp2.json"
    assert run(["complement", str(f0), "-o", str(f1)]) == 0
    assert run(["complement", str(f1), "-o", str(f2)]) == 0
    c0, _ = read_code(str(f0))
    c1, _ = read_code(str(f1))
    assert c0.size + c1.size == 4 ** 3
    # the double complement file carries the same codewords
    assert read_code(str(f2))[0] == c0
    capsys.readouterr()


# ---------------------------------------------------------------- params

def test_params_feasible_exit_codes(capsys):
    assert run(["params", "feasible", "--q", "16", "--gamma", "7"]) == 0
    text = capsys.readouterr().out
    assert "feasible" in text and "witness: r=4 s=8 t=12 a=2 b=3 c=2" in text
    assert run(["params", "feasible", "--q", "8", "--gamma", "1"]) == 1
    capsys.readouterr()
    assert run(["params", "feasible", "--n", "4", "--q", "8", "--gamma", "7"]) == 0
    capsys.readouterr()
    for flags, err in [
            ("--n 1 --gamma 3", "need n >= 2, got n=1"),
            ("--n 1 --gamma 3 --index 1", "for n=1 only eigenvalue index 2 is classified"),
            ("--n 4 --gamma 3 --index 1", "for n=4 only eigenvalue index 2 is classified"),
            ("--n 4 --gamma 7 --index 3", "for n=4 only eigenvalue index 2 is classified"),
            ("--gamma 3 --index 4",
             "eigenvalue index 4 out of range 1..3 for rho=1 codes in H(3,q)"),
            ("--gamma 5 --index 1", "gamma=5 violates the normalization gamma <= beta "
             "(needs 2*gamma <= q*index = 8); analyze the complement instead")]:
        assert run(["params", "feasible", "--q", "8", *flags.split()]) == 2, flags
        assert capsys.readouterr() == ("", f"error: {err}\n"), flags


def test_params_solve_c1(capsys):
    assert run(["params", "solve-c1", "--q", "8", "--gamma", "7"]) == 0
    text = capsys.readouterr().out
    assert "3 witness(es) for q=8, gamma=7" in text
    assert "r=2 s=4 t=6 a=2 b=3 c=2 gamma=7" in text
    assert run(["params", "solve-c1", "--q", "8", "--gamma", "1"]) == 1
    assert "0 witness(es)" in capsys.readouterr().out
    for gamma in ("0", "-3"):
        assert run(["params", "solve-c1", "--q", "4", "--gamma", gamma]) == 2
        assert capsys.readouterr() == ("", f"error: gamma={gamma} must be positive\n")


def test_params_lambda(capsys):
    assert run(["params", "lambda", "--n", "3", "--q", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[2] == "lambda_2(H(3,6)) = 3  multiplicity 75"
    assert run(["params", "lambda", "--n", "3", "--q", "6", "--i", "9"]) == 2


# ---------------------------------------------------------------- analyze

def test_analyze_full_report(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(["construct", "d", "--q", "8", "--witness", "2,4,6,2,3,2", "-o", str(path)])
    capsys.readouterr()
    assert run(["analyze", str(path), "--derivatives", "--cliques"]) == 0
    text = capsys.readouterr().out
    assert "gamma=7 beta=9" in text
    assert "unclassified=0" in text
    assert "strong clique property: yes" in text
    assert "block witness: r=2 s=4 t=6 a=2 b=3 c=2" in text


def test_analyze_is_deterministic(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(["construct", "c", "--q", "6", "--t", "5", "-o", str(path)])
    capsys.readouterr()
    run(["analyze", str(path), "--derivatives", "--cliques"])
    first = capsys.readouterr().out
    run(["analyze", str(path), "--derivatives", "--cliques"])
    assert capsys.readouterr().out == first


def _union_of_lines(q: int, *cliques: tuple[int, tuple[int, int]]) -> Code:
    sp = Space(3, q)
    return code_of(sp, [v for j, fixed in cliques
                        for v in clique_vertices(sp, Clique(j, fixed))])


def _cylinder_less_one() -> Code:
    grid = build_index1(16, 8).grid.copy()
    grid[7, 15, 15] = False
    return Code(Space(3, 16), grid)


# The whole stdout of ``analyze --cliques``, one code per outcome of the
# clique cover, pinned from the decomposition that listed its cliques.
PINNED_CLIQUES = {
    "strong": (lambda: build_d(8, ConditionOneWitness(2, 4, 6, 2, 3, 2)), [
        "H(3,8), 224 codewords", "completely regular, covering radius 1",
        "gamma=7 beta=9 alpha0=12 alpha1=14",
        "code eigenvalues (21, 5), eigenvalue index 2", "essential positions: [1, 2, 3]",
        "hyperface counts: all 28",
        "clique cover: partition into 28 cliques, codirection counts [12, 4, 12]",
        "strong clique property: yes", "block witness: r=2 s=4 t=6 a=2 b=3 c=2"]),
    "forced": (lambda: build_a(8, 8), [
        "H(3,8), 256 codewords", "completely regular, covering radius 1",
        "gamma=8 beta=8 alpha0=13 alpha1=13",
        "code eigenvalues (21, 5), eigenvalue index 2", "essential positions: [2, 3]",
        "hyperface counts: all 32",
        "clique cover: partition into 32 cliques, codirection counts [32, 0, 0]",
        "strong clique property: no"]),
    "searched": (lambda: build_index1(8, 4), [
        "H(3,8), 256 codewords", "completely regular, covering radius 1",
        "gamma=4 beta=4 alpha0=17 alpha1=17",
        "code eigenvalues (21, 13), eigenvalue index 1", "essential positions: [1]",
        "hyperface counts, position 1: [64, 64, 64, 64, 0, 0, 0, 0]",
        "hyperface counts, position 2: [32, 32, 32, 32, 32, 32, 32, 32]",
        "hyperface counts, position 3: [32, 32, 32, 32, 32, 32, 32, 32]",
        "clique cover: partition into 32 cliques, codirection counts [0, 32, 0]",
        "strong clique property: no"]),
    "backtracks": (lambda: code_of(Space(3, 2), [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                                                (1, 1, 0)]), [
        "H(3,2), 4 codewords", "not completely regular",
        "vertex [0, 0, 1] in layer 0 has 2 neighbors in layer 1; the layer's first vertex has 1",
        "essential positions: [1, 2, 3]", "hyperface counts, position 1: [3, 1]",
        "hyperface counts, position 2: [2, 2]", "hyperface counts, position 3: [3, 1]",
        "clique cover: partition into 2 cliques, codirection counts [1, 0, 1]",
        "strong clique property: no"]),
    "no-full-clique": (lambda: build_b(8, 1), [
        "H(3,8), 128 codewords", "completely regular, covering radius 1",
        "gamma=4 beta=12 alpha0=9 alpha1=17",
        "code eigenvalues (21, 5), eigenvalue index 2", "essential positions: [1, 2, 3]",
        "hyperface counts: all 16",
        "clique cover: not-clique-partition at vertex (0, 0, 0) "
        "(codeword lies in no full clique)"]),
    "q-does-not-divide": (_cylinder_less_one, [
        "H(3,16), 2047 codewords", "not completely regular",
        "vertex [0, 15, 15] in layer 0 has 9 neighbors in layer 1; "
        "the layer's first vertex has 8",
        "essential positions: [1, 2, 3]",
        f"hyperface counts, position 1: {[256] * 7 + [255] + [0] * 8}",
        f"hyperface counts, position 2: {[128] * 15 + [127]}",
        f"hyperface counts, position 3: {[128] * 15 + [127]}",
        "clique cover: not-clique-partition at vertex (0, 0, 0) "
        "(full cliques overlap and admit no exact cover)"]),
    "complement-law": (lambda: _union_of_lines(3, (1, (0, 0)), (2, (1, 1)), (3, (2, 2))), [
        "H(3,3), 9 codewords", "not completely regular",
        "vertex [0, 0, 2] in layer 1 has 1 neighbors in layer 0; the layer's first vertex has 2",
        "essential positions: [1, 2, 3]", "hyperface counts, position 1: [1, 4, 4]",
        "hyperface counts, position 2: [4, 1, 4]", "hyperface counts, position 3: [4, 4, 1]",
        "clique cover: lemma-violated (x3-symbols of codirection-2 cliques are not the "
        "complement of the codirection-1 x3-symbols)"]),
    "not-stochastic": (lambda: _union_of_lines(
        4, (1, (0, 0)), (1, (1, 0)), (1, (1, 1)), (2, (0, 2)), (2, (1, 3)), (3, (2, 2)),
        (3, (3, 3))), [
        "H(3,4), 28 codewords", "not completely regular",
        "vertex [0, 0, 2] in layer 0 has 5 neighbors in layer 1; the layer's first vertex has 4",
        "essential positions: [1, 2, 3]", "hyperface counts, position 1: [7, 7, 7, 7]",
        "hyperface counts, position 2: [6, 10, 6, 6]",
        "hyperface counts, position 3: [10, 6, 6, 6]",
        "clique cover: lemma-violated (block(s) d1 not doubly stochastic)"]),
}


@pytest.mark.parametrize("outcome", PINNED_CLIQUES)
def test_analyze_cliques_text_is_pinned(tmp_path, capsys, outcome):
    build, lines = PINNED_CLIQUES[outcome]
    path = tmp_path / "code.json"
    write_code(build(), str(path))
    assert run(["analyze", str(path), "--cliques"]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


# The derivative section of ``analyze --derivatives`` (tally line, then the
# unclassified lines), pinned from the per-derivative classifier it replaced.
# Each unclassified list is given literally or as (count, first, last, sha256
# of the lines joined with newlines).
INDEX1_6_2_UNCLASSIFIED = [f"  unclassified: position 1, symbols {u},{v}" for u, v in (
    (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (5, 1))]
PINNED_DERIVATIVES = [
    (["index1", "--q", "6", "--m", "2"],
     "derivatives: zero=74 string=0 cross=0 unclassified=16", INDEX1_6_2_UNCLASSIFIED),
    (["d", "--q", "8", "--witness", "2,4,6,2,3,2"],
     "derivatives: zero=36 string=52 cross=80 unclassified=0", []),
    (["b", "--q", "8", "--variant", "2"],
     "derivatives: zero=104 string=64 cross=0 unclassified=0", []),
    # build_c(66, 34) with vertex (5, 64, 40) flipped: rows span two words
    ("flip66", "derivatives: zero=3970 string=2178 cross=6332 unclassified=390",
     (390, "  unclassified: position 1, symbols 0,5", "  unclassified: position 3, symbols 65,40",
      "71e98ec35e98fddc53089f3bb09764c708e7fa8297e73d6d74c7517a973a5f79")),
]


@pytest.mark.parametrize("source, tally, unclassified", PINNED_DERIVATIVES)
def test_analyze_derivatives_text_is_pinned(tmp_path, capsys, source, tally, unclassified):
    path = tmp_path / "code.json"
    if source == "flip66":
        code = build_c(66, 34)
        mask = code.mask.copy()
        mask[np.ravel_multi_index((5, 64, 40), code.space.shape)] ^= True
        write_code(Code(code.space, mask), str(path))
    else:
        run(["construct", *source, "-o", str(path)])
    capsys.readouterr()
    assert run(["analyze", str(path), "--derivatives"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(tally)
    got = lines[start + 1:]
    assert all(line.startswith("  unclassified: ") for line in got)
    if isinstance(unclassified, list):
        assert got == unclassified
    else:
        count, first, last, sha = unclassified
        assert (len(got), got[0], got[-1]) == (count, first, last)
        assert hashlib.sha256("\n".join(got).encode()).hexdigest() == sha


def test_analyze_derivatives_text_matches_one_print_per_line(tmp_path, capsys):
    # every derivative of this index-3 code is unclassified; the section is
    # written in one call and reads as one print per line would write it
    path = tmp_path / "i3.json"
    run(["construct", "index3", "--q", "5", "--m", "2", "-o", str(path)])
    capsys.readouterr()
    assert run(["analyze", str(path), "--derivatives"]) == 0
    out = capsys.readouterr().out
    want = io.StringIO()
    print("derivatives: zero=0 string=0 cross=0 unclassified=60", file=want)
    for i in range(3):
        for u in range(5):
            for v in range(5):
                if u != v:
                    print(f"  unclassified: position {i + 1}, symbols {u},{v}", file=want)
    assert out.endswith("\nclique counts: all 2\n" + want.getvalue())


def test_analyze_non_crc_and_profiles(tmp_path, capsys):
    sp = Space(3, 2)
    path = tmp_path / "pair.json"
    write_code(code_of(sp, [(0, 0, 0), (1, 1, 1)]), str(path))
    assert run(["analyze", str(path), "--cliques"]) == 0
    text = capsys.readouterr().out
    assert "completely regular" in text
    assert "hyperface counts: all 1" in text
    assert "not-clique-partition" in text
    # every maximal clique of a diagonal class holds one codeword
    diag = tmp_path / "i3.json"
    run(["construct", "index3", "--q", "4", "--m", "1", "-o", str(diag)])
    capsys.readouterr()
    assert run(["analyze", str(diag)]) == 0
    assert "clique counts: all 1" in capsys.readouterr().out.splitlines()


def test_analyze_skips_structure_below_n3(tmp_path, capsys):
    full, reduced = tmp_path / "i6.json", tmp_path / "i6-red.json"
    run(["construct", "index1", "--q", "6", "--m", "2", "-o", str(full)])
    run(["reduce", str(full), "-o", str(reduced)])
    capsys.readouterr()
    assert run(["analyze", str(reduced), "--derivatives", "--cliques"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "H(1,6), 2 codewords" and err == ""
    assert out.splitlines()[-2:] == ["derivative classification needs n=3; skipped",
                                     "clique decomposition needs n=3; skipped"]


def test_analyze_prints_per_position_profiles(tmp_path, capsys):
    # an unbalanced profile prints one hyperface line per position; the
    # H(3,6) code has no clique-count line, its reduction to H(1,6) has one
    full, reduced = tmp_path / "i6.json", tmp_path / "i6-red.json"
    write_code(constructions.build_index1(6, 2), str(full))
    run(["reduce", str(full), "-o", str(reduced)])
    capsys.readouterr()
    assert run(["analyze", str(full)]) == 0
    assert capsys.readouterr().out == (
        "H(3,6), 72 codewords\n"
        "completely regular, covering radius 1\n"
        "gamma=2 beta=4 alpha0=11 alpha1=13\n"
        "code eigenvalues (15, 9), eigenvalue index 1\n"
        "essential positions: [1]\n"
        "hyperface counts, position 1: [36, 36, 0, 0, 0, 0]\n"
        "hyperface counts, position 2: [12, 12, 12, 12, 12, 12]\n"
        "hyperface counts, position 3: [12, 12, 12, 12, 12, 12]\n")
    assert run(["analyze", str(reduced)]) == 0
    assert capsys.readouterr().out == (
        "H(1,6), 2 codewords\n"
        "completely regular, covering radius 1\n"
        "gamma=2 beta=4 alpha0=1 alpha1=3\n"
        "code eigenvalues (5, -1), eigenvalue index 1\n"
        "essential positions: [1]\n"
        "hyperface counts, position 1: [1, 1, 0, 0, 0, 0]\n"
        "clique counts: all 2\n")


# ---------------------------------------------------------------- search

def test_search_cli_summary(capsys):
    assert run(["search", "--n", "3", "--q", "2", "--workers", "1"]) == 0
    text = capsys.readouterr().out
    assert "22 code(s)" in text
    assert "gamma=1 beta=3 index=2" in text


def test_search_cli_emit(tmp_path, capsys):
    outdir = tmp_path / "found"
    assert run(["search", "--n", "2", "--q", "2", "--emit", str(outdir),
                "--workers", "1"]) == 0
    text = capsys.readouterr().out
    assert "6 code(s)" in text
    files = sorted(p.name for p in outdir.iterdir())
    assert files == [f"code_{k:04d}.json" for k in range(6)] + ["index.json"]
    with open(outdir / "index.json", encoding="utf-8") as fp:
        idx = json.load(fp)
    assert idx["space"] == {"n": 2, "q": 2}
    assert len(idx["codes"]) == 6
    for entry in idx["codes"]:
        code, meta = read_code(str(outdir / entry["file"]))
        assert code.size == entry["size"]
        assert meta["certificate"]["gamma"] == entry["gamma"]


def tree_sha256(directory) -> str:
    """sha256 over a directory's file names, sorted, each followed by a NUL
    and the file's bytes."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_search_cli_emit_writes_an_index_when_nothing_is_found(tmp_path, capsys):
    # a search that finds no code still creates the directory and says so
    # in index.json
    outdir = tmp_path / "out"
    assert run(["search", "--n", "3", "--q", "3", "--gamma", "4", "--index", "3",
                "--emit", str(outdir), "--workers", "1"]) == 0
    assert capsys.readouterr().out == ("search H(3,3): 0 code(s), 0 nodes\n"
                                       f"emitted 0 file(s) to {outdir}\n")
    assert [p.name for p in outdir.iterdir()] == ["index.json"]
    assert json.loads((outdir / "index.json").read_text()) == {"codes": [], "space": {"n": 3, "q": 3}}


def test_search_cli_emit_certifies_each_code_once(tmp_path, capsys):
    # the certificates come from the search's own certification, so no
    # check_crc runs, and the files keep the bytes they had when the command
    # re-checked every code
    outdir = tmp_path / "found"
    with mock.patch("crcforge.verifier.check_crc", side_effect=AssertionError("re-checked")):
        assert run(["search", "--n", "3", "--q", "3", "--gamma", "2", "--index", "2",
                    "--emit", str(outdir)]) == 0
    assert capsys.readouterr().out.endswith(f"emitted 90 file(s) to {outdir}\n")
    files = sorted(p.name for p in outdir.iterdir())
    assert files == [f"code_{k:04d}.json" for k in range(90)] + ["index.json"]
    assert tree_sha256(outdir) == "8eafee9dba8cc70895838d2ff369f715ee99082de683e5fdd04537cc5567dce9"


def test_search_cli_count_only_emits_nothing(tmp_path, capsys):
    # --count-only keeps no codes, so with --emit it is an error before any search
    outdir = tmp_path / "none"
    assert run(["search", "--n", "2", "--q", "3", "--emit", str(outdir),
                "--count-only", "--workers", "1"]) == 2
    assert capsys.readouterr() == ("", "error: --emit and --count-only exclude each other: "
                                       "--count-only keeps no codes to write\n")
    assert not outdir.exists()


def test_search_cli_refuses_a_nonempty_emit_dir(tmp_path, capsys):
    # an H(2,4) emission, then H(3,2) into the same directory: the second is
    # refused before any search, and the old files keep their bytes
    outdir = tmp_path / "found"
    assert run(["search", "--n", "2", "--q", "4", "--emit", str(outdir), "--workers", "1"]) == 0
    before = tree_sha256(outdir)
    capsys.readouterr()
    with mock.patch("crcforge.search.enumerate_crcs", side_effect=AssertionError("searched")):
        assert run(["search", "--n", "3", "--q", "2", "--emit", str(outdir),
                    "--workers", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: --emit directory {outdir} is not empty: "
                                           "its files would mix with this search's\n")
        # --count-only keeps its own message
        assert run(["search", "--n", "3", "--q", "2", "--emit", str(outdir),
                    "--count-only"]) == 2
        assert capsys.readouterr().err.startswith("error: --emit and --count-only exclude ")
    assert tree_sha256(outdir) == before
    # an empty directory is fine
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["search", "--n", "3", "--q", "2", "--emit", str(empty), "--workers", "1"]) == 0
    assert len(list(empty.iterdir())) == 23
    # a directory that cannot be listed is a one-line error too
    with mock.patch("os.listdir", side_effect=PermissionError(13, "Permission denied")):
        assert run(["search", "--n", "3", "--q", "2", "--emit", str(empty)]) == 2
    assert capsys.readouterr().err == (f"error: cannot read {empty}: "
                                       "[Errno 13] Permission denied\n")


def test_search_cli_validation(capsys):
    assert run(["search", "--n", "3", "--q", "5"]) == 2
    capsys.readouterr()


def test_search_cli_rejects_beta_above_valency(capsys):
    # beta = q*i - gamma = 8 > k = 6: no such code, so no search starts
    assert run(["search", "--n", "3", "--q", "3", "--gamma", "1", "--index", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: targets give beta=8 above the valency 6")


def test_search_cli_rejects_a_bad_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("CRC_FORGE_THREADS", "junk")
    assert run(["search", "--n", "3", "--q", "2"]) == 2
    assert capsys.readouterr() == (
        "", "error: CRC_FORGE_THREADS='junk' is not a positive integer\n")
    assert run(["search", "--n", "3", "--q", "2", "--workers", "1"]) == 0  # never read


def test_census_rejects_a_bad_thread_count(monkeypatch):
    monkeypatch.setenv("CRC_FORGE_THREADS", "0")
    proc = run_python("scripts/census.py", "--spaces", "2,2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: CRC_FORGE_THREADS='0' is not a positive integer\n"


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_search_cli_rejects_a_nonpositive_worker_count(workers, capsys):
    assert run(["search", "--n", "2", "--q", "2", "--workers", workers]) == 2
    assert capsys.readouterr() == ("", f"error: workers={workers} is not a positive integer\n")


def test_census_rejects_a_nonpositive_worker_count():
    proc = run_python("scripts/census.py", "--spaces", "2,2", "--workers", "0")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: workers=0 is not a positive integer\n"


# ---------------------------------------------------------------- table, misc

# q=8, gamma=3 is the first entry realized through the three-block system
TABLE_Q8 = """\
q=2   i=1: 1   i=2: 1,2   i=3: 3
q=3   i=1: 1   i=2: 2   i=3: 3
q=4   i=1: 1,2   i=2: 2,3,4   i=3: 3,6
q=5   i=1: 1,2   i=2: 2,4   i=3: 3,6
q=6   i=1: 1,2,3   i=2: 2,3,4,5,6   i=3: 3,6,9
q=7   i=1: 1,2,3   i=2: 2,4,6   i=3: 3,6,9
q=8   i=1: 1,2,3,4   i=2: 2,3*,4,5,6,7,8   i=3: 3,6,9,12
(* = realized through the three-block system)
"""


def test_table_output(capsys):
    assert run(["table", "--q-max", "8"]) == 0
    assert capsys.readouterr() == (TABLE_Q8, "")
    for q_max in ("1", "0"):
        assert run(["table", "--q-max", q_max]) == 2
        assert capsys.readouterr() == (
            "", f"error: --q-max {q_max} is below the least alphabet size 2\n")


# every feasible entry of TABLE_Q8 with the kind of its builder; 3[d] is the
# starred cell
REPORT_Q8 = """\
q=2   i=1: 1[index1]
q=2   i=2: 1[b],2[a]
q=2   i=3: 3[index3]
q=3   i=1: 1[index1]
q=3   i=2: 2[a]
q=3   i=3: 3[index3]
q=4   i=1: 1[index1],2[index1]
q=4   i=2: 2[a],3[c],4[a]
q=4   i=3: 3[index3],6[index3]
q=5   i=1: 1[index1],2[index1]
q=5   i=2: 2[a],4[a]
q=5   i=3: 3[index3],6[index3]
q=6   i=1: 1[index1],2[index1],3[index1]
q=6   i=2: 2[a],3[b],4[a],5[c],6[a]
q=6   i=3: 3[index3],6[index3],9[index3]
q=7   i=1: 1[index1],2[index1],3[index1]
q=7   i=2: 2[a],4[a],6[a]
q=7   i=3: 3[index3],6[index3],9[index3]
q=8   i=1: 1[index1],2[index1],3[index1],4[index1]
q=8   i=2: 2[a],3[d],4[a],5[c],6[a],7[c],8[a]
q=8   i=3: 3[index3],6[index3],9[index3],12[index3]
built and verified 55 codes, 0 failure(s), """


def test_feasibility_report_output():
    # the report builds and verifies every entry; all but the timing is pinned
    proc = run_python("scripts/feasibility_report.py", "--q-max", "8")
    assert (proc.returncode, proc.stderr) == (0, "")
    head, timing = proc.stdout[:len(REPORT_Q8)], proc.stdout[len(REPORT_Q8):]
    assert head == REPORT_Q8
    assert re.fullmatch(r"\d+\.\d\ds\n", timing)


@pytest.mark.parametrize("argv, message", [
    (["-m", "crcforge.cli", "verify", "no-such-file.json"], "cannot read no-such-file.json: "),
    (["scripts/census.py", "--spaces", "2,2", "--workers", "0"],
     "workers=0 is not a positive integer"),
    (["scripts/census.py", "--spaces", "2,2;3,x"], "bad --spaces: '3,x' is not of the form n,q"),
    (["scripts/feasibility_report.py", "--q-max", "1"],
     "--q-max 1 is below the least alphabet size 2"),
    (["scripts/render_layers.py", "no-such-file.json"], "cannot read no-such-file.json: "),
], ids=["crcforge-verify", "census-workers", "census-spaces", "feasibility-report",
        "render-layers"])
def test_every_entry_point_reports_bad_input_in_one_line(argv, message):
    proc = run_python(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipe capacity is not settable")
@pytest.mark.parametrize("argv, lines", [(["table", "--q-max", "60"], 1),
                                         (["params", "solve-c1", "--q", "8"], 0)],
                         ids=["table-after-one-line", "solve-c1-closed-before"])
def test_closed_stdout_ends_quietly_with_141(argv, lines):
    # stdout is block-buffered, as in a plain shell.  The table's 9,975 bytes
    # cannot all pass a one-page pipe whose reader reads one line and closes:
    # some write fails, whatever the timing.  solve-c1 writes its 649 bytes
    # at exit, after the reader is gone.
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    if fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096) > 4096:
        pytest.skip("a pipe page larger than 4 KB holds half the table")
    if not lines:
        os.close(read)
    proc = subprocess.Popen([sys.executable, "-m", "crcforge.cli", *argv], cwd=REPO,
                            env=env, stdout=write, stderr=subprocess.PIPE)
    os.close(write)
    if lines:
        with os.fdopen(read, "rb") as out:
            assert out.readline() == b"q=2   i=1: 1   i=2: 1,2   i=3: 3\n"
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_render_layers(tmp_path):
    path = tmp_path / "c65.json"
    write_code(build_c(6, 5), str(path))
    proc = run_python("scripts/render_layers.py", str(path), "--direction", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    # D in every layer, plus T x (A-T) where x3 lies in S = {0, 1, 2}, else (A-T) x T
    low = "*.*..*\n*..*.*\n.*.*.*\n.*..**\n..*.**\n......\n"
    high = "*.*...\n*..*..\n.*.*..\n.*..*.\n..*.*.\n*****.\n"
    assert proc.stdout == "H(3,6), 90 codewords, gamma=5 beta=7\n" + "".join(
        f"\nposition 3 = {s}   (rows: position 1, cols: position 2)\n" + (low if s < 3 else high)
        for s in range(6))


@pytest.mark.parametrize("name, text, message", [
    ("missing.json", None, "cannot read"),
    ("junk.json", "{]", "not valid JSON"),
    pytest.param("deep.json", DEEP, "not valid JSON", id="deep.json"),
    # beyond Python's int-string digit limit: json.loads raises ValueError
    pytest.param("long-int.json", '{"n": 1' + "0" * 5000 + "}", "not valid JSON",
                 id="long-int.json"),
])
def test_render_layers_bad_file_is_a_one_line_error(tmp_path, name, text, message):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    proc = run_python("scripts/render_layers.py", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("full", [False, True], ids=["empty", "full"])
def test_render_layers_empty_or_full_code_is_a_one_line_error(tmp_path, full):
    path = tmp_path / "code.json"
    write_code(Code(Space(3, 2), np.full(8, full)), str(path))
    proc = run_python("scripts/render_layers.py", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: code must be a proper nonempty vertex subset\n"


def test_usage_errors():
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["--help"]) == 0
    assert run(["construct", "--help"]) == 0


def test_repeated_runs_match_fresh_parser(tmp_path, capsys):
    # run() shares one parser; a call must not leave state that the next sees
    path = str(tmp_path / "c.json")
    write_code(build_c(6, 5), path)
    argvs = [
        ["verify", "--expect-gamma", "5"],  # usage error: no file
        ["verify", path, "--expect-gamma", "4"],
        ["verify", path],
        ["params", "feasible", "--q", "16", "--gamma", "7"],
        ["params", "feasible", "--n", "4", "--q", "8", "--gamma", "7", "--index", "3"],
        ["no-such-command"],
    ]

    def outcome(argv, fresh):
        if fresh:
            build_parser.cache_clear()
        rc = run(argv)
        text = capsys.readouterr()
        return rc, text.out, text.err

    shared = [outcome(argv, False) for argv in argvs]
    assert shared == [outcome(argv, True) for argv in argvs]
    assert [rc for rc, _, _ in shared] == [2, 1, 0, 0, 2, 2]
    assert "the following arguments are required: file" in shared[0][2]
