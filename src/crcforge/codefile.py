"""Reading and writing codes as JSON files (format tag "crc-code.v1").

The canonical serialization sorts codewords lexicographically, one per line,
and sorts meta keys, so writing the same code twice yields identical bytes.
``_rows`` is the one byte-level definition of the codeword lines: the writer
fills fixed-width digit cells from the symbol array, one ``divmod`` by 10 per
digit place from the low digit up, and drops the leading zeros in one
compaction.  The reader finds the meta at the last occurrence of its
separator, since the writer's meta is one line, decodes the codewords from
their digit runs and accepts the file only if ``_rows`` re-encodes those symbols
to the very same bytes, every symbol is below q, no codeword repeats and the
meta alone parses as a JSON object; the text is then exactly the JSON that
``json.loads`` would read to the same code and meta.  Any other text takes
the general path: ``json.loads``, then whole-array type, length and range
checks, and a word-by-word scan only to name the first bad codeword.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Optional, TextIO, Union

import numpy as np

from .hamming import Code, Space

FORMAT = "crc-code.v1"

# The frame around the codeword lines; _HEAD captures n and q as written.
_HEAD = re.compile(r'\{\n  "format": "crc-code\.v1",\n  "n": ([0-9]{1,20}),\n  "q": ([0-9]{1,20}),\n'
                   r'  "codewords": \[\n')
_META = '\n  ],\n  "meta": '
_TAIL = "\n}\n"


class CodeFileError(ValueError):
    """Malformed code file (bad JSON, wrong tag, invalid codewords)."""


def _header(n: int, q: int) -> str:
    return (f'{{\n  "format": {json.dumps(FORMAT)},\n  "n": {n},\n  "q": {q},\n'
            f'  "codewords": [\n')


def _symbol_dtype(q: int) -> type:
    """int32 where every run of len(str(q-1)) digits fits, else int64
    (Space admits H(1, q) up to q = 2^32)."""
    return np.int32 if 10 ** len(str(q - 1)) <= 2**31 else np.int64


def _rows(syms: np.ndarray, q: int) -> np.ndarray:
    """The codeword lines of the canonical layout as ASCII bytes (uint8):
    "    [a, b, c]" per row of the (N, n) symbol array, joined by ",\n",
    exactly as json.dumps writes each row.  Each symbol fills a cell of
    w = len(str(q-1)) digits, and one compaction drops the leading zeros."""
    count, n = syms.shape
    w = len(str(q - 1))
    start = "    ["
    line = (start + ", ".join(["0" * w] * n) + "],\n").encode("ascii")
    cells = np.empty((count, len(line)), np.uint8)
    cells[:] = np.frombuffer(line, np.uint8)
    keep = np.ones(cells.shape, bool)
    # one buffer per role, reused for every digit place
    rest, d = np.empty(count, syms.dtype), np.empty(count, syms.dtype)
    for j in range(n):
        col = syms[:, j]
        units = len(start) + j * (w + len(", ")) + w - 1
        for p in range(w):  # from the low digit up
            np.divmod(rest if p else col, 10, out=(rest, d))
            np.add(d, ord("0"), out=cells[:, units - p], casting="unsafe")
            if p:
                np.greater_equal(col, 10 ** p, out=keep[:, units - p])
    return cells[keep][:-2]  # no ",\n" after the last line


def _symbols(code: Code) -> np.ndarray:
    """The (N, n) symbols of the codewords, in lexicographic order.  Its own
    frame frees the int64 indices before ``_rows`` allocates its cells."""
    idx = code.indices()
    syms = np.empty((len(idx), code.space.n), _symbol_dtype(code.space.q))
    for j, col in enumerate(np.unravel_index(idx, code.space.shape)):
        syms[:, j] = col
    return syms


def dumps_code(code: Code, meta: Optional[dict] = None) -> str:
    sp = code.space
    rows = str(_rows(_symbols(code), sp.q), "ascii")
    meta_json = json.dumps(meta or {}, sort_keys=True, separators=(", ", ": "))
    return _header(sp.n, sp.q) + rows + _META + meta_json + _TAIL


def write_code(code: Code, path: str, meta: Optional[dict] = None) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(dumps_code(code, meta))
    except OSError as e:
        raise CodeFileError(f"cannot write {path}: {e}") from e


def read_code(source: Union[str, TextIO]) -> tuple[Code, dict]:
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fp:
                text = fp.read()
        except OSError as e:
            raise CodeFileError(f"cannot read {source}: {e}") from e
    canonical = _read_canonical(text)
    return canonical if canonical is not None else _read_json(text)


def _read_canonical(text: str) -> Optional[tuple[Code, dict]]:
    """The code and meta of a file in the writer's layout, or None for any
    other text, which the general path then reads or rejects."""
    head = _HEAD.match(text)
    if head is None or not text.endswith(_TAIL):
        return None
    n, q = int(head[1]), int(head[2])
    if head[0] != _header(n, q):  # leading zeros
        return None
    try:
        space = Space(n, q)
    except ValueError:
        return None
    end = text.rfind(_META, head.end())  # the meta is one line
    if end < 0:
        return None
    try:
        meta = json.loads(text[end + len(_META):-len(_TAIL)])
    except (ValueError, RecursionError):
        return None
    if type(meta) is not dict:
        return None
    try:
        block = text[head.end():end].encode("ascii")
    except UnicodeEncodeError:
        return None
    syms = _read_rows(block, n, q)
    if syms is None:
        return None
    mask = np.zeros(space.size, dtype=bool)
    mask[np.ravel_multi_index(tuple(syms.T), space.shape)] = True
    if np.count_nonzero(mask) != len(syms):  # a repeated codeword
        return None
    return Code(space, mask), meta


def _read_rows(raw: bytes, n: int, q: int) -> Optional[np.ndarray]:
    """The (N, n) symbols of a block of codeword lines, or None unless they
    are below q and ``_rows`` writes exactly these bytes for them.  Each run
    of digits is read leniently, from at most its last w digits: a run read
    wrong (longer than w, or at the very start of the block) re-encodes to
    other bytes and is rejected there."""
    u8 = np.frombuffer(raw, np.uint8)
    zero = np.uint8(ord("0"))
    digit = np.zeros(len(u8) + 1, bool)
    np.less(u8 - zero, 10, out=digit[:-1])  # other bytes wrap to >= 10
    last = np.flatnonzero(digit[1:] < digit[:-1])  # the last digit of each run
    del digit
    if len(last) % n:
        return None
    # one buffer per role, reused for every digit place
    syms = np.zeros(len(last), _symbol_dtype(q))
    scaled = np.empty_like(syms)
    alive = np.ones(len(last), bool)
    d = np.empty(len(last), np.uint8)
    for k in range(len(str(q - 1))):
        if k:
            np.subtract(last, 1, out=last)
            np.maximum(last, 0, out=last)
        u8.take(last, out=d)
        d -= zero
        alive &= d < 10
        d[~alive] = 0
        syms += np.multiply(d, 10 ** k, out=scaled, dtype=syms.dtype)
    del last, scaled, alive, d
    if syms.size and syms.max() >= q:
        return None
    syms = syms.reshape(-1, n)
    return syms if np.array_equal(_rows(syms, q), u8) else None


def _read_json(text: str) -> tuple[Code, dict]:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # deep nesting raises RecursionError
        raise CodeFileError(f"not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise CodeFileError("top level must be a JSON object")
    if obj.get("format") != FORMAT:
        raise CodeFileError(f'missing or wrong "format" tag (expected {FORMAT!r})')
    n, q = obj.get("n"), obj.get("q")
    # JSON true/false load as bool, a subclass of int: exact type checks
    # keep them out of n, q and the symbols.
    if not (type(n) is int and type(q) is int):
        raise CodeFileError('"n" and "q" must be integers')
    try:
        space = Space(n, q)
    except ValueError as e:
        raise CodeFileError(str(e)) from e
    words = obj.get("codewords")
    if not isinstance(words, list):
        raise CodeFileError('"codewords" must be a list')
    mask = _codeword_mask(words, space)
    if mask is None:
        raise _first_bad_codeword(words, n, q)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise CodeFileError('"meta" must be an object')
    return Code(space, mask), meta


def _codeword_mask(words: list, space: Space) -> Optional[np.ndarray]:
    """Indicator of the codewords, or None if any word is not a list of n
    ints in 0..q-1 or occurs twice.  Word types are checked before lengths,
    so ``len`` never sees a bare number."""
    n, q = space.n, space.q
    if not set(map(type, words)) <= {list}:
        return None
    if not set(map(len, words)) <= {n}:
        return None
    if not set(map(type, itertools.chain.from_iterable(words))) <= {int}:
        return None
    try:
        flat = np.fromiter(itertools.chain.from_iterable(words), dtype=np.int64,
                           count=len(words) * n)
    except OverflowError:
        return None
    if flat.size and (flat.min() < 0 or flat.max() >= q):
        return None
    mask = np.zeros(space.size, dtype=bool)
    mask[np.ravel_multi_index(tuple(flat.reshape(-1, n).T), space.shape)] = True
    if np.count_nonzero(mask) != len(words):
        return None
    return mask


def _first_bad_codeword(words: list, n: int, q: int) -> CodeFileError:
    """The error naming the first word that ``_codeword_mask`` rejects."""
    seen = set()
    for w in words:
        if not (isinstance(w, list) and len(w) == n
                and all(type(c) is int and 0 <= c < q for c in w)):
            return CodeFileError(f"bad codeword {w!r} for H({n},{q})")
        tw = tuple(w)
        if tw in seen:
            return CodeFileError(f"duplicate codeword {w!r}")
        seen.add(tw)
    raise RuntimeError("codewords were rejected, but no word is bad")
