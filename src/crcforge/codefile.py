"""Reading and writing codes as JSON files (format tag "crc-code.v1").

The canonical serialization sorts codewords lexicographically, one per line,
and sorts meta keys, so writing the same code twice yields identical bytes.
``_rows`` is the one byte-level definition of the codeword lines.  It repeats
one template line per codeword, with a NUL-filled cell of w = len(str(q-1))
bytes per symbol, and fills each cell by one token gather per symbol column:
a small cached table holds every value of up to four digits as a NUL-padded
ASCII token.  Wider symbols are split into four-digit limbs, and a limb takes
its zero-padded token whenever a higher limb is nonzero.  One
``bytes.replace`` then drops the NULs, which stand for the leading zeros.

Files are written and read as bytes (a text stream's text is encoded as
UTF-8 first); ``json.dumps`` escapes the meta, so the writer's output is
ASCII.  The reader finds the meta at the last occurrence of its separator,
since the writer's meta is one line, decodes the codewords from their digit
runs and accepts the file only if ``_rows`` re-encodes those symbols to the
very same bytes, every symbol is below q, no codeword repeats and the meta
alone decodes as UTF-8 to a JSON object; the file is then exactly the JSON
that ``json.loads`` would read to the same code and meta.  Any other file is
decoded as a text-mode open would decode it (UTF-8, universal newlines) and
takes the general path: ``json.loads``, then whole-array type, length and
range checks, and a word-by-word scan only to name the first bad codeword.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from typing import Optional, TextIO, Union

import numpy as np

from .hamming import Code, Space

FORMAT = "crc-code.v1"

# The frame around the codeword lines; _HEAD captures n and q as written.
_HEAD = re.compile(rb'\{\n  "format": "crc-code\.v1",\n  "n": ([0-9]{1,20}),\n  "q": ([0-9]{1,20}),\n'
                   rb'  "codewords": \[\n')
_META = b'\n  ],\n  "meta": '
_TAIL = b"\n}\n"
_LIMB = 4  # digits per token


class CodeFileError(ValueError):
    """Malformed code file (bad JSON, wrong tag, invalid codewords)."""


def _header(n: int, q: int) -> bytes:
    return (f'{{\n  "format": {json.dumps(FORMAT)},\n  "n": {n},\n  "q": {q},\n'
            f'  "codewords": [\n').encode("ascii")


def _symbol_dtype(q: int) -> type:
    """int32 where every run of len(str(q-1)) digits fits, else int64
    (Space admits H(1, q) up to q = 2^32)."""
    return np.int32 if 10 ** len(str(q - 1)) <= 2**31 else np.int64


@functools.lru_cache(maxsize=None)
def _tokens(width: int, units: bool) -> np.ndarray:
    """The tokens of the limb values 0 .. 10**width - 1 as ``width``-byte
    cells: first NUL-padded, then zero-padded.  The NUL-padded 0 is "0" in
    the units limb and empty in any higher limb."""
    value = np.arange(10 ** width)[:, None]
    place = 10 ** np.arange(width - 1, -1, -1)
    digits = (value // place % 10 + ord("0")).astype(np.uint8)
    padded = np.where(value >= place, digits, 0).astype(np.uint8)
    padded[0, -1] = ord("0") if units else 0
    tokens = np.concatenate([padded, digits]).view(f"V{width}")[:, 0]
    tokens.setflags(write=False)  # one array serves every caller
    return tokens


def _rows(syms: np.ndarray, q: int) -> bytes:
    """The codeword lines of the canonical layout as ASCII bytes:
    "    [a, b, c]" per row of the (N, n) symbol array, joined by ",\n",
    exactly as json.dumps writes each row.  Each symbol's cell is split into
    limbs of _LIMB digits from the low end, and each limb is one token
    gather; see the module docstring."""
    count, n = syms.shape
    w = len(str(q - 1))
    limbs = [min(_LIMB, w - k) for k in range(0, w, _LIMB)]  # widths, low limb first
    start, sep = "    [", ", "
    line = (start + sep.join(["\0" * w] * n) + "],\n").encode("ascii")
    # one field per (column j, limb k), limbs counted from the units digit of the cell
    cells = np.dtype({
        "names": [f"{j}.{k}" for j in range(n) for k in range(len(limbs))],
        "formats": [f"V{width}" for width in limbs] * n,
        "offsets": [len(start) + j * (w + len(sep)) + w - k * _LIMB - width
                    for j in range(n) for k, width in enumerate(limbs)],
        "itemsize": len(line)})
    lines = bytearray(line) * count
    view = np.frombuffer(lines, cells)
    for j in range(n):
        value = syms[:, j]
        for k, width in enumerate(limbs):
            if k + 1 < len(limbs):
                value, low = np.divmod(value, 10 ** _LIMB)
                index = low + (value != 0) * 10 ** _LIMB  # zero-padded below a nonzero limb
            else:
                index = value
            view[f"{j}.{k}"] = _tokens(width, k == 0).take(index)
    return bytes(memoryview(lines)[:-2]).replace(b"\0", b"")  # no ",\n" after the last line


def dumps_code(code: Code, meta: Optional[dict] = None) -> str:
    sp = code.space
    rows = _rows(np.argwhere(code.grid), sp.q)  # the grid's C order is lexicographic
    meta_json = json.dumps(meta or {}, sort_keys=True, separators=(", ", ": ")).encode("ascii")
    return b"".join((_header(sp.n, sp.q), rows, _META, meta_json, _TAIL)).decode("ascii")


def write_code(code: Code, path: str, meta: Optional[dict] = None) -> None:
    data = dumps_code(code, meta).encode("ascii")  # before the file is truncated
    try:
        with open(path, "wb") as fp:
            fp.write(data)
    except OSError as e:
        raise CodeFileError(f"cannot write {path}: {e}") from e


def read_code(source: Union[str, TextIO]) -> tuple[Code, dict]:
    """The code and meta of a file path or a text stream."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        try:
            with open(source, "rb") as fp:
                data = fp.read()
        except OSError as e:
            raise CodeFileError(f"cannot read {source}: {e}") from e
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    canonical = _read_canonical(raw)
    if canonical is not None:
        return canonical
    if isinstance(data, bytes):  # a path: decoded as a text-mode open decodes it
        data = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return _read_json(data)


def _read_canonical(raw: bytes) -> Optional[tuple[Code, dict]]:
    """The code and meta of a file in the writer's layout, or None for any
    other bytes, which the general path then reads or rejects."""
    head = _HEAD.match(raw)
    if head is None or not raw.endswith(_TAIL):
        return None
    n, q = int(head[1]), int(head[2])
    if head[0] != _header(n, q):  # leading zeros
        return None
    try:
        space = Space(n, q)
    except ValueError:
        return None
    end = raw.rfind(_META, head.end())  # the meta is one line
    if end < 0:
        return None
    try:  # a UnicodeDecodeError is a ValueError
        meta = json.loads(raw[end + len(_META):-len(_TAIL)].decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if type(meta) is not dict:
        return None
    syms = _read_rows(raw[head.end():end], n, q)
    mask = None if syms is None else _mask_of(space, syms)
    return None if mask is None else (Code(space, mask), meta)


def _mask_of(space: Space, syms: np.ndarray) -> Optional[np.ndarray]:
    """Indicator of the (N, n) symbol rows, or None if a row repeats."""
    mask = np.zeros(space.size, dtype=bool)
    mask[np.ravel_multi_index(tuple(syms.T), space.shape)] = True
    return mask if np.count_nonzero(mask) == len(syms) else None


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
    return syms if _rows(syms, q) == raw else None


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
    return _mask_of(space, flat.reshape(-1, n))


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
