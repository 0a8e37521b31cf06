"""Reading and writing codes as JSON files (format tag "crc-code.v1").

The canonical serialization sorts codewords lexicographically, one per line,
and sorts meta keys, so writing the same code twice yields identical bytes.
Both directions work on whole arrays: coordinates come from the vertex
indices in one pass, and a file's codewords are type-checked, range-checked
and scattered into the indicator without a per-codeword loop.  Only a file
that fails a check is scanned word by word, to name the first bad codeword.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional, TextIO, Union

import numpy as np

from .hamming import Code, Space

FORMAT = "crc-code.v1"


class CodeFileError(ValueError):
    """Malformed code file (bad JSON, wrong tag, invalid codewords)."""


def dumps_code(code: Code, meta: Optional[dict] = None) -> str:
    sp = code.space
    coords = np.stack(np.unravel_index(code.indices(), sp.shape), axis=1)
    # one "    [a, b, c]" line per codeword, as json.dumps writes a list of ints
    row = "    [" + ", ".join(["%d"] * sp.n) + "]"
    rows = ",\n".join([row] * len(coords)) % tuple(coords.ravel().tolist())
    meta_json = json.dumps(meta or {}, sort_keys=True, separators=(", ", ": "))
    return (
        "{\n"
        f'  "format": {json.dumps(FORMAT)},\n'
        f'  "n": {code.space.n},\n'
        f'  "q": {code.space.q},\n'
        f'  "codewords": [\n{rows}\n  ],\n'
        f'  "meta": {meta_json}\n'
        "}\n"
    )


def write_code(code: Code, path: str, meta: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(dumps_code(code, meta))


def read_code(source: Union[str, TextIO]) -> tuple[Code, dict]:
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fp:
                text = fp.read()
        except OSError as e:
            raise CodeFileError(f"cannot read {source}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
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
