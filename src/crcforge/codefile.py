"""Reading and writing codes as JSON files (format tag "crc-code.v1").

The canonical serialization sorts codewords lexicographically, one per line,
and sorts meta keys, so writing the same code twice yields identical bytes.
"""

from __future__ import annotations

import json
from typing import Optional, TextIO, Union

from .hamming import Code, Space

FORMAT = "crc-code.v1"


class CodeFileError(ValueError):
    """Malformed code file (bad JSON, wrong tag, invalid codewords)."""


def dumps_code(code: Code, meta: Optional[dict] = None) -> str:
    rows = ",\n".join("    " + json.dumps(list(v)) for v in code.vertices())
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
    seen = set()
    for w in words:
        if not (isinstance(w, list) and len(w) == n
                and all(type(c) is int and 0 <= c < q for c in w)):
            raise CodeFileError(f"bad codeword {w!r} for H({n},{q})")
        tw = tuple(w)
        if tw in seen:
            raise CodeFileError(f"duplicate codeword {w!r}")
        seen.add(tw)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise CodeFileError('"meta" must be an object')
    return Code.from_vertices(space, seen), meta
