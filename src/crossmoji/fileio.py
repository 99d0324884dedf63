"""Artifact files written whole or not at all, and the one binary layout
that model files and the project hand-off share."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside `path` and rename it over `path` when
    the block ends.  If the block raises, the temporary file is removed
    instead, so `path` never holds a torn file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# the dtypes an array may have, each stored little-endian
DTYPES = {np.dtype(np.float64): "<f8", np.dtype(np.float32): "<f4",
          np.dtype(np.int32): "<i4"}


def write_arrays(f, meta: dict, arrays) -> None:
    """Write `meta` as one UTF-8 JSON line into the binary file `f`, then
    each array in .npy format, little-endian float64, float32 or int32 as it
    is.  The same values always give the same bytes."""
    f.write(json.dumps(meta, ensure_ascii=False).encode("utf-8") + b"\n")
    for array in map(np.asarray, arrays):
        if array.dtype not in DTYPES:
            raise ValueError(f"cannot write a {array.dtype} array")
        np.save(f, array.astype(DTYPES[array.dtype], copy=False), allow_pickle=False)


def read_arrays(path, fmt: str, dtypes) -> tuple[dict, list[np.ndarray]]:
    """What `write_arrays` wrote to `path`: its JSON object and its arrays.
    ValueError (or EOFError) unless the object's "format" is `fmt` and one
    array of each of `dtypes` follows it, in that order."""
    with open(path, "rb") as f:
        meta = json.loads(f.readline())
        if not isinstance(meta, dict) or meta.get("format") != fmt:
            raise ValueError(f"not a {fmt} file")
        arrays = [np.lib.format.read_array(f, allow_pickle=False) for _ in dtypes]
        if f.read(1):
            raise ValueError("trailing bytes after the arrays")
    for array, dtype in zip(arrays, dtypes):
        if array.dtype != dtype:
            raise ValueError(f"an array is {array.dtype}, expected {np.dtype(dtype)}")
    return meta, arrays
