"""Artifact files written whole or not at all, the one binary layout that
stream files, model files and the project hand-off share, and the stream
files themselves: what ingest writes and train and project read.  A stream
file stores its type ids and post lengths each at the narrowest integer
width that holds them, and is read back as int32."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

STREAM_FORMAT = "crossmoji-streams 2"


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
          np.dtype(np.int32): "<i4", np.dtype(np.uint16): "<u2", np.dtype(np.uint8): "<u1"}


def write_arrays(f, meta: dict, arrays) -> None:
    """Write `meta` as one UTF-8 JSON line into the binary file `f`, then
    each array in .npy format, little-endian float64, float32, int32, uint16
    or uint8 as it is.  The same values always give the same bytes."""
    f.write(json.dumps(meta, ensure_ascii=False).encode("utf-8") + b"\n")
    for array in map(np.asarray, arrays):
        if array.dtype not in DTYPES:
            raise ValueError(f"cannot write a {array.dtype} array")
        np.save(f, array.astype(DTYPES[array.dtype], copy=False), allow_pickle=False)


def read_arrays(path, fmt: str, dtypes) -> tuple[dict, list[np.ndarray]]:
    """What `write_arrays` wrote to `path`: its JSON object and its arrays.
    ValueError (or EOFError) unless the object's "format" is `fmt` and one
    array for each of `dtypes` follows it, in that order, of that dtype, or
    of one in it where it is a tuple of dtypes."""
    with open(path, "rb") as f:
        meta = json.loads(f.readline())
        if not isinstance(meta, dict) or meta.get("format") != fmt:
            raise ValueError(f"not a {fmt} file")
        arrays = [np.lib.format.read_array(f, allow_pickle=False) for _ in dtypes]
        if f.read(1):
            raise ValueError("trailing bytes after the arrays")
    for array, accepted in zip(arrays, dtypes):
        accepted = [np.dtype(d) for d in (accepted if isinstance(accepted, tuple) else (accepted,))]
        if array.dtype not in accepted:
            raise ValueError(f"an array is {array.dtype}, expected "
                             + " or ".join(map(str, accepted)))
    return meta, arrays


# --- stream files ---------------------------------------------------------------

@dataclass(frozen=True)
class TypeStreams:
    """A corpus's posts as type ids: its type table (each distinct token,
    in the order first seen), the int32 type ids of all posts back to
    back, and the int32 length of each post.  A stream file may store the
    two arrays narrower; `read_streams` gives them back as int32."""

    types: tuple[str, ...]
    ids: np.ndarray
    lengths: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """How often each type occurs, in type-table order."""
        return np.bincount(self.ids, minlength=len(self.types))

    @classmethod
    def of(cls, streams: Iterable) -> TypeStreams:
        """Token streams (`TokenStream`s or token sequences) as type ids; a
        `TypeStreams` is returned as it is."""
        if isinstance(streams, TypeStreams):
            return streams
        table: dict[str, int] = {}
        ids: list[int] = []
        lengths: list[int] = []
        for stream in streams:
            tokens = stream.tokens if hasattr(stream, "tokens") else stream
            ids.extend([table.setdefault(t, len(table)) for t in tokens])
            lengths.append(len(tokens))
        return cls(tuple(table), np.array(ids, dtype=np.int32),
                   np.array(lengths, dtype=np.int32))

    @classmethod
    def join(cls, parts: Iterable[TypeStreams]) -> TypeStreams:
        """The posts of `parts` in order, under one type table: the same
        as `of` gives for all their streams at once."""
        table: dict[str, int] = {}
        ids, lengths = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
        for part in parts:
            remap = np.array([table.setdefault(t, len(table)) for t in part.types],
                             dtype=np.int32)
            ids.append(remap[part.ids])
            lengths.append(part.lengths)
        return cls(tuple(table), np.concatenate(ids), np.concatenate(lengths))


# the widths a stream file stores its type ids and post lengths at
STREAM_DTYPES = (np.uint8, np.uint16, np.int32)


def _narrowest(array: np.ndarray) -> np.ndarray:
    """`array`, of values >= 0, as the first of `STREAM_DTYPES` that holds
    its largest value (0 for an empty array)."""
    top = int(array.max(initial=0))
    dtype = next(d for d in STREAM_DTYPES if top <= np.iinfo(d).max)
    return array.astype(dtype, copy=False)


def write_streams(f, streams: TypeStreams) -> None:
    """Write `streams` into the binary file `f` in the `write_arrays`
    layout: a JSON line with the format tag, the `types` and their
    `counts`, then the type ids and the post lengths, each at the narrowest
    of uint8, uint16 and int32 that holds its largest value."""
    meta = {"format": STREAM_FORMAT, "types": list(streams.types),
            "counts": streams.counts.tolist()}
    write_arrays(f, meta, [_narrowest(streams.ids), _narrowest(streams.lengths)])


def read_streams(path) -> TypeStreams:
    """What `write_streams` wrote to `path`, its arrays as int32; ValueError
    (or EOFError) if it is not a consistent stream file of this format."""
    meta, arrays = read_arrays(path, STREAM_FORMAT, (STREAM_DTYPES, STREAM_DTYPES))
    ids, lengths = (array.astype(np.int32, copy=False) for array in arrays)
    streams = TypeStreams(tuple(meta["types"]), ids, lengths)
    if (ids.ndim != 1 or lengths.ndim != 1 or int(lengths.sum()) != len(ids)
            or not ((ids >= 0) & (ids < len(streams.types))).all()
            or streams.counts.tolist() != meta["counts"]):
        raise ValueError(f"{path}: type ids, post lengths and counts disagree")
    return streams
