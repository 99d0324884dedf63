"""Atomic artifact writes, the rule that every write goes through them,
and the binary array layout."""

import ast
from pathlib import Path

import numpy as np
import pytest

import crossmoji
from crossmoji.fileio import atomic_write, read_arrays, write_arrays


@pytest.mark.parametrize("old", [b"old bytes\n", None], ids=["over-old-file", "no-old-file"])
@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_atomic_write_that_raises_leaves_target_as_it_was(tmp_path, old, error):
    target = tmp_path / "artifact.csv"
    if old is not None:
        target.write_bytes(old)
    with pytest.raises(error, match="cut off"):
        with atomic_write(target, "wb") as f:
            f.write(b"new bytes, half of them")
            f.flush()
            raise error("cut off")
    assert (target.read_bytes() if target.exists() else None) == old
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else [target.name])


def test_atomic_write_replaces_target_when_block_ends(tmp_path):
    target = tmp_path / "artifact.csv"
    target.write_text("old\n", encoding="utf-8")
    with atomic_write(target, newline="", encoding="utf-8") as f:
        f.write("new\r\n")
        assert target.read_text(encoding="utf-8") == "old\n"
    assert target.read_bytes() == b"new\r\n"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def in_place_writes(tree: ast.AST) -> list[int]:
    """Lines that open a file with a mode that may write (or one that is not
    a literal), or call `.write_text` / `.write_bytes`."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            lines.append(node.lineno)
            continue
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "open":
            continue
        # open(path, mode) or Path.open(mode)
        index = 1 if isinstance(func, ast.Name) else 0
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        modes += node.args[index:index + 1]
        for mode in modes:
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                lines.append(node.lineno)
    return lines


def test_no_module_but_fileio_writes_files_in_place():
    # every artifact is renamed into place by fileio.atomic_write, so no
    # reader ever sees a torn file
    package = Path(crossmoji.__file__).parent
    found = {path.name: in_place_writes(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(package.glob("*.py")) if path.name != "fileio.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_in_place_write_scan_sees_each_form():
    source = """
open(p, "w")
open(p, mode="a", encoding="utf-8")
open(p, "r+b")
open(p, m)
q.open("wb")
q.write_text("x")
q.write_bytes(b"x")
open(p)
open(p, "rb")
q.open()
q.open(encoding="utf-8")
"""
    assert sorted(in_place_writes(ast.parse(source))) == [2, 3, 4, 5, 6, 7, 8]


def test_arrays_keep_their_dtype(tmp_path):
    floats, ints = np.linspace(0, 1, 6).reshape(2, 3), np.array([3, -1, 2**31 - 1], np.int32)
    with open(tmp_path / "a.bin", "wb") as f:
        write_arrays(f, {"format": "test 1", "n": 2}, [floats, ints])
    meta, (f64, i32) = read_arrays(tmp_path / "a.bin", "test 1", (np.float64, np.int32))
    assert meta == {"format": "test 1", "n": 2}
    assert f64.dtype == np.float64 and np.array_equal(f64, floats)
    assert i32.dtype == np.int32 and np.array_equal(i32, ints)
    with pytest.raises(ValueError, match="an array is int32, expected float64"):
        read_arrays(tmp_path / "a.bin", "test 1", (np.float64, np.float64))
    with pytest.raises(ValueError, match="not a test 2 file"):
        read_arrays(tmp_path / "a.bin", "test 2", (np.float64, np.int32))
    with pytest.raises(ValueError, match="trailing bytes"):
        read_arrays(tmp_path / "a.bin", "test 1", (np.float64,))


def test_float32_arrays_round_trip_bit_for_bit(tmp_path):
    # a subnormal, a negative zero and the largest finite value among them
    values = np.array([[1 / 3, -0.0, 1e-45], [3.4028235e38, -1.17549435e-38, 7.0]], np.float32)
    with open(tmp_path / "a.bin", "wb") as f:
        write_arrays(f, {"format": "test 1"}, [values])
    assert (tmp_path / "a.bin").read_bytes().count(b"'descr': '<f4'") == 1
    _, (f32,) = read_arrays(tmp_path / "a.bin", "test 1", (np.float32,))
    assert f32.dtype == np.float32
    assert np.array_equal(f32.view(np.uint32), values.view(np.uint32))
    with pytest.raises(ValueError, match="an array is float32, expected float64"):
        read_arrays(tmp_path / "a.bin", "test 1", (np.float64,))


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.int8])
def test_write_arrays_refuses_other_dtypes(tmp_path, dtype):
    with open(tmp_path / "a.bin", "wb") as f, pytest.raises(ValueError, match="cannot write"):
        write_arrays(f, {"format": "test 1"}, [np.zeros(2, dtype)])
