"""Bit-exact serialization: a minimal binary cube container and CSV report
writers whose float fields round-trip exactly.

Container layout: one ASCII header line
    HSIC1 M N P {f32|f64} BSQ LE\n
followed by exactly M*N*P little-endian scalars in band-sequential order
(all of band 0 row-major, then band 1, ...). f64 cubes round-trip
bit-identically; f32 narrows with round-to-nearest-even and is lossy.
"""

from __future__ import annotations

import csv
import os
import stat

import numpy as np

from .cube import HsiCube

_MAGIC = "HSIC1"
_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
# Largest read from a non-regular input, whose size is not known up front,
# and largest slab of whole bands a write converts at a time (one band at
# least).
_CHUNK = 1 << 20


class ContainerError(ValueError):
    """A cube file does not conform to the container layout."""


class BadMagicError(ContainerError):
    """The file does not start with the container magic."""


class UnknownDtypeError(ContainerError):
    """The header names a dtype other than f32/f64."""


class TruncatedPayloadError(ContainerError):
    """The payload holds fewer bytes than the header promises."""


def write_cube(cube: HsiCube, path: str, dtype: str = "f64") -> None:
    """Serialize a cube; "f64" is exact, "f32" narrows lossily and refuses overflow.

    The band-sequential payload is converted and written in slabs of whole
    bands of at most `_CHUNK` bytes each (one band at least), so no copy of
    the whole cube is made. An f32 overflow is refused before the file is
    opened.
    """
    if dtype not in _DTYPES:
        raise UnknownDtypeError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    dt = _DTYPES[dtype]
    m, n, p = cube.dims
    header = f"{_MAGIC} {m} {n} {p} {dtype} BSQ LE\n"
    if dtype == "f32":
        # Narrowing is monotone, so the cube overflows iff one of its extremes does.
        with np.errstate(over="ignore"):  # the cube is finite: only narrowing makes an inf
            ends = np.array([cube.data.min(), cube.data.max()]).astype(dt)
        if np.isinf(ends).any():
            raise ValueError("cube holds values beyond the float32 range; write it as f64")
    step = max(1, _CHUNK // (m * n * dt.itemsize))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for b in range(0, p, step):
            slab = np.ascontiguousarray(np.moveaxis(cube.data[:, :, b:b + step], 2, 0), dtype=dt)
            fh.write(memoryview(slab).cast("B"))
            del slab  # so the next slab is not made while this one is alive


def read_cube(path: str) -> HsiCube:
    """Read a container back into a cube (f32 widens to f64 in memory)."""
    with open(path, "rb") as fh:
        header = fh.readline(256)
        if not header.endswith(b"\n"):
            raise ContainerError("header line missing or unterminated")
        fields = header.decode("ascii", errors="replace").split()
        if not fields or fields[0] != _MAGIC:
            raise BadMagicError(
                f"bad magic: expected {_MAGIC!r}, got {fields[0] if fields else ''!r}"
            )
        if len(fields) != 7:
            raise ContainerError(f"header must have 7 fields, got {len(fields)}")
        try:
            m, n, p = (int(fields[i]) for i in (1, 2, 3))
        except ValueError:
            raise ContainerError(f"non-integer dims in header: {fields[1:4]}") from None
        if min(m, n, p) < 1:
            raise ContainerError(f"dims must be positive, got {(m, n, p)}")
        if fields[4] not in _DTYPES:
            raise UnknownDtypeError(f"unknown dtype {fields[4]!r}")
        if fields[5] != "BSQ" or fields[6] != "LE":
            raise ContainerError(
                f"layout/endianness must be 'BSQ LE', got {fields[5]!r} {fields[6]!r}"
            )
        dt = _DTYPES[fields[4]]
        need = m * n * p * dt.itemsize
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            # A regular file's size bounds its payload before any allocation.
            got = info.st_size - fh.tell()
            if got >= need:
                data = np.empty((p, m, n), dtype=dt)
                got = fh.readinto(memoryview(data).cast("B"))
        else:
            # A pipe's size is not known: the buffer grows only as bytes arrive.
            payload = bytearray()
            while len(payload) < need:
                chunk = fh.read(min(_CHUNK, need - len(payload)))
                if not chunk:
                    break
                payload += chunk
            got = len(payload)
            if got == need:
                data = np.frombuffer(payload, dtype=dt).reshape(p, m, n)
        if got < need:
            raise TruncatedPayloadError(
                f"truncated payload: expected {need} bytes, got {got}"
            )
        if fh.read(1):
            raise ContainerError("trailing bytes after payload")
    # The cube is a band-sequential view of the payload; f32 widens to f64.
    return HsiCube(np.moveaxis(data, 0, 2), copy=dt != np.float64)


def _fmt(value) -> str:
    """17-significant-digit text for floats (exact float64 round trip)."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_rows(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_report_csv(report, path: str) -> None:
    """Write a report as UTF-8 CSV: the header and rows its `csv_table()`
    returns. Each report type of `validate` defines its own columns."""
    if not hasattr(report, "csv_table"):
        raise TypeError(f"no CSV schema for report type {type(report).__name__}")
    _write_rows(path, *report.csv_table())


def write_qq_csv(pairs: np.ndarray, path: str) -> None:
    """Write Q-Q pairs as a two-column CSV sorted by theoretical quantile."""
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be (n, 2), got shape {pairs.shape}")
    order = np.argsort(pairs[:, 0], kind="stable")
    _write_rows(path, ["theoretical", "empirical"], [list(r) for r in pairs[order]])
