"""File formats: single-column CSV for 1D signals, PGM for images, JSON reports.

All writers are deterministic: the same data produces byte-identical files,
so reruns with a fixed seed can be compared with cmp/diff. Floats are
rendered with repr (shortest round-trip form).
"""
from __future__ import annotations

import json

import numpy as np

from .grid import LatticeShape, Signal

SCHEMA_VERSION = 1


def write_csv_column(path, values, header: str) -> None:
    write_csv_rows(path, (header,),
                   [(float(v),) for v in np.asarray(values, dtype=float).ravel()])


def read_csv_column(path, header: str | None = None) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty CSV file %s" % path)
    start = 0
    first = lines[0].split(",")[0].strip()
    try:
        float(first)
    except ValueError:
        if header is not None and first != header:
            raise ValueError("expected CSV header %r in %s, found %r"
                             % (header, path, first))
        start = 1
    try:
        return np.array([float(ln.split(",")[0]) for ln in lines[start:]])
    except ValueError as exc:
        raise ValueError("malformed CSV %s: %s" % (path, exc))


def write_signal_csv(path, y: Signal) -> None:
    if y.shape.ndim != 1:
        raise ValueError("CSV holds 1D signals; use PGM for images")
    write_csv_column(path, y.values, "value")


def read_signal_csv(path) -> Signal:
    vals = read_csv_column(path, header="value")
    if vals.size == 0:
        raise ValueError("no values in %s" % path)
    return Signal(LatticeShape((vals.size,)), vals)


def _read_pgm_tokens(data: bytes, count: int, pos: int):
    """Pull whitespace/comment-separated ASCII tokens out of a PGM header."""
    tokens = []
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos:pos + 1].isspace():
            pos += 1
        if pos < n and data[pos:pos + 1] == b"#":
            while pos < n and data[pos] not in (10, 13):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        tokens.append(data[start:pos])
    return tokens, pos


def read_pgm(path):
    """Read a P2 or P5 PGM image.

    Returns (Signal, maxval, binary). The signal is the real-valued
    intensity grid, row-major, shape (height, width); binary says whether
    the source was P5.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise ValueError("%s is not a P2/P5 PGM file" % path)
    magic = data[:2].decode()
    tokens, pos = _read_pgm_tokens(data, 3, 2)
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ValueError("bad PGM dimensions in %s" % path)
    if magic == "P5":
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = width * height * dtype.itemsize
        raw = data[pos:pos + need]
        if len(raw) != need:
            raise ValueError("truncated PGM raster in %s" % path)
        pix = np.frombuffer(raw, dtype=dtype).astype(float)
    else:
        text = data[pos:].split()
        if len(text) < width * height:
            raise ValueError("truncated PGM raster in %s" % path)
        pix = np.array([int(t) for t in text[:width * height]], dtype=float)
    if pix.min() < 0 or pix.max() > maxval:
        raise ValueError("PGM sample outside 0..%d in %s" % (maxval, path))
    return Signal(LatticeShape((height, width)), pix), maxval, magic == "P5"


def write_pgm(path, y: Signal, maxval: int = 255, binary: bool = True) -> None:
    """Write an image as PGM, clipping and rounding intensities on output."""
    if y.shape.ndim != 2:
        raise ValueError("PGM output needs a 2D signal")
    if not 0 < maxval < 65536:
        raise ValueError("maxval must be in 1..65535")
    height, width = y.shape.sizes
    pix = np.rint(np.clip(y.values, 0, maxval)).astype(np.uint16)
    header = "%s\n%d %d\n%d\n" % ("P5" if binary else "P2", width, height, maxval)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
            fh.write(pix.astype(dtype).tobytes())
        else:
            rows = pix.reshape(height, width)
            body = "\n".join(" ".join(str(v) for v in row) for row in rows)
            fh.write((body + "\n").encode("ascii"))


def write_csv_rows(path, header, rows) -> None:
    """Write a small rectangular CSV; a real, numpy's included, is
    rendered as the repr of its float value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            parts = []
            for v in row:
                if isinstance(v, (float, np.floating)):
                    parts.append(repr(float(v)))
                else:
                    parts.append(str(v))
            fh.write(",".join(parts) + "\n")


def write_json_report(path, payload: dict) -> None:
    out = dict(payload)
    out["schema_version"] = SCHEMA_VERSION
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_report(path, fields=(), name=None) -> dict:
    """The JSON object in path. A file holding anything else, or an object
    missing one of fields, is refused with a ValueError that calls the file
    name (its path by default) and names the first missing field."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    name = name or path
    if not isinstance(obj, dict):
        raise ValueError("%s does not hold a JSON object" % name)
    for field in fields:
        if field not in obj:
            raise ValueError("%s is missing field %r" % (name, field))
    return obj
