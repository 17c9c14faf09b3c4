"""Binary array files: one ASCII header line, then little-endian float64 data.

Header is ``f64le <dim0> [<dim1> ...]`` followed by a newline; the payload is
the raw row-major buffer. The format is deliberately minimal so vectors and
matrices written on any platform read back bit-identically.
"""

import math
import os

import numpy as np

from .errors import IoError

_MAGIC = b"f64le"


def write_array(path, arr):
    a = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
    header = _MAGIC + b" " + " ".join(str(d) for d in a.shape).encode("ascii") + b"\n"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(a.data)  # the array's own buffer, not a bytes copy of it


def _header_shape(path, header):
    parts = header.split()
    if not parts or parts[0] != _MAGIC:
        raise IoError(f"{path}: bad array header {header!r}")
    try:
        shape = tuple(int(p) for p in parts[1:])
    except ValueError as exc:
        raise IoError(f"{path}: bad dimensions in header {header!r}") from exc
    if not shape or min(shape) < 0:
        raise IoError(f"{path}: bad dimensions in header {header!r}")
    return shape


def read_array(path):
    """The array stored at path, read straight into a new writable array.

    The payload size is checked against the header before anything is
    allocated, so a header naming a huge shape raises IoError.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            shape = _header_shape(path, header)
            nbytes = 8 * math.prod(shape)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != nbytes:
                raise IoError(
                    f"{path}: expected {nbytes} payload bytes for shape {shape}, got {size}"
                )
            data = np.empty(shape, dtype="<f8")
            got = fh.readinto(data)
    except OSError as exc:
        raise IoError(f"cannot read array file {path}: {exc}") from exc
    if got != nbytes:
        raise IoError(f"{path}: expected {nbytes} payload bytes for shape {shape}, got {got}")
    return data.astype(np.float64, copy=False)
