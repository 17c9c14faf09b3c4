"""Binary array files: one ASCII header line, then little-endian float64 data.

Header is ``f64le <dim0> [<dim1> ...]`` followed by a newline; the payload is
the raw row-major buffer. The format is deliberately minimal so vectors and
matrices written on any platform read back bit-identically. ``read_array``
reads into ``aligned_empty`` storage, so its result starts on a 64-byte
boundary (a cache line), where dense products over it run fastest.
"""

import math
import os

import numpy as np

from .errors import IoError

_MAGIC = b"f64le"
ALIGN = 64  # bytes: a cache line


def aligned_empty(shape):
    """A new uninitialized C-contiguous float64 array of shape (a tuple), data ALIGN-aligned.

    It is a view of a uint8 buffer ALIGN bytes longer than the data, so it owns no data.
    """
    nbytes = 8 * math.prod(shape)
    buf = np.empty(nbytes + ALIGN, dtype=np.uint8)
    # offset, then cut: an empty buf[i:i] would keep buf's own address
    return buf[-buf.ctypes.data % ALIGN:][:nbytes].view(np.float64).reshape(shape)


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
    """The array stored at path, read straight into a new writable aligned_empty array.

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
            data = aligned_empty(shape).view("<f8")
            got = fh.readinto(data)
    except OSError as exc:
        raise IoError(f"cannot read array file {path}: {exc}") from exc
    if got != nbytes:
        raise IoError(f"{path}: expected {nbytes} payload bytes for shape {shape}, got {got}")
    return data.astype(np.float64, copy=False)
