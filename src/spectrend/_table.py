"""The plain-text table format of every spectrend output file."""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

_FORMATS = {"i": "%d", "f": "%.17e", "U": "%s"}
_ROWS = 64    # table rows per ``np.savetxt`` call


def _real_columns(arr: np.ndarray) -> np.ndarray:
    """``arr`` as (len(arr), k) columns, a complex entry as its real and
    imaginary parts side by side; a real 2-D array comes back as it is."""
    if np.iscomplexobj(arr):
        arr = np.stack([arr.real, arr.imag], axis=-1)
    return arr.reshape(len(arr), math.prod(arr.shape[1:]))


def write_table(dest, header, columns, fmt=None) -> None:
    """Write equal-length columns, space separated, under ``# `` header lines.

    ``dest`` is a path or an open text file; ``header`` lists the comment
    lines.  A column is a length-n sequence or an (n, k) array, and a complex
    one is written as real and imaginary parts side by side.  ``fmt`` gives
    one format per written column; by default integers are ``%d``, strings
    ``%s`` and floats ``%.17e``, which reads back exactly.

    The header is written once, then ``np.savetxt`` gets one block of
    ``_ROWS`` rows at a time, so only one block of the table is ever stacked
    (and split into real and imaginary parts); the bytes are those of one
    ``np.savetxt`` call on the whole stacked table.
    """
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError(f"table columns differ in length: {[len(col) for col in columns]}")
    heads = [_real_columns(col[:0]) for col in columns]    # each column's dtype and width
    if fmt is None:
        fmt = [_FORMATS[head.dtype.kind] for head in heads for _ in range(head.shape[1])]
    mixed = len({head.dtype for head in heads}) > 1
    with open(dest, "w") if isinstance(dest, (str, os.PathLike)) \
            else contextlib.nullcontext(dest) as f:
        for start in range(0, max(n, 1), _ROWS):    # one call, for the header, at n = 0
            blocks = [_real_columns(col[start:start + _ROWS]) for col in columns]
            if mixed:
                blocks = [b.astype(object) for b in blocks]
            np.savetxt(f, np.hstack(blocks), fmt=fmt, comments="# ",
                       header="\n".join(header) if start == 0 else "")
