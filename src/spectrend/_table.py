"""The plain-text table format of every spectrend output file."""

from __future__ import annotations

import contextlib
import os

import numpy as np

_FORMATS = {"i": "%d", "f": "%.17e", "U": "%s"}


def write_table(dest, header, columns, fmt=None) -> None:
    """Write equal-length columns, space separated, under ``# `` header lines.

    ``dest`` is a path or an open text file; ``header`` lists the comment
    lines.  A column is a length-n sequence or an (n, k) array, and a complex
    one is written as real and imaginary parts side by side.  ``fmt`` gives
    one format per written column; by default integers are ``%d``, strings
    ``%s`` and floats ``%.17e``, which reads back exactly.
    """
    blocks = []
    for col in columns:
        arr = np.asarray(col)
        if np.iscomplexobj(arr):
            arr = np.stack([arr.real, arr.imag], axis=-1)
        blocks.append(arr.reshape(len(arr), -1))
    if fmt is None:
        fmt = [_FORMATS[b.dtype.kind] for b in blocks for _ in range(b.shape[1])]
    if len({b.dtype for b in blocks}) > 1:
        blocks = [b.astype(object) for b in blocks]
    with open(dest, "w") if isinstance(dest, (str, os.PathLike)) \
            else contextlib.nullcontext(dest) as f:
        np.savetxt(f, np.hstack(blocks), fmt=fmt, header="\n".join(header), comments="# ")
