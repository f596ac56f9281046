"""Output files, each written whole or not at all.

The one table format is a header line, then comma-separated ``%.12g`` cells,
LF-ended.  A file is written as ``path.partial`` and renamed to ``path`` only
when complete (:func:`replacing`).
"""

import os
from contextlib import contextmanager

import numpy as np


@contextmanager
def replacing(path):
    """A binary file open for writing at ``path.partial``, renamed to ``path``
    when the block ends and removed when it raises, so no failure leaves a
    part-written ``path``."""
    partial = f"{path}.partial"
    fh = open(partial, "wb")
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def pwrite_all(fd: int, data, offset: int) -> None:
    """Write all of ``data`` at ``offset``; a short write goes on where it stopped."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def write_csv(path, header, blocks) -> None:
    """Write the ``header`` names, then the rows of each 2-D array in ``blocks``."""
    with replacing(path) as fh:
        fh.write(",".join(header).encode() + b"\n")
        for block in blocks:
            row = b",".join([b"%.12g"] * block.shape[1]) + b"\n"
            fh.write(b"".join([row % tuple(r) for r in block.tolist()]))


def write_long_csv(path, header, keys, axis, values) -> None:
    """:func:`write_csv` of the rows ``(keys[i], axis[j], *values[i][j])``, ``values``
    yielding one ``(len(axis), len(header) - 2)`` block per key (1-D for one column),
    with each axis cell formatted once per table and each key once per block."""
    tail = b",%.12g" * (len(header) - 2) + b"\n"
    # a block's template is its key cell joined before each row; no formatted
    # number contains a "%"
    rows = [b""] + [b",%.12g" % x + tail for x in np.asarray(axis, dtype=float).tolist()]
    with replacing(path) as fh:
        fh.write(",".join(header).encode() + b"\n")
        for key, block in zip(np.asarray(keys, dtype=float).tolist(), values):
            fh.write((b"%.12g" % key).join(rows) % tuple(np.ravel(block).tolist()))
