"""The one table format: a header line, then comma-separated ``%.12g`` cells, LF-ended."""

import numpy as np


def write_csv(path, header, blocks) -> None:
    """Write the ``header`` names, then the rows of each 2-D array in ``blocks``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            row = ",".join(["%.12g"] * block.shape[1]) + "\n"
            fh.write("".join([row % tuple(r) for r in block.tolist()]))


def write_long_csv(path, header, keys, axis, values) -> None:
    """:func:`write_csv` of the rows ``(keys[i], axis[j], *values[i][j])``, ``values``
    yielding one ``(len(axis), len(header) - 2)`` block per key (1-D for one column),
    with each axis cell formatted once per table and each key once per block."""
    # "\x00" marks the key cell; no formatted number contains it (or a "%")
    tail = ",%.12g" * (len(header) - 2) + "\n"
    template = "".join(["\x00,%.12g" % x + tail for x in np.asarray(axis, dtype=float).tolist()])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for key, block in zip(np.asarray(keys, dtype=float).tolist(), values):
            fh.write(template.replace("\x00", "%.12g" % key) % tuple(np.ravel(block).tolist()))

