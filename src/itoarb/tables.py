"""The one table format: a header line, then comma-separated ``%.12g`` cells, LF-ended."""

import numpy as np


def write_csv(path, header, blocks) -> None:
    """Write the ``header`` names, then the rows of each 2-D array in ``blocks``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            row = ",".join(["%.12g"] * block.shape[1]) + "\n"
            fh.write("".join([row % tuple(r) for r in block.tolist()]))


def read_csv(path) -> np.ndarray:
    """The rows of a :func:`write_csv` table as a 2-D array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
