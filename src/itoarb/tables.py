"""Output files, each written whole or not at all.

The one table format is a header line, then comma-separated ``%.12g`` cells,
LF-ended, and one formatter writes every row of it (``_write_blocks``).  A file
is written as ``path.partial`` and renamed to ``path`` only when complete
(:func:`replacing`).  A long table reads its blocks by key
index, ``block(i)``; where :func:`forked` runs children, one of ``2 *
MIN_PART_CELLS`` cells or more is formatted in consecutive runs of keys, one
per usable CPU, each past the first in a child, and each run reads only its
own blocks.
"""

import os
import pickle
import shutil
import tempfile
from contextlib import ExitStack, contextmanager

import numpy as np

MIN_PART_CELLS = 2**16  # (key, axis) cells of the smallest part write_long_csv forks


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


def usable_cpus() -> int:
    """The CPUs this process may run on: the one rule for threads and forks."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forks() -> bool:
    """Whether :func:`forked` runs a child: with two usable CPUs or more and ``os.fork``."""
    return usable_cpus() > 1 and hasattr(os, "fork")


@contextmanager
def forked(fn, *args):
    """Run ``fn(*args)`` in a forked child while the block runs, and yield
    ``result``: ``result()`` waits for the child and returns its value or
    raises its exception, with its own type (a child that ends without a
    result, or with one pickle cannot send, raises ``RuntimeError``).  If the
    block ends without waiting, or raises, the child is killed; it is always
    reaped before the block ends.  With fewer than two usable CPUs, or no
    ``os.fork``, ``result()`` runs ``fn`` inline.

    The child runs ``fn`` on its copy of the caller's memory, sends the
    outcome pickled through a pipe and ends with ``os._exit``, so it never
    returns into the caller.  Python 3.12 and later warn
    (``DeprecationWarning``) on a fork from a process with threads, such as
    OpenBLAS's; the children here call no threaded BLAS (the march's
    tridiagonal LAPACK routines are serial).
    """
    if not _forks():
        yield lambda: fn(*args)
        return
    import signal  # here, not at the top: unlike the modules above, numpy does not load it

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child
        try:
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:
                outcome = (False, exc)
            with os.fdopen(w, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(w)
    live = True

    def result():
        nonlocal live
        with os.fdopen(r, "rb", closefd=False) as pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
        live = False
        if not data:
            raise RuntimeError(f"the forked {fn.__name__} ended without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        os.close(r)
        if live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def write_csv(path, header, blocks) -> None:
    """Write the ``header`` names, then the rows of each 2-D array in ``blocks``."""
    with replacing(path) as fh:
        fh.write(",".join(header).encode() + b"\n")
        for block in blocks:
            # a row is its first cell joined before the template of the rest
            rows = [b"", b",%.12g" * (block.shape[1] - 1) + b"\n"]
            _write_blocks(fh, rows, block[:, 0].tolist(), block[:, 1:])


def _write_blocks(fh, rows, keys, blocks) -> None:
    """Write one block per key to ``fh`` and flush it: the templates ``rows``
    joined by the key's cell, filled with the block's cells.  The one ``%.12g``
    row formatter."""
    for key, block in zip(keys, blocks):
        fh.write((b"%.12g" % key).join(rows) % tuple(np.ravel(block).tolist()))
    fh.flush()


def write_long_csv(path, header, keys, axis, block) -> None:
    """:func:`write_csv` of the rows ``(keys[i], axis[j], *block(i)[j])``, ``block(i)``
    returning key ``i``'s ``(len(axis), len(header) - 2)`` block (1-D for one column),
    with each axis cell formatted once per table and each key once per block.

    Where :func:`forked` runs children, a table of ``2 * MIN_PART_CELLS``
    (key, axis) cells or more is cut into consecutive runs of keys, one per
    usable CPU, and each run calls ``block`` for its own keys only.  The first
    run is written into ``path.partial``; each other is formatted by a child
    into an unnamed temporary file beside ``path`` and then appended in order.
    Otherwise the table is one run, written into ``path.partial``.
    """
    tail = b",%.12g" * (len(header) - 2) + b"\n"
    # a block's template is its key cell joined before each row; no formatted
    # number contains a "%"
    rows = [b""] + [b",%.12g" % x + tail for x in np.asarray(axis, dtype=float).tolist()]
    keys = np.asarray(keys, dtype=float).tolist()
    n = max(1, min(usable_cpus() if _forks() else 1,
                   len(keys) * (len(rows) - 1) // MIN_PART_CELLS))
    cut = [len(keys) * p // n for p in range(n + 1)]
    with replacing(path) as fh, ExitStack() as stack:
        fh.write(",".join(header).encode() + b"\n")
        parts = []
        for a, b in zip(cut[1:], cut[2:]):
            spill = stack.enter_context(tempfile.TemporaryFile(dir=os.path.dirname(path) or "."))
            parts.append((spill, stack.enter_context(
                forked(_write_blocks, spill, rows, keys[a:b], map(block, range(a, b))))))
        _write_blocks(fh, rows, keys[:cut[1]], map(block, range(cut[1])))
        for spill, result in parts:
            result()
            spill.seek(0)
            shutil.copyfileobj(spill, fh)
