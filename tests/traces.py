"""Build an `ingest.Trace` from literal request rows."""

import numpy as np

from tracemix.ingest import Trace


def trace_of(rows, block_size=4096):
    """The Trace of (timestamp, op, offset, size) rows, stably sorted by
    time; op is "read" or "write"."""
    rows = sorted(rows, key=lambda row: row[0])
    ts, ops, offsets, sizes = zip(*rows) if rows else ((), (), (), ())
    return Trace(np.array(ts, dtype=np.float64),
                 np.array([op == "read" for op in ops], dtype=bool),
                 np.array(offsets, dtype=np.int64),
                 np.array(sizes, dtype=np.int64), block_size)
