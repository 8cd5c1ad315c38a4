"""Block I/O trace parsing and aggregation into per-slice count vectors.

A trace is a timestamped list of read/write requests against a byte address
space.  `parse_trace` reads it into a columnar `Trace`: one array per field
(timestamp, is_read, offset, size) plus the cache block size, in time order.
For modeling we chop time into fixed-length slices and the address range
into M equal bins, turning the trace into a sequence of M-dimensional count
vectors plus, per slice, the raw set of block ids touched (used later to
preload the cache).  Every consumer works on the columns; a list of
`TraceEvent` records is converted once with `Trace.from_events`.
"""

import csv
import io
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import TraceParseError

DEFAULT_BLOCK_SIZE = 4096

# Windows FILETIME tick length, used by the MSR enterprise traces.
_FILETIME_TICKS_PER_SEC = 1e7

ARTIFACT_VERSION = 1

_I8_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class TraceEvent:
    """One I/O request. block_ids lists every fixed-size block covered by
    [offset, offset + size)."""

    timestamp: float
    op: str
    offset: int
    size: int
    block_ids: tuple

    def __post_init__(self):
        if self.size <= 0:
            raise TraceParseError(f"event size must be positive, got {self.size}")
        if self.timestamp < 0:
            raise TraceParseError("event timestamp must be non-negative")
        if self.op not in ("read", "write"):
            raise TraceParseError(f"unknown op {self.op!r}")
        if len(self.block_ids) == 0:
            raise TraceParseError("event covers no blocks")


def blocks_covered(offset, size, block_size=DEFAULT_BLOCK_SIZE) -> tuple:
    """Contiguous block ids covered by [offset, offset+size)."""
    first = offset // block_size
    last = (offset + size - 1) // block_size
    return tuple(range(first, last + 1))


@dataclass(frozen=True, eq=False)
class Trace:
    """Requests as columns, in time order: timestamp (float64 seconds since
    the first request), is_read (bool), offset and size (int64 bytes, size
    positive), and the cache block size that maps a request to the blocks it
    covers.  Rows read back as `TraceEvent` through len(), indexing and
    iteration."""

    timestamp: np.ndarray
    is_read: np.ndarray
    offset: np.ndarray
    size: np.ndarray
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")

    def __len__(self):
        return len(self.timestamp)

    def __getitem__(self, i) -> TraceEvent:
        offset, size = int(self.offset[i]), int(self.size[i])
        return TraceEvent(float(self.timestamp[i]),
                          "read" if self.is_read[i] else "write", offset, size,
                          blocks_covered(offset, size, self.block_size))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @classmethod
    def from_events(cls, events, block_size=None):
        """Columns of a list of events, stably sorted by time.  Each event's
        block ids must be the blocks its byte range covers at block_size.
        With block_size None, any block size under which they are will do
        (DEFAULT_BLOCK_SIZE when it is one): all such sizes give the events
        the same block ids."""
        events = list(events)
        n = len(events)
        columns = (np.fromiter((e.timestamp for e in events), np.float64, n),
                   np.fromiter((e.op == "read" for e in events), bool, n),
                   np.fromiter((e.offset for e in events), np.int64, n),
                   np.fromiter((e.size for e in events), np.int64, n))
        first = np.fromiter((e.block_ids[0] for e in events), np.int64, n)
        count = np.fromiter((len(e.block_ids) for e in events), np.int64, n)
        if block_size is None:
            candidates = (DEFAULT_BLOCK_SIZE,
                          _least_block_size(columns[2], columns[3], first, count))
        else:
            candidates = (block_size,)
        for size in candidates:
            trace = cls(*columns, size)
            if (np.array_equal(first, trace.first_block())
                    and np.array_equal(count, trace.blocks_per_row())):
                return trace.select(np.argsort(trace.timestamp, kind="stable"))
        raise ValueError("event block ids disagree with " + (
            "every block size" if block_size is None else f"block size {block_size}"))

    def select(self, rows) -> "Trace":
        """The rows picked by a boolean mask or an index array."""
        return Trace(self.timestamp[rows], self.is_read[rows],
                     self.offset[rows], self.size[rows], self.block_size)

    def since(self, start) -> "Trace":
        """Rows at or after time start, with start as the new time zero."""
        rest = self.select(self.timestamp >= start)
        return replace(rest, timestamp=rest.timestamp - start)

    def reads(self) -> "Trace":
        """The read rows."""
        return self.select(self.is_read)

    def slots(self, nu) -> np.ndarray:
        """Slice index of every row for slices of nu seconds."""
        return (self.timestamp // nu).astype(np.int64)

    def slice_count(self, nu) -> int:
        """Slices of nu seconds up to the one holding the last row."""
        return int(self.timestamp[-1] // nu) + 1 if len(self) else 0

    def first_block(self) -> np.ndarray:
        return self.offset // self.block_size

    def blocks_per_row(self) -> np.ndarray:
        return (self.offset + (self.size - 1)) // self.block_size - self.first_block() + 1

    def block_ids(self):
        """(ids, counts): the block ids every row covers, row after row, and
        how many belong to each row."""
        counts = self.blocks_per_row()
        starts = np.cumsum(counts) - counts
        ids = np.arange(int(counts.sum()), dtype=np.int64)
        ids += np.repeat(self.first_block() - starts, counts)
        return ids, counts

    def blocks_by_slice(self, nu, T):
        """(ids, bounds): the ids of block_ids(), and T + 1 positions in them
        such that slice t's ids are ids[bounds[t]:bounds[t + 1]].  Rows are
        in time order, so each slice's ids form one run."""
        ids, counts = self.block_ids()
        bounds = np.searchsorted(np.repeat(self.slots(nu), counts), np.arange(T + 1))
        return ids, bounds.tolist()


def _least_block_size(offset, size, first, count) -> int:
    """The least block size b with offset // b == first and
    (offset + size - 1) // b == first + count - 1 on every row, when some
    block size fits every row."""
    least = 1
    for pos, block in ((offset, first), (offset + (size - 1), first + (count - 1))):
        # pos // b == block  <=>  pos // (block + 1) < b <= pos // block
        least = max(least, int((pos // np.maximum(block + 1, 1)).max(initial=0)) + 1)
    return least


def as_trace(events, block_size=None) -> Trace:
    """events as a Trace: a Trace is returned as it is, a sequence of
    TraceEvent is converted by Trace.from_events with block_size."""
    if isinstance(events, Trace):
        return events
    return Trace.from_events(events, block_size)


@dataclass(frozen=True)
class BinningConfig:
    """How to aggregate: M equal address bins over [lba_lo, lba_hi), slices of
    nu seconds, cache blocks of block_size bytes.

    count_per_block=True switches the histogram to one increment per covered
    block instead of one per request.
    """

    M: int
    lba_lo: int
    lba_hi: int
    nu: float
    block_size: int = DEFAULT_BLOCK_SIZE
    count_per_block: bool = False

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.lba_hi <= self.lba_lo:
            raise ValueError("lba_hi must exceed lba_lo")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")

    def bin_of(self, offset) -> int:
        """Bin index of a byte offset; out-of-range offsets clamp to the edges."""
        j = (int(offset) - self.lba_lo) * self.M // (self.lba_hi - self.lba_lo)
        return min(max(j, 0), self.M - 1)

    def bins_of(self, offsets) -> np.ndarray:
        """bin_of over an int64 array, without overflow: bin j starts at the
        least offset o with (o - lba_lo) * M >= j * width."""
        width = self.lba_hi - self.lba_lo
        starts = [self.lba_lo - (-j * width // self.M) for j in range(1, self.M)]
        return np.searchsorted(np.asarray(starts, dtype=np.int64), offsets,
                               side="right")

    def slice_counts(self, trace, T) -> np.ndarray:
        """T x M histogram of the rows of trace, whose slices lie below T."""
        slot = trace.slots(self.nu)
        if self.count_per_block:
            ids, counts = trace.block_ids()
            slot, bins = np.repeat(slot, counts), self.bins_of(ids * self.block_size)
        else:
            bins = self.bins_of(trace.offset)
        return np.bincount(slot * self.M + bins,
                           minlength=T * self.M).reshape(T, self.M)


@dataclass
class CountVectorSequence:
    """T count vectors over M bins plus the per-slice raw block-access sets."""

    X: np.ndarray
    A: list
    config: BinningConfig

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.int64)
        if self.X.ndim != 2:
            raise ValueError("X must be a T x M array")
        if len(self.A) != self.X.shape[0]:
            raise ValueError("X and A must have the same length")
        if np.any(self.X < 0):
            raise ValueError("counts must be non-negative")

    def __len__(self):
        return self.X.shape[0]


# ---------------------------------------------------------------------------
# Parsing

# format_id -> (column indices for timestamp/op/offset/size, seconds per
# timestamp unit)
_FORMATS = {
    # MSR Cambridge style: Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
    "msr": {"cols": (0, 3, 4, 5), "tick": 1.0 / _FILETIME_TICKS_PER_SEC},
    # plain: timestamp_secs,op,offset,size
    "plain": {"cols": (0, 1, 2, 3), "tick": 1.0},
}

_READ_OPS = {"read", "r"}
_WRITE_OPS = {"write", "w"}

# Op fields are read at a fixed width; a field that fills it may have been cut.
_OP_WIDTH = 8


def _fast_dtype(timestamp_type):
    return np.dtype([("timestamp", timestamp_type), ("op", f"U{_OP_WIDTH}"),
                     ("offset", "i8"), ("size", "i8")])


def parse_trace(byte_stream, format_id="msr", block_size=DEFAULT_BLOCK_SIZE) -> Trace:
    """Parse a CSV trace into a time-sorted Trace.

    byte_stream may be a path or an open text/binary file.  Timestamps are
    rebased to seconds since the first event; equal timestamps keep file
    order.  Write events are retained and flagged; downstream read-cache
    paths filter them out.  A malformed row raises TraceParseError naming
    its line.
    """
    if format_id not in _FORMATS:
        raise TraceParseError(f"unknown trace format {format_id!r}")
    fmt = _FORMATS[format_id]
    text = _read_text(byte_stream)
    # one vectorised pass, straight from the file when there is one; the
    # row-by-row reader runs only on input that pass rejects, to name the bad
    # line or to read what loadtxt cannot (quoting and NULs need csv)
    path = byte_stream if isinstance(byte_stream, (str, Path)) else None
    fast = '"' not in text and "\0" not in text and _parse_columns(text, path, fmt["cols"])
    ts, is_read, offset, size = fast or _parse_rows(text, fmt["cols"])
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    return Trace((ts - ts[0]) * fmt["tick"], is_read[order], offset[order],
                 size[order], block_size)


def _read_text(byte_stream) -> str:
    if isinstance(byte_stream, (str, Path)):
        with open(byte_stream, "r", newline="") as fh:
            return fh.read()
    if isinstance(byte_stream, (bytes, bytearray)):
        return byte_stream.decode()
    raw = byte_stream.read()
    return raw.decode() if isinstance(raw, bytes) else raw


def _parse_columns(text, path, cols):
    """(timestamp, is_read, offset, size) in file order from one np.loadtxt
    pass over path (or text), or None when some row needs the row reader: a
    cell loadtxt cannot convert, an unknown or possibly cut op, a bad value,
    or no rows."""
    # integer timestamps (FILETIME ticks) parse several times faster as
    # integers, and convert to the same doubles
    for timestamp_type in ("i8", "f8"):
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                # numpy 1.23-1.26 parse a float cell into an integer field by
                # truncating it, with only this warning
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(path or io.StringIO(text),
                                  dtype=_fast_dtype(timestamp_type),
                                  delimiter=",", comments=None, usecols=cols,
                                  ndmin=1)
            break
        except (ValueError, DeprecationWarning):
            continue
    else:
        return None
    if not len(rows):
        return None
    ts, op, offset, size = (rows[name] for name in rows.dtype.names)
    ts = ts.astype(np.float64)
    is_read = _read_flags(op)
    if (is_read is None or not np.isfinite(ts).all() or (size <= 0).any()
            or (offset < 0).any() or (offset > _I8_MAX - size).any()):
        return None
    return ts, is_read, offset, size


def _read_flags(op):
    """is_read per op cell, or None when a cell names no known op or fills
    the fixed width.  Each distinct spelling is looked up once."""
    is_read = np.zeros(len(op), dtype=bool)
    pending = np.ones(len(op), dtype=bool)
    while pending.any():
        spelling = op[pending.argmax()]
        word = spelling.strip().lower()
        if len(spelling) >= _OP_WIDTH or word not in _READ_OPS | _WRITE_OPS:
            return None
        same = op == spelling
        if word in _READ_OPS:
            is_read |= same
        pending &= ~same
    return is_read


def _parse_rows(text, cols):
    """(timestamp, is_read, offset, size) in file order, one csv row at a
    time; raises TraceParseError naming the first bad line."""
    t_col, op_col, off_col, sz_col = cols
    ncols = max(cols) + 1
    rows = []
    lineno = 0
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < ncols:
                raise TraceParseError(f"line {lineno}: expected >= {ncols} columns, got {len(row)}")
            try:
                ts = float(row[t_col])
                op_raw = row[op_col].strip().lower()
                offset = int(row[off_col])
                size = int(row[sz_col])
            except ValueError as exc:
                raise TraceParseError(f"line {lineno}: {exc}") from None
            if op_raw not in _READ_OPS and op_raw not in _WRITE_OPS:
                raise TraceParseError(f"line {lineno}: unknown op {row[op_col]!r}")
            if size <= 0:
                raise TraceParseError(f"line {lineno}: size must be positive, got {size}")
            if offset < 0:
                raise TraceParseError(f"line {lineno}: negative offset {offset}")
            if not math.isfinite(ts):
                raise TraceParseError(f"line {lineno}: timestamp must be finite, got {row[t_col]!r}")
            if offset + size > _I8_MAX:
                raise TraceParseError(f"line {lineno}: request end {offset + size} exceeds 2**63 - 1")
            rows.append((ts, op_raw in _READ_OPS, offset, size))
    except csv.Error as exc:
        raise TraceParseError(f"line {lineno + 1}: {exc}") from None
    if not rows:
        raise TraceParseError("empty trace")
    ts, is_read, offset, size = zip(*rows)
    return (np.array(ts, dtype=np.float64), np.array(is_read, dtype=bool),
            np.array(offset, dtype=np.int64), np.array(size, dtype=np.int64))


# ---------------------------------------------------------------------------
# Aggregation

def infer_lba_range(events, nu=None, fraction=None, include_writes=False):
    """(lo, hi) covering the offsets seen in the learning portion of a trace.

    With nu and fraction given, only events in the first ceil(fraction * T)
    slices are considered; later offsets outside the range clamp to edge bins.
    """
    pool = as_trace(events)
    if not include_writes:
        pool = pool.reads()
    if not len(pool):
        raise TraceParseError("no events to infer an address range from")
    offsets = pool.offset
    if nu is not None and fraction is not None:
        cutoff = math.ceil(fraction * pool.slice_count(nu)) * nu
        learn = pool.timestamp < cutoff
        if learn.any():
            offsets = offsets[learn]
    return int(offsets.min()), int(offsets.max()) + 1


def binning_from_events(events, M, nu, block_size=DEFAULT_BLOCK_SIZE,
                        fraction=None, count_per_block=False) -> BinningConfig:
    """Build a BinningConfig with the address range taken from the learning
    portion (or the whole trace when fraction is None)."""
    lo, hi = infer_lba_range(events, nu=nu, fraction=fraction)
    return BinningConfig(M=M, lba_lo=lo, lba_hi=hi, nu=nu,
                         block_size=block_size, count_per_block=count_per_block)


def aggregate(events, config: BinningConfig, include_writes=False) -> CountVectorSequence:
    """Histogram events into per-slice count vectors and block-access sets.

    Requests are binned once each by their starting offset (or once per
    covered block with count_per_block); the access sets record every block
    covered.  Writes are excluded unless include_writes is set.
    """
    kept = as_trace(events, config.block_size)
    if not include_writes:
        kept = kept.reads()
    T = kept.slice_count(config.nu)
    ids, bounds = kept.blocks_by_slice(config.nu, T)
    flat = ids.tolist()
    A = [set(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
    return CountVectorSequence(config.slice_counts(kept, T), A, config)


def learn_cut(T, fraction) -> int:
    """Slices in the learning part of T slices: the first ceil(fraction * T),
    clamped so neither part is empty."""
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie strictly between 0 and 1")
    if T < 2:
        raise ValueError("need at least 2 slices to split")
    return min(max(math.ceil(fraction * T), 1), T - 1)


def split_learn_operate(seq: CountVectorSequence, fraction):
    """Split the slice sequence into learning and operating parts, in temporal
    order, at learn_cut(T, fraction)."""
    cut = learn_cut(len(seq), fraction)
    learn = CountVectorSequence(seq.X[:cut].copy(), [set(a) for a in seq.A[:cut]], seq.config)
    operate = CountVectorSequence(seq.X[cut:].copy(), [set(a) for a in seq.A[cut:]], seq.config)
    return learn, operate


# ---------------------------------------------------------------------------
# Artifact round-trip

def save_artifact(seq: CountVectorSequence, path):
    """Write a count-vector sequence to a .npz artifact."""
    flat = []
    offsets = [0]
    for acc in seq.A:
        flat.extend(sorted(acc))
        offsets.append(len(flat))
    cfg = seq.config
    np.savez(
        path,
        version=np.int64(ARTIFACT_VERSION),
        X=seq.X,
        A_flat=np.asarray(flat, dtype=np.int64),
        A_offsets=np.asarray(offsets, dtype=np.int64),
        binning=np.asarray([cfg.M, cfg.lba_lo, cfg.lba_hi, cfg.block_size,
                            int(cfg.count_per_block)], dtype=np.int64),
        nu=np.float64(cfg.nu),
    )


def load_artifact(path) -> CountVectorSequence:
    with np.load(path) as z:
        if int(z["version"]) != ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {int(z['version'])}")
        m, lo, hi, bs, per_block = (int(v) for v in z["binning"])
        cfg = BinningConfig(M=m, lba_lo=lo, lba_hi=hi, nu=float(z["nu"]),
                            block_size=bs, count_per_block=bool(per_block))
        flat = z["A_flat"]
        offsets = z["A_offsets"].tolist()
        A = [set(flat[a:b].tolist()) for a, b in zip(offsets, offsets[1:])]
        return CountVectorSequence(z["X"], A, cfg)
