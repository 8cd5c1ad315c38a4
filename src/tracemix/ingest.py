"""Block I/O trace parsing and aggregation into per-slice count vectors.

A trace is a timestamped list of read/write requests against a byte address
space, held as a columnar `Trace`: one array per field (timestamp, is_read,
offset, size) plus the cache block size, in time order.  `parse_trace` reads
one from a CSV file and `synth.gen_block_trace` generates one.  For modeling
we chop time into fixed-length slices and the address range into M equal
bins, turning the trace's reads into a sequence of M-dimensional count
vectors plus, per slice, the distinct block ids touched as a sorted int64
array (used later to preload the cache).

Memory: a parsed Trace keeps its columns at 25 bytes per row (float64
timestamp, bool op flag, int64 offset and size).  Everything else is bounded
by a chunk: `parse_trace` reads about CHUNK_BYTES of text at a time, and the
aggregation steps expand block ids for about GROUP_ROWS rows at a time, cut
at slice boundaries, taking row ranges as views.  Input whose timestamps are
not in order also needs one stable sort over the whole trace.
"""

import csv
import io
import math
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, TraceParseError

DEFAULT_BLOCK_SIZE = 4096

# Text parsed per step; a parse holds about eight times this at its peak.
CHUNK_BYTES = 1 << 19

# Rows per step of the loops over a parsed trace: enough that per-call numpy
# costs vanish, few enough that the expanded block ids take a few MB.
GROUP_ROWS = 1 << 15

# Windows FILETIME tick length, used by the MSR enterprise traces.
_FILETIME_TICKS_PER_SEC = 1e7

ARTIFACT_VERSION = 1

_I8_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class TraceEvent:
    """One row of a Trace.  block_ids lists every fixed-size block covered by
    [offset, offset + size)."""

    timestamp: float
    op: str
    offset: int
    size: int
    block_ids: tuple


def blocks_covered(offset, size, block_size=DEFAULT_BLOCK_SIZE) -> tuple:
    """Contiguous block ids covered by [offset, offset+size)."""
    first = offset // block_size
    last = (offset + size - 1) // block_size
    return tuple(range(first, last + 1))


@dataclass(frozen=True, eq=False)
class Trace:
    """Requests as columns, in time order: timestamp (float64 seconds;
    `parse_trace` counts them from the first request), is_read (bool),
    offset and size (int64 bytes, size positive), and the cache block size
    that maps a request to the blocks it covers.  Iteration yields the rows
    as `TraceEvent` records."""

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

    def __iter__(self):
        for ts, is_read, offset, size in zip(
                self.timestamp.tolist(), self.is_read.tolist(),
                self.offset.tolist(), self.size.tolist()):
            yield TraceEvent(ts, "read" if is_read else "write", offset, size,
                             blocks_covered(offset, size, self.block_size))

    def select(self, rows) -> "Trace":
        """The rows picked by a boolean mask, an index array or a slice; a
        slice gives views of the columns."""
        return Trace(self.timestamp[rows], self.is_read[rows],
                     self.offset[rows], self.size[rows], self.block_size)

    def since(self, start) -> "Trace":
        """Rows at or after time start, with start as the new time zero.
        Only the timestamps are copied."""
        rest = self.select(slice(int(np.searchsorted(self.timestamp, start)), None))
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

    def read_slice_count(self, nu) -> int:
        """Slices of nu seconds up to the one holding the last read; 0
        without reads."""
        for stop in range(len(self), 0, -GROUP_ROWS):
            start = max(stop - GROUP_ROWS, 0)
            reads = np.flatnonzero(self.is_read[start:stop])
            if len(reads):
                return int(self.timestamp[start + reads[-1]] // nu) + 1
        return 0

    def row_groups(self):
        """Views of the rows, about GROUP_ROWS at a time, in order."""
        for start in range(0, len(self), GROUP_ROWS):
            yield self.select(slice(start, start + GROUP_ROWS))

    def slice_groups(self, nu, T):
        """(first, stop, rows) for consecutive runs of whole slices of nu
        seconds that cover slices 0 to T - 1: rows is a view of the rows of
        slices first to stop - 1.  A run takes slices until it holds
        GROUP_ROWS rows or reaches T, so it holds fewer than GROUP_ROWS rows
        plus those of its last slice.  Rows of slices T and later are left
        out."""
        last = self._slice_start(nu, T)
        first = start = 0
        while first < T:
            if start + GROUP_ROWS >= last:
                stop, end = T, last
            else:
                stop = int(self.timestamp[start + GROUP_ROWS - 1] // nu) + 1
                end = self._slice_start(nu, stop)
            yield first, stop, self.select(slice(start, end))
            first, start = stop, end

    def _slice_start(self, nu, t) -> int:
        """The first row of slice t or a later one."""
        ts = self.timestamp
        # ts // nu is the exact floor of ts / nu, and t * nu the double
        # nearest t nu, so every row before t * nu lies in an earlier slice;
        # so may rows just past it when t * nu rounded down.  Each step skips
        # one timestamp's rows, which share a slice.
        row = int(np.searchsorted(ts, t * nu))
        while row < len(ts) and ts[row] // nu < t:
            row = int(np.searchsorted(ts, ts[row], side="right"))
        return row

    def block_ids(self):
        """(ids, counts): the block ids every row covers, row after row, and
        how many belong to each row."""
        first = self.offset // self.block_size
        counts = (self.offset + (self.size - 1)) // self.block_size - first + 1
        starts = np.cumsum(counts) - counts
        ids = np.arange(int(counts.sum()), dtype=np.int64)
        ids += np.repeat(first - starts, counts)
        return ids, counts


def distinct(ids) -> np.ndarray:
    """The distinct values of an integer array in ascending order, as
    np.unique gives them; numpy 2's np.unique hashes, which is several times
    slower than this sort on block ids."""
    ids = np.sort(ids)
    keep = np.empty(len(ids), dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


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

    def slice_counts(self, trace, first, stop):
        """(X, ids, bounds) for the rows of trace, whose slices lie in
        [first, stop): X is their (stop - first) x M histogram, ids the ids
        of trace.block_ids(), and slice first + i's ids are
        ids[bounds[i]:bounds[i + 1]] (the rows are in time order, so each
        slice's ids form one run)."""
        slot = trace.slots(self.nu) - first
        ids, counts = trace.block_ids()
        block_slot = np.repeat(slot, counts)
        if self.count_per_block:
            cell = block_slot * self.M + self.bins_of(ids * self.block_size)
        else:
            cell = slot * self.M + self.bins_of(trace.offset)
        X = np.bincount(cell, minlength=(stop - first) * self.M).reshape(stop - first, self.M)
        bounds = np.searchsorted(block_slot, np.arange(stop - first + 1))
        return X, ids, bounds.tolist()


@dataclass
class CountVectorSequence:
    """T count vectors over M bins plus the per-slice block-access sets: A[t]
    holds the distinct block ids slice t touched, as a 1-D int64 array in
    strictly increasing order."""

    X: np.ndarray
    A: list
    config: BinningConfig

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.int64)
        if self.X.ndim != 2:
            raise ValueError("X must be a T x M array")
        if len(self.A) != self.X.shape[0]:
            raise ValueError("X and A must have the same length")
        if self.X.shape[1] != self.config.M:
            raise ValueError(f"X has {self.X.shape[1]} columns but the binning has "
                             f"M = {self.config.M}")
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


_COLUMN_DTYPES = (np.float64, bool, np.int64, np.int64)


def _fast_dtype(timestamp_type):
    return np.dtype([("timestamp", timestamp_type), ("op", f"U{_OP_WIDTH}"),
                     ("offset", "i8"), ("size", "i8")])


def parse_trace(byte_stream, format_id="msr", block_size=DEFAULT_BLOCK_SIZE) -> Trace:
    """Parse a CSV trace into a time-sorted Trace.

    byte_stream may be a path or a seekable open text/binary file; binary
    input must be UTF-8.  It is read in chunks of whole lines, about
    CHUNK_BYTES each, parsed straight into the columns.  Timestamps are
    rebased to seconds since the first event; equal timestamps keep file
    order.  Write events are retained and flagged; downstream read-cache
    paths filter them out.  A malformed row, or a line that is not UTF-8,
    raises TraceParseError naming its line.
    """
    if format_id not in _FORMATS:
        raise TraceParseError(f"unknown trace format {format_id!r}")
    cols = _FORMATS[format_id]["cols"]
    opened = (open(byte_stream, "rb") if isinstance(byte_stream, (str, Path))
              else nullcontext(byte_stream))
    with opened as fh:
        # a row takes at least one line, so the line count sizes the columns
        capacity = _count_lines(fh)
        columns = [np.empty(capacity, dtype) for dtype in _COLUMN_DTYPES]
        n, ordered, line = 0, True, 1
        for data in _chunks(fh):
            text = _decoded(data, line)
            lines = text.split("\n")
            # one vectorised pass per chunk; the row reader runs only on a
            # chunk that pass rejects, to name the bad line or to read what
            # loadtxt cannot (quoting and NULs need csv)
            fast = '"' not in text and "\0" not in text and _parse_columns(lines, cols)
            parts = fast or _parse_rows(text, cols, line)
            line += len(lines) - 1
            ts = parts[0]
            if not len(ts):
                continue
            ordered = (ordered and not (n and columns[0][n - 1] > ts[0])
                       and bool((ts[1:] >= ts[:-1]).all()))
            if n + len(ts) > len(columns[0]):  # a lone \r ends a row too
                for column in columns:
                    column.resize(n + len(ts), refcheck=False)
            for column, part in zip(columns, parts):
                column[n:n + len(ts)] = part
            n += len(ts)
    if not n:
        raise TraceParseError("empty trace")
    for column in columns:
        column.resize(n, refcheck=False)
    if not ordered:
        order = np.argsort(columns[0], kind="stable")
        for column in columns:
            column[:] = column[order]
    ts = columns[0]
    ts -= ts[0]
    ts *= _FORMATS[format_id]["tick"]
    return Trace(*columns, block_size)


def _count_lines(fh) -> int:
    """The line ends in the rest of fh plus one, leaving fh where it was."""
    start = fh.tell()
    lines = 1
    while data := _utf8(fh.read(CHUNK_BYTES)):
        lines += int(np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")))
    fh.seek(start)
    return lines


def _chunks(fh):
    """Successive runs of whole lines of fh, about CHUNK_BYTES each, as
    bytes."""
    while data := _utf8(fh.read(CHUNK_BYTES)):
        data += _utf8(fh.readline())
        # a quoted field may hold a line break; keep its row in one chunk
        while b'"' in data and data.count(b'"') % 2 and (more := fh.readline()):
            data += _utf8(more)
        yield data


def _utf8(data) -> bytes:
    """Text read from a text file, as UTF-8 bytes; bytes as they are."""
    return data.encode() if isinstance(data, str) else data


def _decoded(data, line) -> str:
    """UTF-8 data, starting on the given line, as text; a byte that is not
    UTF-8 raises TraceParseError naming its line."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        bad = line + data.count(b"\n", 0, exc.start)
        raise TraceParseError(f"line {bad}: byte 0x{data[exc.start]:02x} is not "
                              f"UTF-8 text") from None


def _parse_columns(lines, cols):
    """(timestamp, is_read, offset, size) in file order from one np.loadtxt
    pass over a list of lines (which it parses faster than a file object),
    or None when some row needs the row reader: a cell loadtxt cannot
    convert, an unknown or possibly cut op, a bad value, or no rows."""
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
                rows = np.loadtxt(lines,
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


def _parse_rows(text, cols, first_line):
    """(timestamp, is_read, offset, size) in file order, one csv row at a
    time, with text starting on line first_line; raises TraceParseError
    naming the first bad line."""
    t_col, op_col, off_col, sz_col = cols
    ncols = max(cols) + 1
    rows = []
    lineno = first_line - 1
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for lineno, row in enumerate(reader, start=first_line):
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
    return tuple(np.array(column, dtype=dtype) for column, dtype
                 in zip(zip(*rows) if rows else ((),) * 4, _COLUMN_DTYPES))


# ---------------------------------------------------------------------------
# Aggregation

def infer_lba_range(trace: Trace, nu=None, fraction=None):
    """(lo, hi) covering the read offsets in the learning part of a trace.

    With nu and fraction given, only reads in the first learn_cut(T,
    fraction) of the T read slices count, the slices a fit learns from, and
    there must be some; later offsets outside the range clamp to edge bins.
    """
    if not trace.is_read.any():
        raise TraceParseError("no reads to infer an address range from")
    learn = trace
    if nu is not None and fraction is not None:
        cutoff = learn_cut(trace.read_slice_count(nu), fraction) * nu
        learn = trace.select(slice(int(np.searchsorted(trace.timestamp, cutoff))))
    lo, hi = _I8_MAX, -1
    for rows in learn.row_groups():
        offsets = rows.offset[rows.is_read]
        if len(offsets):
            lo, hi = min(lo, int(offsets.min())), max(hi, int(offsets.max()))
    if hi < 0:
        raise ConfigError("the learning part of the trace holds no reads")
    return lo, hi + 1


def binning_from_events(trace: Trace, M, nu, fraction=None,
                        count_per_block=False) -> BinningConfig:
    """Build a BinningConfig at the trace's block size, with the address
    range taken from the learning part (or the whole trace when fraction is
    None)."""
    lo, hi = infer_lba_range(trace, nu=nu, fraction=fraction)
    return BinningConfig(M=M, lba_lo=lo, lba_hi=hi, nu=nu,
                         block_size=trace.block_size, count_per_block=count_per_block)


def check_block_size(trace: Trace, config: BinningConfig):
    """Raise ValueError unless trace and config share one block size."""
    if trace.block_size != config.block_size:
        raise ValueError(f"trace has block size {trace.block_size} but the "
                         f"binning has {config.block_size}")


def aggregate(trace: Trace, config: BinningConfig) -> CountVectorSequence:
    """Histogram the reads of a trace into per-slice count vectors and
    block-access sets; writes are left out.

    Requests are binned once each by their starting offset (or once per
    covered block with count_per_block); the access sets record every block
    covered.
    """
    check_block_size(trace, config)
    T = trace.read_slice_count(config.nu)
    X = np.zeros((T, config.M), dtype=np.int64)
    A = []
    for first, stop, rows in trace.slice_groups(config.nu, T):
        X[first:stop], ids, bounds = config.slice_counts(rows.reads(), first, stop)
        A += [distinct(ids[a:b]) for a, b in zip(bounds, bounds[1:])]
    return CountVectorSequence(X, A, config)


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
    learn = CountVectorSequence(seq.X[:cut].copy(), seq.A[:cut], seq.config)
    operate = CountVectorSequence(seq.X[cut:].copy(), seq.A[cut:], seq.config)
    return learn, operate


# ---------------------------------------------------------------------------
# Artifact round-trip

def encode_sets(prefix, sets, binning: BinningConfig) -> dict:
    """The .npz fields of ragged block-id sets and their binning: the sorted
    int64 arrays concatenated as `{prefix}_flat`, cut by int64
    `{prefix}_offsets`; the binning as an int64 vector plus `nu`."""
    return {
        f"{prefix}_flat": np.concatenate([np.zeros(0, dtype=np.int64), *sets]),
        f"{prefix}_offsets": np.cumsum([0, *map(len, sets)], dtype=np.int64),
        "binning": np.asarray([binning.M, binning.lba_lo, binning.lba_hi,
                               binning.block_size, int(binning.count_per_block)],
                              dtype=np.int64),
        "nu": np.float64(binning.nu),
    }


def decode_sets(z, prefix):
    """(list of sets, BinningConfig) from the fields encode_sets wrote.  The
    sets are views into `{prefix}_flat`; a file whose offsets do not cut it
    into strictly increasing segments raises ValueError."""
    flat, offsets = z[f"{prefix}_flat"], z[f"{prefix}_offsets"]
    if flat.dtype != np.int64 or flat.ndim != 1:
        raise ValueError(f"{prefix}_flat must be a 1-D int64 array")
    if (offsets.dtype != np.int64 or offsets.ndim != 1 or not len(offsets)
            or offsets[0] != 0 or offsets[-1] != len(flat)
            or (np.diff(offsets) < 0).any()):
        raise ValueError(f"{prefix}_offsets must rise from 0 to len({prefix}_flat)")
    # a step down may only fall between two segments
    falls = np.diff(flat) <= 0
    falls[offsets[(offsets > 0) & (offsets < len(flat))] - 1] = False
    if falls.any():
        raise ValueError(f"{prefix}_flat holds a segment that is not strictly increasing")
    m, lo, hi, bs, per_block = (int(v) for v in z["binning"])
    binning = BinningConfig(M=m, lba_lo=lo, lba_hi=hi, nu=float(z["nu"]),
                            block_size=bs, count_per_block=bool(per_block))
    bounds = offsets.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])], binning


@contextmanager
def load_npz(path):
    """np.load(path) as a context in which a missing field raises
    ValueError naming it."""
    with np.load(path) as z:
        try:
            yield z
        except KeyError as exc:
            raise ValueError(f"malformed file {path}: {exc.args[0]}") from None


def save_artifact(seq: CountVectorSequence, path):
    """Write a count-vector sequence to a .npz artifact."""
    np.savez(path, version=np.int64(ARTIFACT_VERSION), X=seq.X,
             **encode_sets("A", seq.A, seq.config))


def load_artifact(path) -> CountVectorSequence:
    with load_npz(path) as z:
        if int(z["version"]) != ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {int(z['version'])}")
        A, cfg = decode_sets(z, "A")
        return CountVectorSequence(z["X"], A, cfg)
