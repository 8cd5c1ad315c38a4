import io
import warnings

import numpy as np
import pytest

from tracemix import ingest
from tracemix.errors import TraceParseError
from tracemix.ingest import (BinningConfig, CountVectorSequence, Trace,
                             TraceEvent, aggregate, binning_from_events,
                             blocks_covered, infer_lba_range, learn_cut,
                             load_artifact, parse_trace, save_artifact,
                             split_learn_operate)

import oracles


def plain(rows):
    return io.StringIO("\n".join(rows) + "\n")


def make_events(specs, block_size=4096):
    # specs: (timestamp, op, offset, size)
    return [TraceEvent(ts, op, off, sz, blocks_covered(off, sz, block_size))
            for ts, op, off, sz in specs]


# ---------------------------------------------------------------------------
# parsing

def test_parse_three_rows():
    events = parse_trace(plain(["0.0,read,0,4096",
                                "1.0,read,4096,4096",
                                "2.0,read,8192,4096"]), format_id="plain")
    assert [e.offset for e in events] == [0, 4096, 8192]
    assert all(e.op == "read" for e in events)


def test_parse_zero_size_rejected():
    with pytest.raises(TraceParseError):
        parse_trace(plain(["0.0,read,0,0"]), format_id="plain")


def test_parse_malformed_row_names_line():
    with pytest.raises(TraceParseError, match="line 2"):
        parse_trace(plain(["0.0,read,0,4096", "0.5,read,zzz,4096"]),
                    format_id="plain")


def test_parse_empty_trace_rejected():
    with pytest.raises(TraceParseError, match="empty"):
        parse_trace(io.StringIO(""), format_id="plain")


def test_parse_unknown_op_rejected():
    with pytest.raises(TraceParseError, match="op"):
        parse_trace(plain(["0.0,flush,0,4096"]), format_id="plain")


def test_parse_sorts_and_rebases_timestamps():
    events = parse_trace(plain(["5.0,read,4096,4096", "3.0,write,0,4096"]),
                         format_id="plain")
    assert events[0].timestamp == 0.0 and events[0].op == "write"
    assert events[1].timestamp == 2.0


def test_parse_msr_format():
    # filetime ticks (100ns); 1e7 ticks = 1 second
    rows = ["128166372003061629,srv0,0,Read,8192,4096,100",
            "128166372013061629,srv0,0,Write,0,8192,200"]
    events = parse_trace(plain(rows), format_id="msr")
    assert events[0].timestamp == pytest.approx(0.0)
    assert events[1].timestamp == pytest.approx(1.0)
    assert events[0].op == "read" and events[1].op == "write"
    assert events[1].block_ids == (0, 1)


def test_parse_fixture_against_reference():
    # independent single-pass parse of the same fixture
    rows = [(0.0, "read", 0, 4096), (0.5, "read", 12288, 8192),
            (1.0, "write", 4096, 4096), (2.5, "read", 40960, 4096),
            (3.0, "read", 0, 12288), (4.0, "write", 8192, 4096),
            (5.5, "read", 20480, 4096), (6.0, "read", 24576, 4096),
            (7.0, "read", 4096, 4096), (9.9, "read", 16384, 4096)]
    text = [f"{ts},{op},{off},{sz}" for ts, op, off, sz in rows]
    events = parse_trace(plain(text), format_id="plain")
    assert len(events) == 10
    for e, (ts, op, off, sz) in zip(events, rows):
        assert e.timestamp == pytest.approx(ts)
        assert e.op == op and e.offset == off and e.size == sz
        first = off // 4096
        last = (off + sz - 1) // 4096
        assert e.block_ids == tuple(range(first, last + 1))


# (format, lines) pairs: the columnar parser must give the reference row
# parser's columns, or its error message and line number
PARITY_CASES = {
    "blank lines": ("plain", ["", "0.0,read,0,4096", "", "", "1.0,write,4096,8192", ""]),
    "whitespace-only lines": ("plain", ["0.0,read,0,4096", "   ", "\t", "1.0,read,0,4096"]),
    "whitespace before a bad line": ("plain", ["0.0,read,0,4096", "  ", "1.0,read,zzz,4096"]),
    "padded op": ("plain", ["0.0, Read ,0,4096", "1.0,READ,0,4096"]),
    "short ops": ("plain", ["0.0,R,0,4096", "1.0,w,4096,4096", "2.0,r,0,4096"]),
    "extra trailing columns": ("plain", ["0.0,read,0,4096,x,y", "1.0,write,0,4096,"]),
    "too few columns": ("plain", ["0.0,read,0,4096", "1.0,read,0"]),
    "hash-led row": ("plain", ["0.0,read,0,4096", "#1.0,read,0,4096"]),
    "plus and exponent fields": ("plain", ["+5,read,+4096,+4096", "1e3,write,0,4096"]),
    "exponent offset": ("plain", ["0.0,read,1e3,4096"]),
    "float offset": ("plain", ["0.0,read,4096.0,4096"]),
    "equal timestamps keep file order": ("plain", [
        "1.0,read,0,4096", "1.0,write,4096,4096", "0.5,read,8192,4096",
        "1.0,read,12288,4096", "0.5,write,16384,4096"]),
    "unknown op longer than any fixed width": ("plain", ["0.0,writewritewrite,0,4096"]),
    "op that fills the fixed width": ("plain", ["0.0,   read   ,0,4096"]),
    "unknown op whose head is a known one": ("plain", ["0.0,w       junk,0,4096"]),
    "unknown op": ("plain", ["0.0,read,0,4096", "1.0,flush,0,4096"]),
    "zero size": ("plain", ["0.0,read,0,4096", "1.0,read,0,0"]),
    "negative offset": ("plain", ["0.0,read,0,4096", "1.0,read,-4096,4096"]),
    "empty input": ("plain", []),
    "only blank lines": ("plain", ["", "  ", ""]),
    "quoted fields": ("plain", ['"0.5","read",0,4096', '1.5,write,"4096",4096']),
    "NUL in an op": ("plain", ["0.0,r\0,0,4096"]),
    "unsorted with sub-block requests": ("plain", [
        "3.25,read,4095,2", "0.125,read,10,1", "2.0,write,8192,12288"]),
    "msr rows": ("msr", [
        "128166372003061629,usr,0,Read,8192,4096,100",
        "128166372013061629,usr,1,Write,0,8192,200",
        "128166372003061629,usr,0,read,4096,512,5"]),
    "msr quoted hostname with a comma": ("msr", [
        '128166372003061629,"usr,0",Read,4096,4096,1,2']),
    "msr fractional ticks": ("msr", ["128166372003061629.5,usr,0,Read,0,4096,1",
                                     "128166372003061629,usr,0,Write,0,4096,1"]),
    "msr empty op": ("msr", ["128166372003061629,usr,0,,0,4096,1"]),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_parse_matches_reference_parser(case):
    check_parity(*PARITY_CASES[case])


def check_parity(fmt, lines):
    text = "".join(line + "\n" for line in lines)
    try:
        expected = oracles.reference_parse_trace(io.StringIO(text), format_id=fmt)
    except TraceParseError as exc:
        with pytest.raises(TraceParseError) as got:
            parse_trace(io.StringIO(text), format_id=fmt)
        assert str(got.value) == str(exc)
        return
    trace = parse_trace(io.StringIO(text), format_id=fmt)
    assert list(trace) == expected  # exact floats, ops, offsets, block ids
    assert trace.timestamp.dtype == np.float64 and trace.is_read.dtype == bool
    assert trace.offset.dtype == np.int64 and trace.size.dtype == np.int64


def loadtxt_of_numpy_1_24(real_loadtxt):
    """np.loadtxt as numpy 1.23-1.26 ran it: an integer field reads a cell
    int() rejects as a float and truncates it, with one DeprecationWarning
    per call."""
    def loadtxt(fname, dtype, **kwargs):
        ints = [name for name in dtype.names if dtype[name].kind == "i"]
        text_dtype = np.dtype([(name, "U64" if name in ints else dtype[name])
                               for name in dtype.names])
        cells = real_loadtxt(fname, dtype=text_dtype, **kwargs)
        rows = np.empty(len(cells), dtype=dtype)
        warned = False
        for name in dtype.names:
            if name not in ints:
                rows[name] = cells[name]
                continue
            for i, cell in enumerate(cells[name]):
                try:
                    rows[name][i] = int(cell)
                except ValueError:
                    if not warned:
                        warnings.warn("loadtxt(): Parsing an integer via a "
                                      "float is deprecated.", DeprecationWarning)
                        warned = True
                    rows[name][i] = int(float(cell))
        return rows
    return loadtxt


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_parse_matches_reference_under_numpy_1_24_loadtxt(case, monkeypatch):
    # a float cell the installed loadtxt rejects may be truncated into an
    # integer field by an older one; that input must still reach the row
    # reader, and no warning may escape the parse
    monkeypatch.setattr(np, "loadtxt", loadtxt_of_numpy_1_24(np.loadtxt))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_parity(*PARITY_CASES[case])


def test_parse_matches_reference_on_a_file(tmp_path):
    # a large-ish MSR file through the path-reading branch, with CRLF endings
    rng = np.random.default_rng(5)
    n = 3000
    ticks = 128166372000000000 + rng.integers(0, 3 * 10**9, size=n)
    ticks[10] = ticks[11]  # a tie
    ops = rng.choice(["Read", "Write", "read", "W"], size=n)
    offsets = rng.integers(0, 10**6, size=n) * 512
    sizes = rng.integers(1, 64, size=n) * 512
    path = tmp_path / "trace.csv"
    path.write_bytes("".join(
        f"{t},srv,0,{o},{off},{sz},{i}\r\n"
        for i, (t, o, off, sz) in enumerate(zip(ticks, ops, offsets, sizes))).encode())
    trace = parse_trace(path, format_id="msr", block_size=4096)
    assert list(trace) == oracles.reference_parse_trace(path, format_id="msr")
    assert ingest._parse_columns(path.read_text(), path, (0, 3, 4, 5)) is not None


@pytest.mark.parametrize("row, message", [
    ("nan,read,0,4096", "line 2: timestamp must be finite"),
    ("inf,read,0,4096", "line 2: timestamp must be finite"),
    ("1.0,read,9223372036854771712,8192", "line 2: request end"),
    ("1.0,read,99999999999999999999,4096", "line 2: request end"),
])
def test_parse_rejects_rows_the_columns_cannot_hold(row, message):
    # the row parser accepted these; a Trace holds finite float64 times and
    # int64 byte ranges, so they now fail on their line
    with pytest.raises(TraceParseError, match=message):
        parse_trace(plain(["0.0,read,0,4096", row]), format_id="plain")


def test_trace_rows_read_back_as_events():
    events = make_events([(0.0, "read", 0, 4096), (1.5, "write", 4095, 2),
                          (2.0, "read", 8192, 3 * 4096)])
    trace = Trace.from_events(events)
    assert len(trace) == 3
    assert trace[1] == events[1] and trace[-1] == events[-1]
    assert list(trace) == events
    ids, counts = trace.block_ids()
    assert ids.tolist() == [0, 0, 1, 2, 3, 4] and counts.tolist() == [1, 2, 3]


def test_trace_from_events_sorts_stably():
    events = make_events([(2.0, "read", 0, 1), (1.0, "read", 4096, 1),
                          (1.0, "write", 8192, 1)])
    trace = Trace.from_events(events)
    assert list(trace) == [events[1], events[2], events[0]]


def test_trace_from_events_checks_block_size():
    events = make_events([(0.0, "read", 0, 1024)], block_size=512)
    with pytest.raises(ValueError, match="block size"):
        Trace.from_events(events, block_size=4096)
    assert list(Trace.from_events(events, block_size=512)) == events
    assert Trace.from_events(events).block_size == 512
    assert Trace.from_events(make_events([(0.0, "read", 0, 1024)])).block_size == 4096
    misnumbered = [TraceEvent(0.0, "read", 0, 4096, (5,))]
    with pytest.raises(ValueError, match="every block size"):
        Trace.from_events(misnumbered)


@pytest.mark.parametrize("M, lo, hi", [(10, 0, 10_000_000), (7, 10, 100),
                                       (5, 100, 103), (3, -50, 7)])
def test_bins_of_matches_bin_of(M, lo, hi):
    c = BinningConfig(M=M, lba_lo=lo, lba_hi=hi, nu=1.0)
    rng = np.random.default_rng(M)
    offsets = np.concatenate([rng.integers(lo - 50, hi + 50, size=500),
                              np.arange(lo - 3, min(hi + 3, lo + 300)),
                              [0, 2**62]])
    assert c.bins_of(offsets).tolist() == [c.bin_of(o) for o in offsets.tolist()]


def test_blocks_covered_spans():
    assert blocks_covered(0, 4096) == (0,)
    assert blocks_covered(4095, 2) == (0, 1)
    assert blocks_covered(8192, 8192) == (2, 3)


def test_event_invariants():
    with pytest.raises(TraceParseError):
        TraceEvent(-1.0, "read", 0, 4096, (0,))
    with pytest.raises(TraceParseError):
        TraceEvent(0.0, "read", 0, 4096, ())


# ---------------------------------------------------------------------------
# aggregation

def cfg(M=2, lo=0, hi=100, nu=10.0, **kw):
    return BinningConfig(M=M, lba_lo=lo, lba_hi=hi, nu=nu, **kw)


def test_aggregate_empty_slice_is_zero():
    events = make_events([(0.0, "read", 10, 1), (25.0, "read", 10, 1)])
    seq = aggregate(events, cfg())
    assert np.array_equal(seq.X[1], [0, 0])
    assert seq.A[1] == set()


def test_aggregate_direct_histogram():
    events = make_events([(0.0, "read", 10, 1), (1.0, "read", 10, 1),
                          (2.0, "read", 60, 1)])
    seq = aggregate(events, cfg())
    assert np.array_equal(seq.X, [[2, 1]])


def test_aggregate_matches_bruteforce_recount():
    rng = np.random.default_rng(11)
    events = make_events(sorted(
        ((float(rng.uniform(0, 300)), "read", int(rng.integers(0, 10_000_000)), 4096)
         for _ in range(50)), key=lambda s: s[0]))
    c = BinningConfig(M=10, lba_lo=0, lba_hi=10_000_000, nu=30.0)
    seq = aggregate(events, c)
    # independent recount
    T = int(max(e.timestamp for e in events) // 30.0) + 1
    X = np.zeros((T, 10), dtype=int)
    for e in events:
        t = int(e.timestamp // 30.0)
        j = min(max((e.offset - 0) * 10 // 10_000_000, 0), 9)
        X[t, j] += 1
    assert np.array_equal(seq.X, X)


def test_aggregate_excludes_writes_by_default():
    events = make_events([(0.0, "read", 10, 1), (1.0, "write", 10, 1)])
    seq = aggregate(events, cfg())
    assert seq.X.sum() == 1
    assert seq.A[0] == {0}
    both = aggregate(events, cfg(), include_writes=True)
    assert both.X.sum() == 2


def test_aggregate_out_of_range_clamps():
    events = make_events([(0.0, "read", 500, 1), (0.0, "read", 0, 1)])
    c = cfg(lo=10, hi=100)
    seq = aggregate(events, c)
    assert seq.X[0, 1] == 1 and seq.X[0, 0] == 1


def test_aggregate_per_block_mode():
    events = make_events([(0.0, "read", 0, 3 * 4096)])
    c = BinningConfig(M=3, lba_lo=0, lba_hi=3 * 4096, nu=10.0,
                      count_per_block=True)
    seq = aggregate(events, c)
    assert np.array_equal(seq.X, [[1, 1, 1]])


def test_aggregate_conservation_and_sparsity():
    rng = np.random.default_rng(12)
    for trial in range(5):
        n = int(rng.integers(1, 150))
        events = make_events(sorted(
            ((float(rng.uniform(0, 100)), "read",
              int(rng.integers(0, 1000)) * 2, 1) for _ in range(n)),
            key=lambda s: s[0]))
        c = BinningConfig(M=7, lba_lo=0, lba_hi=2000, nu=13.0)
        seq = aggregate(events, c)
        assert seq.X.sum() == n  # conservation
        touched = {c.bin_of(e.offset) for e in events}
        untouched = set(range(7)) - touched
        for j in untouched:
            assert np.all(seq.X[:, j] == 0)  # sparsity preserved


def test_aggregate_determinism():
    events = make_events([(0.0, "read", 10, 1), (5.5, "read", 90, 1)])
    a = aggregate(events, cfg())
    b = aggregate(events, cfg())
    assert np.array_equal(a.X, b.X) and a.A == b.A


# ---------------------------------------------------------------------------
# splitting

def seq_of_length(T, M=2):
    return CountVectorSequence(np.arange(T * M).reshape(T, M),
                               [set([t]) for t in range(T)], cfg())


def test_split_even():
    learn, op = split_learn_operate(seq_of_length(10), 0.5)
    assert len(learn) == 5 and len(op) == 5
    assert np.array_equal(learn.X, seq_of_length(10).X[:5])


def test_split_ceiling_rule():
    learn, op = split_learn_operate(seq_of_length(11), 0.5)
    assert len(learn) == 6 and len(op) == 5


def test_split_fraction_09():
    learn, op = split_learn_operate(seq_of_length(100), 0.9)
    assert len(learn) == 90 and len(op) == 10


def test_learn_cut_clamps_both_parts():
    assert learn_cut(10, 0.5) == 5
    assert learn_cut(11, 0.5) == 6
    assert learn_cut(2, 0.01) == 1
    assert learn_cut(5, 0.9) == 4
    with pytest.raises(ValueError):
        learn_cut(1, 0.5)


def test_split_too_short():
    with pytest.raises(ValueError):
        split_learn_operate(seq_of_length(1), 0.5)


def test_split_bad_fraction():
    with pytest.raises(ValueError):
        split_learn_operate(seq_of_length(10), 1.0)


# ---------------------------------------------------------------------------
# range inference and artifact round-trip

def test_infer_range_uses_learning_portion():
    events = make_events([(0.0, "read", 100, 1), (5.0, "read", 200, 1),
                          (95.0, "read", 10_000, 1)])
    lo, hi = infer_lba_range(events, nu=10.0, fraction=0.5)
    assert lo == 100 and hi == 201


def test_binning_from_events():
    events = make_events([(0.0, "read", 100, 1), (5.0, "read", 200, 1)])
    c = binning_from_events(events, M=4, nu=10.0)
    assert c.lba_lo == 100 and c.lba_hi == 201 and c.M == 4


def test_artifact_roundtrip(tmp_path):
    events = make_events([(0.0, "read", 10, 1), (12.0, "read", 55, 8192)])
    seq = aggregate(events, cfg())
    path = tmp_path / "counts.npz"
    save_artifact(seq, path)
    back = load_artifact(path)
    assert np.array_equal(back.X, seq.X)
    assert back.A == seq.A
    assert back.config == seq.config


def test_artifact_bytes_deterministic(tmp_path):
    events = make_events([(0.0, "read", 10, 1), (12.0, "read", 55, 1)])
    seq = aggregate(events, cfg())
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_artifact(seq, p1)
    save_artifact(seq, p2)
    assert p1.read_bytes() == p2.read_bytes()
