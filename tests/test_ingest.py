import io
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tracemix import cachesim, ingest, synth
from tracemix.errors import TraceParseError
from tracemix.ingest import (BinningConfig, CountVectorSequence, TraceEvent,
                             aggregate, binning_from_events, blocks_covered,
                             infer_lba_range, learn_cut, load_artifact,
                             parse_trace, save_artifact, split_learn_operate)

import oracles
from traces import trace_of


def plain(rows):
    return io.StringIO("\n".join(rows) + "\n")


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
    events = list(parse_trace(plain(["5.0,read,4096,4096", "3.0,write,0,4096"]),
                              format_id="plain"))
    assert events[0].timestamp == 0.0 and events[0].op == "write"
    assert events[1].timestamp == 2.0


def test_parse_msr_format():
    # filetime ticks (100ns); 1e7 ticks = 1 second
    rows = ["128166372003061629,srv0,0,Read,8192,4096,100",
            "128166372013061629,srv0,0,Write,0,8192,200"]
    events = list(parse_trace(plain(rows), format_id="msr"))
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
    "msr quoted hostname holding a line break": ("msr", [
        '128166372003061629,"a hostname that runs past one chunk',
        'and on",0,Read,4096,4096,1', "128166372013061629,usr,0,Write,0,4096,1"]),
    "rows ended by a lone carriage return": ("plain", [
        "0.0,read,0,4096\r1.0,read,4096,4096\r2.0,write,0,4096"]),
    # chunk boundaries, at SMALL_CHUNK bytes per chunk
    "a chunk of blank lines only": ("plain", ["0.0,read,0,4096"] + [""] * 90
                                    + ["1.0,read,4096,4096"]),
    "integer ticks, then float timestamps in a later chunk": ("msr", [
        f"1281663720030616{i:02d},usr,0,Read,{i * 4096},4096,1" for i in range(6)] + [
        f"1281663720030616{i:02d}.5,usr,0,Write,{i * 4096},4096,1" for i in range(6, 9)]),
    "a bad row just after a chunk boundary": ("plain", [
        "0.0,read,0,4096", "0.5,read,0,4096", "1.0,read,0,4096",
        "1.5,read,zzz,4096", "2.0,read,0,4096"]),
}

# Bytes read per chunk in the small-chunk tests: the 16-byte rows of the
# bad-row case above fall in chunks of three lines.
SMALL_CHUNK = 40


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_parse_matches_reference_parser(case):
    check_parity(*PARITY_CASES[case])


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_parse_matches_reference_in_small_chunks(case, monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", SMALL_CHUNK)
    check_parity(*PARITY_CASES[case])


def test_bad_row_after_a_chunk_boundary_is_named(monkeypatch):
    # the table's bad-row case really starts a chunk
    monkeypatch.setattr(ingest, "CHUNK_BYTES", SMALL_CHUNK)
    text = "".join(line + "\n" for line in PARITY_CASES[
        "a bad row just after a chunk boundary"][1])
    assert [chunk.count(b"\n") for chunk in ingest._chunks(io.StringIO(text))] == [3, 2]
    with pytest.raises(TraceParseError, match="^line 4: "):
        parse_trace(io.StringIO(text), format_id="plain")


@pytest.mark.parametrize("chunk", [SMALL_CHUNK, 1 << 20])
def test_parse_names_the_line_of_a_byte_that_is_not_utf8(chunk, monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", chunk)
    rows = [f"{t}.0,read,{t * 4096},4096\n".encode() for t in range(9)]
    rows[6] = b"6.0,read,\xff,4096\n"
    with pytest.raises(TraceParseError, match="^line 7: byte 0xff is not UTF-8"):
        parse_trace(io.BytesIO(b"".join(rows)), format_id="plain")


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


def test_parse_matches_reference_on_a_file(tmp_path, monkeypatch):
    check_crlf_file(tmp_path, monkeypatch)


def test_parse_matches_reference_on_a_file_in_small_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 200)  # about four rows
    check_crlf_file(tmp_path, monkeypatch)


def check_crlf_file(tmp_path, monkeypatch):
    # a large-ish MSR file read from its path, with CRLF endings
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
    # every chunk takes the vectorised pass
    monkeypatch.setattr(ingest, "_parse_rows",
                        lambda *args: pytest.fail("the row reader ran"))
    trace = parse_trace(path, format_id="msr", block_size=4096)
    assert list(trace) == oracles.reference_parse_trace(path, format_id="msr")


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
    rows = [(0.0, "read", 0, 4096), (1.5, "write", 4095, 2),
            (2.0, "read", 8192, 3 * 4096)]
    trace = trace_of(rows)
    events = [TraceEvent(ts, op, off, sz, blocks_covered(off, sz))
              for ts, op, off, sz in rows]
    assert len(trace) == 3
    assert list(trace)[1] == events[1] and list(trace)[-1] == events[-1]
    assert list(trace) == events
    ids, counts = trace.block_ids()
    assert ids.tolist() == [0, 0, 1, 2, 3, 4] and counts.tolist() == [1, 2, 3]


def test_generated_trace_rows_match_columns_and_round_trip(tmp_path):
    spec = replace(synth.default_trace_spec(seed=2), T=30, block_size=512)
    trace = synth.gen_block_trace(spec)
    assert trace.block_size == 512 and len(trace) > 30 * 40
    assert (np.diff(trace.timestamp) >= 0).all()
    rows = list(trace)
    assert len(rows) == len(trace)
    for e, ts, is_read, off, sz in zip(rows, trace.timestamp.tolist(),
                                       trace.is_read.tolist(),
                                       trace.offset.tolist(), trace.size.tolist()):
        assert (e.timestamp, e.op == "read", e.offset, e.size) == (ts, is_read, off, sz)
        assert e.block_ids == blocks_covered(off, sz, 512) == (off // 512,)
    path = tmp_path / "trace.csv"
    synth.write_trace_csv(trace, path)
    back = parse_trace(path, format_id="plain", block_size=512)
    written = np.array([float(f"{t:.6f}") for t in trace.timestamp.tolist()])
    assert np.array_equal(back.timestamp, written - written[0])
    assert np.array_equal(back.is_read, trace.is_read)
    assert np.array_equal(back.offset, trace.offset)
    assert np.array_equal(back.size, trace.size)
    assert back.block_size == trace.block_size
    # write rows are written as such, and every row is exactly its columns
    mixed = trace_of([(3.0, "read", 0, 4096), (4.25, "write", 4095, 2),
                      (5.0000004, "write", 8192, 512)])
    synth.write_trace_csv(mixed, path)
    assert path.read_text() == ("3.000000,read,0,4096\n4.250000,write,4095,2\n"
                                "5.000000,write,8192,512\n")
    assert parse_trace(path, format_id="plain").is_read.tolist() == [True, False, False]


@pytest.mark.parametrize("M, lo, hi", [(10, 0, 10_000_000), (7, 10, 100),
                                       (5, 100, 103), (3, -50, 7)])
def test_bins_of_matches_bin_of(M, lo, hi):
    c = BinningConfig(M=M, lba_lo=lo, lba_hi=hi, nu=1.0)
    rng = np.random.default_rng(M)
    offsets = np.concatenate([rng.integers(lo - 50, hi + 50, size=500),
                              np.arange(lo - 3, min(hi + 3, lo + 300)),
                              [0, 2**62]])
    assert c.bins_of(offsets).tolist() == [c.bin_of(o) for o in offsets.tolist()]


def write_pool_trace(path, slices, rng):
    """An MSR-format trace in time order: 300 requests per 30 s slice, reads
    and multi-block writes, on blocks drawn from a pool that does not grow
    with the trace."""
    rows = slices * 300
    ticks = 128166372000000000 + np.arange(rows) * (30 * 10**7 // 300)
    ops = rng.choice(["Read", "Write"], size=rows, p=[0.75, 0.25])
    blocks = rng.integers(0, 2000, size=rows)
    sizes = rng.integers(1, 5, size=rows) * 4096
    path.write_text("".join(f"{t},usr,0,{op},{b * 4096},{sz},100\n" for t, op, b, sz
                            in zip(ticks.tolist(), ops, blocks.tolist(), sizes.tolist())))


def test_ingest_transients_do_not_grow_with_the_trace(tmp_path, monkeypatch):
    # parse, binning, aggregate and footprint on N and 4N rows: their peak
    # above what they keep (the columns and the count vectors and access
    # sets) is set by the chunk and group sizes, not by the trace
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 1 << 16)
    monkeypatch.setattr(ingest, "GROUP_ROWS", 1 << 12)
    rng = np.random.default_rng(8)
    transient = []
    for slices in (60, 240):
        path = tmp_path / f"trace{slices}.csv"
        write_pool_trace(path, slices, rng)
        tracemalloc.start()
        try:
            trace = parse_trace(path, format_id="msr")
            seq = aggregate(trace, binning_from_events(trace, M=10, nu=30.0, fraction=0.5))
            cachesim.capacity_from_trace(trace, 0.05)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == slices * 300 and len(seq) == slices
        transient.append(peak - held)
    assert transient[1] < 1.2 * transient[0], transient


@pytest.mark.parametrize("rows_per_group", [1, 3, 16, 1000])
def test_slice_groups_cut_where_floor_division_cuts(rows_per_group, monkeypatch):
    # 0.1 s slices: t * 0.1 rounds both ways against the timestamps near
    # it (1.0 // 0.1 is 9, 0.3 // 0.1 is 2), and runs of equal timestamps
    # sit on the boundaries
    monkeypatch.setattr(ingest, "GROUP_ROWS", rows_per_group)
    ts = np.sort(np.concatenate([np.arange(60) * 0.1, np.arange(60) / 10,
                                 np.repeat([0.3, 1.0, 2.5], 5), [7.5]]))
    trace = trace_of([(t, "read", 0, 1) for t in ts.tolist()])
    slots = (ts // 0.1).astype(int)
    T = 40
    groups = list(trace.slice_groups(0.1, T))
    assert [g[0] for g in groups[1:]] == [g[1] for g in groups[:-1]]
    assert groups[0][0] == 0 and groups[-1][1] == T
    kept = np.concatenate([rows.timestamp for _, _, rows in groups])
    assert np.array_equal(kept, ts[slots < T])
    for first, stop, rows in groups:
        assert ((first <= rows.slots(0.1)) & (rows.slots(0.1) < stop)).all()


def test_blocks_covered_spans():
    assert blocks_covered(0, 4096) == (0,)
    assert blocks_covered(4095, 2) == (0, 1)
    assert blocks_covered(8192, 8192) == (2, 3)


# ---------------------------------------------------------------------------
# aggregation

def cfg(M=2, lo=0, hi=100, nu=10.0, **kw):
    return BinningConfig(M=M, lba_lo=lo, lba_hi=hi, nu=nu, **kw)


def test_aggregate_empty_slice_is_zero():
    trace = trace_of([(0.0, "read", 10, 1), (25.0, "read", 10, 1)])
    seq = aggregate(trace, cfg())
    assert np.array_equal(seq.X[1], [0, 0])
    assert seq.A[1].dtype == np.int64 and seq.A[1].tolist() == []


def test_aggregate_direct_histogram():
    trace = trace_of([(0.0, "read", 10, 1), (1.0, "read", 10, 1),
                          (2.0, "read", 60, 1)])
    seq = aggregate(trace, cfg())
    assert np.array_equal(seq.X, [[2, 1]])


def test_aggregate_matches_bruteforce_recount():
    rng = np.random.default_rng(11)
    trace = trace_of(sorted(
        ((float(rng.uniform(0, 300)), "read", int(rng.integers(0, 10_000_000)), 4096)
         for _ in range(50)), key=lambda s: s[0]))
    c = BinningConfig(M=10, lba_lo=0, lba_hi=10_000_000, nu=30.0)
    seq = aggregate(trace, c)
    # independent recount
    T = int(max(e.timestamp for e in trace) // 30.0) + 1
    X = np.zeros((T, 10), dtype=int)
    for e in trace:
        t = int(e.timestamp // 30.0)
        j = min(max((e.offset - 0) * 10 // 10_000_000, 0), 9)
        X[t, j] += 1
    assert np.array_equal(seq.X, X)


def test_aggregate_excludes_writes_by_default():
    trace = trace_of([(0.0, "read", 10, 1), (1.0, "write", 10, 1)])
    seq = aggregate(trace, cfg())
    assert seq.X.sum() == 1
    assert seq.A[0].tolist() == sorted({0})


def test_aggregate_rejects_another_block_size():
    trace = trace_of([(0.0, "read", 10, 1)], block_size=512)
    with pytest.raises(ValueError, match="block size 512.*4096"):
        aggregate(trace, cfg())
    assert aggregate(trace, cfg(block_size=512)).X.sum() == 1


def test_aggregate_out_of_range_clamps():
    trace = trace_of([(0.0, "read", 500, 1), (0.0, "read", 0, 1)])
    c = cfg(lo=10, hi=100)
    seq = aggregate(trace, c)
    assert seq.X[0, 1] == 1 and seq.X[0, 0] == 1


def test_aggregate_per_block_mode():
    trace = trace_of([(0.0, "read", 0, 3 * 4096)])
    c = BinningConfig(M=3, lba_lo=0, lba_hi=3 * 4096, nu=10.0,
                      count_per_block=True)
    seq = aggregate(trace, c)
    assert np.array_equal(seq.X, [[1, 1, 1]])


def test_aggregate_conservation_and_sparsity():
    rng = np.random.default_rng(12)
    for trial in range(5):
        n = int(rng.integers(1, 150))
        trace = trace_of(sorted(
            ((float(rng.uniform(0, 100)), "read",
              int(rng.integers(0, 1000)) * 2, 1) for _ in range(n)),
            key=lambda s: s[0]))
        c = BinningConfig(M=7, lba_lo=0, lba_hi=2000, nu=13.0)
        seq = aggregate(trace, c)
        assert seq.X.sum() == n  # conservation
        touched = {c.bin_of(e.offset) for e in trace}
        untouched = set(range(7)) - touched
        for j in untouched:
            assert np.all(seq.X[:, j] == 0)  # sparsity preserved


def test_aggregate_determinism():
    trace = trace_of([(0.0, "read", 10, 1), (5.5, "read", 90, 1)])
    a = aggregate(trace, cfg())
    b = aggregate(trace, cfg())
    assert np.array_equal(a.X, b.X)
    assert [s.tolist() for s in a.A] == [s.tolist() for s in b.A]


# ---------------------------------------------------------------------------
# splitting

def seq_of_length(T, M=2):
    return CountVectorSequence(np.arange(T * M).reshape(T, M),
                               [np.array([t], dtype=np.int64) for t in range(T)], cfg())


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
    trace = trace_of([(0.0, "read", 100, 1), (5.0, "read", 200, 1),
                          (95.0, "read", 10_000, 1)])
    lo, hi = infer_lba_range(trace, nu=10.0, fraction=0.5)
    assert lo == 100 and hi == 201


def test_infer_range_cuts_where_fit_cuts():
    # five read slices: a 0.9 split learns from the first learn_cut(5, 0.9)
    # = 4, so the fifth slice's offset stays outside the range
    trace = trace_of([(10.0 * t + 1, "read", 1000 * (t + 1), 1) for t in range(5)]
                      + [(60.0, "write", 99_000, 1)])
    assert learn_cut(5, 0.9) == 4
    assert infer_lba_range(trace, nu=10.0, fraction=0.9) == (1000, 4001)
    assert infer_lba_range(trace) == (1000, 5001)
    with pytest.raises(ValueError, match="at least 2 slices"):
        infer_lba_range(trace_of([(1.0, "read", 0, 1), (15.0, "write", 8, 1)]),
                        nu=10.0, fraction=0.5)


def test_binning_from_events():
    trace = trace_of([(0.0, "read", 100, 1), (5.0, "read", 200, 1)], block_size=512)
    c = binning_from_events(trace, M=4, nu=10.0)
    assert c.lba_lo == 100 and c.lba_hi == 201 and c.M == 4
    assert c.block_size == 512


def test_artifact_roundtrip(tmp_path):
    trace = trace_of([(0.0, "read", 10, 1), (12.0, "read", 55, 8192)])
    seq = aggregate(trace, cfg())
    path = tmp_path / "counts.npz"
    save_artifact(seq, path)
    back = load_artifact(path)
    assert np.array_equal(back.X, seq.X)
    assert [a.tolist() for a in back.A] == [sorted(a.tolist()) for a in seq.A]
    assert back.config == seq.config


def test_access_sets_are_strictly_increasing_int64(tmp_path):
    # overlapping multi-block reads and writes, several per slice, so the
    # covered ids repeat and arrive out of order within a slice
    rng = np.random.default_rng(21)
    trace = trace_of(sorted(
        ((float(rng.uniform(0, 100)), str(rng.choice(["read", "write"])),
          int(rng.integers(0, 200)) * 1000, int(rng.integers(1, 20_000)))
         for _ in range(300)), key=lambda s: s[0]))
    seq = aggregate(trace, cfg(hi=300_000))
    path = tmp_path / "counts.npz"
    save_artifact(seq, path)
    for A in (seq.A, load_artifact(path).A):
        assert len(A) == len(seq)
        for t, a in enumerate(A):
            assert a.dtype == np.int64 and a.ndim == 1
            assert (np.diff(a) > 0).all()
            want = {b for e in trace if e.op == "read"
                    and int(e.timestamp // 10.0) == t for b in e.block_ids}
            assert a.tolist() == sorted(want)


def test_artifact_bytes_deterministic(tmp_path):
    trace = trace_of([(0.0, "read", 10, 1), (12.0, "read", 55, 1)])
    seq = aggregate(trace, cfg())
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_artifact(seq, p1)
    save_artifact(seq, p2)
    assert p1.read_bytes() == p2.read_bytes()
