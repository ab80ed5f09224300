"""Chain CSV round trips must be bit-exact, and the bytes are pinned."""

import csv
import decimal
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from hessmc import chain_io
from hessmc.chain_io import read_chain, write_chain, write_table
from hessmc.samplers import Chain


def test_chain_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    # stress the float formatting: subnormals, huge magnitudes, negatives
    samples = rng.standard_normal((12, 4))
    samples[0, 0] = 1e-310
    samples[1, 1] = -1.7976931348623157e308
    samples[2, 2] = 0.1 + 0.2
    samples[3, 3] = -0.0
    chain = Chain(samples=samples,
                  accepted=rng.uniform(size=12) < 0.5,
                  log_post=rng.standard_normal(12) * 1e5,
                  cum_solves=np.cumsum(rng.integers(1, 20, size=12)).astype(np.int64),
                  meta={"method": "snmap", "seed": 3, "chain_id": 7,
                        "n": 4, "r": 20, "l": 5, "start_index": 2})
    path = tmp_path / "chain.csv"
    write_chain(chain, str(path))
    back = read_chain(str(path))

    np.testing.assert_array_equal(back.samples, chain.samples)
    np.testing.assert_array_equal(back.accepted, chain.accepted)
    np.testing.assert_array_equal(back.log_post, chain.log_post)
    np.testing.assert_array_equal(back.cum_solves, chain.cum_solves)
    assert back.samples.dtype == np.float64
    assert back.accepted.dtype == bool
    assert back.cum_solves.dtype == np.int64


def test_chain_meta_types_survive(tmp_path):
    chain = Chain(samples=np.zeros((3, 2)), accepted=np.ones(3, dtype=bool),
                  log_post=np.zeros(3), cum_solves=np.arange(1, 4, dtype=np.int64),
                  meta={"method": "ismap", "seed": 0, "chain_id": 11, "n": 2,
                        "r": 4, "l": 1})
    path = tmp_path / "c.csv"
    write_chain(chain, str(path))
    back = read_chain(str(path))
    assert back.meta["method"] == "ismap"
    for key in ("seed", "chain_id", "n", "r", "l"):
        assert isinstance(back.meta[key], int)
        assert back.meta[key] == chain.meta[key]
    assert back.n_samples == 3
    assert back.acceptance_rate == 1.0


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    chain = Chain(samples=rng.standard_normal((6, 3)),
                  accepted=np.zeros(6, dtype=bool),
                  log_post=rng.standard_normal(6),
                  cum_solves=np.arange(2, 14, 2, dtype=np.int64),
                  meta={"method": "rwmh", "seed": 1, "chain_id": 0, "n": 3})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_chain(chain, str(p1))
    write_chain(read_chain(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_write_chain_pinned_bytes(tmp_path):
    # rows 2 and 3 repeat one state (a rejected step); rows 3 and 4 differ
    # only in the sign of a zero and must not be merged
    samples = np.array([[1.5, -0.0, np.nan],
                        [np.inf, -np.inf, 1e-310],
                        [np.inf, -np.inf, 1e-310],
                        [np.inf, 0.0, 1e-310]])
    chain = Chain(samples=samples,
                  accepted=np.array([True, True, False, False]),
                  log_post=np.array([-0.5, 0.1 + 0.2, 0.1 + 0.2, -0.0]),
                  cum_solves=np.array([3, 5, 7, 9], dtype=np.int64),
                  meta={"method": "sn", "seed": 4, "chain_id": 2, "n": 3,
                        "r": 6, "l": 2, "start_index": 1, "wall_time": 0.25})
    path = tmp_path / "chain.csv"
    write_chain(chain, str(path))
    assert path.read_bytes() == (
        b"# method=sn\n# seed=4\n# chain_id=2\n# n=3\n# r=6\n# l=2\n# start_index=1\n"
        b"k,accepted,log_post,cum_solves,m_1,m_2,m_3\r\n"
        b"1,1,-0.5,3,1.5,-0,nan\r\n"
        b"2,1,0.30000000000000004,5,inf,-inf,9.9999999999999694e-311\r\n"
        b"3,0,0.30000000000000004,7,inf,-inf,9.9999999999999694e-311\r\n"
        b"4,0,-0,9,inf,0,9.9999999999999694e-311\r\n")
    back = read_chain(str(path))
    assert back.samples.tobytes() == samples.tobytes()


def row_at_a_time(chain):
    """The chain file's bytes, formatting every row in full."""
    n = chain.samples.shape[1]
    text = f"# method={chain.meta['method']}\n"
    text += "".join(f"# {key}={chain.meta[key]}\n" for key in ("seed", "chain_id", "n")
                    if key in chain.meta)
    text += ",".join(["k", "accepted", "log_post", "cum_solves",
                      *(f"m_{j + 1}" for j in range(n))]) + "\r\n"
    for k in range(chain.samples.shape[0]):
        text += "%d,%d,%.17g,%d" % (k + 1, chain.accepted[k], chain.log_post[k],
                                    chain.cum_solves[k])
        text += "".join(",%.17g" % v for v in chain.samples[k]) + "\r\n"
    return text.encode()


@pytest.mark.parametrize("block_rows", [None, 4])
def test_blocked_write_matches_row_at_a_time(tmp_path, monkeypatch, block_rows):
    # None keeps the module's block size; 4 rows makes many short blocks
    n = 3
    if block_rows is not None:
        monkeypatch.setattr(chain_io, "WRITE_BLOCK_VALUES", block_rows * n)
    step = chain_io.WRITE_BLOCK_VALUES // n
    count = 3 * step + step // 2 + 1
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((count, n))
    # a run of rejected steps across the first block boundary
    samples[step - 2:step + 3] = samples[step - 3]
    # rows that differ only in the sign of a zero, across the second
    samples[2 * step - 1:2 * step + 1] = [0.5, 0.0, 1.0]
    samples[2 * step, 1] = -0.0
    # across the third: negative rows that mix entries inside and outside
    # the fixed-notation band, one state repeated over the boundary
    samples[3 * step - 2:3 * step + 2] = -np.abs(samples[3 * step - 2:3 * step + 2])
    samples[3 * step - 1:3 * step + 1] = [-1e-7, -123.25, -3e20]
    samples[3 * step + 1] = [np.nan, -9.5e14, 5e-324]
    log_post = rng.standard_normal(count)
    log_post[3 * step - 1:3 * step + 2] = [-0.0, -1e300, 2.5e-5]
    chain = Chain(samples=samples, accepted=rng.uniform(size=count) < 0.5,
                  log_post=log_post,
                  cum_solves=np.arange(count, dtype=np.int64) * 2,
                  meta={"method": "snmap", "seed": 1, "chain_id": 4, "n": n})
    path = tmp_path / "chain.csv"
    write_chain(chain, str(path))
    assert path.read_bytes() == row_at_a_time(chain)


def test_write_chain_memory_is_bounded(tmp_path):
    # formatting every row before one write held about 53 MB for this chain
    rng = np.random.default_rng(6)
    count, n = 5000, 139
    samples = rng.standard_normal((count, n))
    samples[1::2] = samples[::2]
    chain = Chain(samples=samples, accepted=np.zeros(count, dtype=bool),
                  log_post=rng.standard_normal(count),
                  cum_solves=np.arange(count, dtype=np.int64),
                  meta={"method": "sn", "n": n})
    path = tmp_path / "chain.csv"
    tracemalloc.start()
    try:
        write_chain(chain, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_read_chain_memory_is_bounded(tmp_path):
    # the body array and the samples copied out of it, plus one block's text
    # and long doubles, at any length
    rng = np.random.default_rng(7)
    count, n = 5000, 139
    chain = Chain(samples=rng.standard_normal((count, n)), accepted=np.zeros(count, dtype=bool),
                  log_post=rng.standard_normal(count), cum_solves=np.arange(count, dtype=np.int64),
                  meta={"method": "sn", "n": n})
    path = tmp_path / "chain.csv"
    write_chain(chain, str(path))
    tracemalloc.start()
    try:
        read_chain(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * count * (n + 4) * 8 + 1e6


@pytest.mark.parametrize("count", [0, 1])
def test_short_chain_round_trip(tmp_path, count):
    n = 5
    chain = Chain(samples=np.random.default_rng(2).standard_normal((count, n)),
                  accepted=np.ones(count, dtype=bool), log_post=np.full(count, -1.25),
                  cum_solves=np.arange(1, count + 1, dtype=np.int64),
                  meta={"method": "snmap", "seed": 0, "chain_id": 0, "n": n})
    path = tmp_path / "short.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_chain(chain, str(path))
        back = read_chain(str(path))
    assert back.samples.shape == (count, n)
    for name in ("samples", "accepted", "log_post", "cum_solves"):
        got, want = getattr(back, name), getattr(chain, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        np.testing.assert_array_equal(got, want)


def test_write_table_comments_and_formatting(tmp_path):
    path = tmp_path / "out" / "table.csv"
    write_table(str(path), ["name", "value"],
                [["alpha", 0.1 + 0.2], ["beta", 3]],
                comments=["probe_x=0.69", "units: none"])
    text = path.read_text().splitlines()
    assert text[0] == "# probe_x=0.69"
    assert text[1] == "# units: none"
    assert text[2] == "name,value"
    assert text[3] == "alpha,0.30000000000000004"  # %.17g, not str()
    assert text[4] == "beta,3"


def test_write_table_array_body_matches_csv_writer(tmp_path):
    special = np.array([[0.1 + 0.2, -0.0, 1e-310, np.nan],
                        [np.inf, -np.inf, 123456789.0, -2.5e300],
                        [1.0, 3.0, 1.0 / 3.0, -7.0]])
    # repeated values, +0 beside -0 and two NaN payloads (one negative), in
    # the transposed view a caller may pass
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
    repeats = np.array([[0.0, -0.0, 0.25, 0.25],
                        [*nans.view(np.float64), 0.0, -0.0],
                        [0.25, 0.1 + 0.2, 0.1 + 0.2, nans.view(np.float64)[0]]]).T
    # more values than a block of chain rows, with repeats and out-of-band
    # entries among them
    rng = np.random.default_rng(3)
    big = rng.standard_normal((2 * chain_io.WRITE_BLOCK_VALUES // 5 + 7, 5))
    big *= np.exp(rng.uniform(-30, 30, big.shape))
    big[:, 4] = big[:, 0]
    big[::7, 2] = 0.5
    for values in (special, repeats, big):
        header = ["a", "b", "c", "d"][:values.shape[1]]
        path = tmp_path / "table.csv"
        write_table(str(path), header, values, comments=["k=1"])
        ref = io.StringIO(newline="")
        ref.write("# k=1\n")
        writer = csv.writer(ref)
        writer.writerow(header)
        for row in values.tolist():
            writer.writerow(["%.17g" % v for v in row])
        assert path.read_bytes() == ref.getvalue().encode()


def power_of_ten_neighbours() -> np.ndarray:
    """The 40 doubles on each side of 1e-4, of 1e15 and of each 10^k for
    k = -5..15, and those powers themselves."""
    edges = np.array([1e-4, 1e15, *(float(f"1e{k}") for k in range(-5, 16))])
    neighbours = [edges]
    for toward in (0.0, np.inf):
        x = edges
        for _ in range(40):
            x = np.nextafter(x, toward)
            neighbours.append(x)
    return np.concatenate(neighbours)


def percent_17g_cases() -> np.ndarray:
    """Over a million doubles: random ones over scales of e^+-40, k 2^-j
    (exact 17-digit ties among them), values rounded to 0-15 decimals, the
    neighbours of the powers of ten near the band's edges, and the special
    values, each with both signs."""
    rng = np.random.default_rng(17)
    scaled = rng.standard_normal(400_000) * np.exp(rng.uniform(-40, 40, 400_000))
    dyadic = (rng.integers(1, 1 << 53, 300_000, dtype=np.int64).astype(np.float64)
              * 2.0 ** -rng.integers(0, 61, 300_000))
    ties = np.arange(26_215, 1 << 18) / 2.0 ** 18          # k / 2^18 in [0.1, 1)
    rounded = np.array([round(x, int(d)) for x, d in zip(
        (rng.standard_normal(100_000) * 10.0 ** rng.integers(-4, 15, 100_000)).tolist(),
        rng.integers(0, 16, 100_000))])
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
    special = np.array([0.0, *nans.view(np.float64), np.inf, 5e-324,
                        2.2250738585072009e-308, 1e-310, np.finfo(float).max])
    values = np.concatenate([scaled, dyadic, ties, rounded, power_of_ten_neighbours(),
                             special])
    return np.concatenate([values, -values])


def assert_cells_match_percent_17g(values):
    for lo in range(0, values.size, 1 << 16):
        chunk = values[lo:lo + (1 << 16)]
        got = chain_io._text(chain_io._cells(chunk)).decode().split(",")[1:]
        assert got == ["%.17g" % v for v in chunk.tolist()]


def test_cells_are_bit_for_bit_percent_17g():
    values = percent_17g_cases()
    assert values.size >= 1_000_000
    assert_cells_match_percent_17g(values)


@pytest.mark.parametrize("error", [-1e-12, 1e-12])
def test_cells_are_bit_for_bit_when_log10_misses_the_exponent(monkeypatch, error):
    # the exponent estimate comes from np.log10; one that lands on the
    # wrong side of a power of ten must be corrected from the digits alone
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + error)
    values = power_of_ten_neighbours()
    assert_cells_match_percent_17g(np.concatenate([values, -values]))


@pytest.mark.parametrize("size", [0, 1, 30, chain_io.PYTHON_CELLS_BELOW - 1,
                                  chain_io.PYTHON_CELLS_BELOW, chain_io.PYTHON_CELLS_BELOW + 1,
                                  1000])
def test_cells_are_bit_for_bit_on_both_sides_of_the_python_cut(size):
    # small arrays are formatted by Python, larger ones in numpy; each
    # draw mixes values in the band with special and out-of-band ones
    values = np.random.default_rng(size).choice(percent_17g_cases(), size)
    assert_cells_match_percent_17g(values)
    assert chain_io._cells(values).shape == (size, chain_io.CELL_BYTES)


def decimal_fields() -> list[str]:
    """Over a million decimal fields: %.17g of random bit patterns
    (subnormals, +-0, +-inf and nan among them), short decimals of 1-16
    digits, random decimals of 20-60 digits, the exact midpoints between
    adjacent doubles with the 25-digit decimals on either side of them, and
    the overflow and underflow edges."""
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 1 << 64, 400_000, dtype=np.uint64).view(np.float64)
    fields = ["%.17g" % v for v in bits.tolist()]
    fields += ["%.*g" % (p, v) for p, v in zip(
        rng.integers(1, 17, 400_000).tolist(),
        (rng.standard_normal(400_000) * 10.0 ** rng.integers(-300, 300, 400_000)).tolist())]
    digits = rng.integers(0, 10, (150_000, 60)).astype(np.uint8) + ord("0")
    for row, size, exp in zip(digits, rng.integers(20, 61, 150_000).tolist(),
                              rng.integers(-340, 320, 150_000).tolist()):
        text = row[:size].tobytes().decode()
        fields.append(f"{text[0]}.{text[1:]}e{exp}")
    # midpoints: random doubles over the whole range, subnormals, and the
    # doubles next to the smallest normal and the largest finite double
    tiny, top = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    below = np.concatenate([
        np.abs(rng.standard_normal(16_000) * 10.0 ** rng.integers(-30, 30, 16_000)),
        np.abs(rng.integers(1, 1 << 64, 5_000, dtype=np.uint64).view(np.float64)),
        rng.integers(1, 1 << 52, 4_000).astype(np.uint64).view(np.float64),
        np.nextafter(tiny, 0.0) - np.arange(10) * 5e-324, tiny + np.arange(10) * 5e-324,
        top - np.arange(1, 11) * np.spacing(np.nextafter(top, 0.0))])
    below = below[np.isfinite(below) & (below < top)]
    with decimal.localcontext(decimal.Context(prec=1200)):
        for a, b in zip(below.tolist(), np.nextafter(below, np.inf).tolist()):
            mid = (decimal.Decimal(a) + decimal.Decimal(b)) / 2
            fields += [str(mid), str(-mid)]
            for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
                fields.append(str(decimal.Context(prec=25, rounding=rounding).plus(mid)))
        edge = decimal.Decimal(2) ** 1024 - decimal.Decimal(2) ** 970     # max + half an ulp
        half = decimal.Decimal(2) ** -1075                                # half the least subnormal
        for x in (edge, half):
            for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
                fields.append(str(decimal.Context(prec=25, rounding=rounding).plus(x)))
            fields += [str(x), str(-x)]
    fields += ["1e400", "-1e400", "1e5000", "1e-400", "-1e-400", "1e-5000",
               "1.7976931348623157e308", "1.7976931348623159e308", "2.2250738585072014e-308",
               "2.2250738585072011e-308", "4.9406564584124654e-324", "2.4703282292062328e-324",
               "0", "-0", "nan", "-nan", "inf", "-inf", "infinity", "+1.5", ".5", "5.", "1E5"]
    return fields


def read_fields(path, fields: list[str], columns: int = 1000) -> np.ndarray:
    """``fields`` written as a table of ``columns`` columns (the last row
    padded with 0) and read back by ``read_table``, in field order."""
    rows = -(-len(fields) // columns)
    cells = fields + ["0"] * (rows * columns - len(fields))
    lines = [",".join(cells[k:k + columns]) for k in range(0, len(cells), columns)]
    path.write_text(",".join(f"c{j}" for j in range(columns)) + "\r\n"
                    + "\r\n".join(lines) + "\r\n", newline="")
    return chain_io.read_table(str(path)).ravel()[:len(fields)]


def test_read_is_bit_for_bit_float_of_every_field(tmp_path, monkeypatch):
    fields = decimal_fields()
    assert len(fields) >= 1_000_000
    want = np.array([float(f) for f in fields]).view(np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_fields(tmp_path / "fields.csv", fields).view(np.uint64)
    assert (got == want).all(), [fields[i] for i in np.flatnonzero(got != want)[:10]]
    if chain_io._GUARD_BITS:
        # without the guard, rounding the long double to a double misses
        # float() on some of these fields: the test reaches the guard
        monkeypatch.setattr(chain_io, "_GUARD_BITS", 0)
        unguarded = read_fields(tmp_path / "fields.csv", fields).view(np.uint64)
        assert (unguarded != want).any()


def test_read_refuses_malformed_bodies_and_reads_lf_and_unterminated_ones(tmp_path):
    rng = np.random.default_rng(9)
    chain = Chain(samples=rng.standard_normal((6, 3)), accepted=np.ones(6, dtype=bool),
                  log_post=rng.standard_normal(6), cum_solves=np.arange(1, 7, dtype=np.int64),
                  meta={"method": "ismap", "n": 3})
    path = tmp_path / "chain.csv"
    write_chain(chain, str(path))
    text = path.read_bytes()
    head, body = text[:text.index(b"k,")], text[text.index(b"k,"):]
    rows = body.split(b"\r\n")

    def with_row(k, row):
        return head + b"\r\n".join(rows[:k] + [row] + rows[k + 1:])

    def with_field(k, j, field):
        fields = rows[k].split(b",")
        return with_row(k, b",".join(fields[:j] + [field] + fields[j + 1:]))

    def read(data):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return read_chain(str(bad))

    last_emptied = rows[6][:rows[6].rindex(b",") + 1]
    for data in (with_row(3, rows[3][:rows[3].rindex(b",")]), with_row(3, rows[3] + b",1"),
                 with_row(2, b""), text + b"\r\n",
                 with_field(3, 5, b""), with_field(3, 6, b""),
                 head + b"\r\n".join(rows[:6] + [last_emptied]),    # and no line end
                 *(with_field(3, 5, f) for f in (b"abc", b" ", b"0x1p3", b"nan(1)", b"1_0"))):
        with pytest.raises(ValueError, match="bad.csv"):
            read(data)
    # LF line ends, and no line end after the last row, read as CRLF does
    for data in (text.replace(b"\r\n", b"\n"), text[:-2], text.replace(b"\r\n", b"\n")[:-1]):
        back = read(data)
        for name in ("samples", "accepted", "log_post", "cum_solves"):
            np.testing.assert_array_equal(getattr(back, name), getattr(chain, name))
    # a field beyond the double range reads as inf, without an overflow warning
    back = read(with_field(3, 6, b"1e400"))
    assert back.samples[2, 2] == np.inf
    np.testing.assert_array_equal(back.samples[:2], chain.samples[:2])


def test_guard_bits_follow_the_long_double_format(tmp_path, monkeypatch):
    assert chain_io._guard_bits(63) == 11       # x87 extended
    assert chain_io._guard_bits(112) == 60      # IEEE binary128
    assert chain_io._guard_bits(52) == 0        # long double is double
    assert chain_io._guard_bits(105) is None    # IBM double-double
    assert chain_io._guard_bits(106) is None
    assert chain_io._GUARD_BITS == chain_io._guard_bits(np.finfo(np.longdouble).nmant)
    path = tmp_path / "chain.csv"
    write_chain(Chain(samples=np.ones((2, 2)), accepted=np.ones(2, dtype=bool),
                      log_post=np.zeros(2), cum_solves=np.arange(1, 3, dtype=np.int64),
                      meta={"method": "sn", "n": 2}), str(path))
    monkeypatch.setattr(chain_io, "_GUARD_BITS", None)
    monkeypatch.setattr(chain_io, "_NMANT", 105)
    with pytest.raises(NotImplementedError, match="105 fraction bits"):
        read_chain(str(path))
