"""Chain CSV round trips must be bit-exact, and the bytes are pinned."""

import csv
import io
import warnings

import numpy as np
import pytest

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
    values = np.array([[0.1 + 0.2, -0.0, 1e-310, np.nan],
                       [np.inf, -np.inf, 123456789.0, -2.5e300],
                       [1.0, 3.0, 1.0 / 3.0, -7.0]])
    path = tmp_path / "table.csv"
    write_table(str(path), ["a", "b", "c", "d"], values, comments=["k=1"])
    ref = io.StringIO(newline="")
    ref.write("# k=1\n")
    writer = csv.writer(ref)
    writer.writerow(["a", "b", "c", "d"])
    for row in values.tolist():
        writer.writerow(["%.17g" % v for v in row])
    assert path.read_bytes() == ref.getvalue().encode()
