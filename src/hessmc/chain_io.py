"""Chain and table serialization.

The chain file format is a contract: ``bench/checks.py`` and any other
reader parse it as text, so every byte is fixed.

- Header lines, each ending in ``\n``: ``# method=<name>``, then
  ``# <key>=<int>`` for each of seed, chain_id, n, r, l, start_index and
  partial that the chain's meta holds, in that order. Only a chain flushed
  by a failed run holds ``partial`` (written ``# partial=1``).
- A column line ``k,accepted,log_post,cum_solves,m_1,...,m_n``.
- One row per step: k (1-based), accepted (0/1), log_post, cum_solves,
  then the n entries of the state.

Fields are separated by commas with no quoting or padding, and every line
after the header lines ends in ``\r\n``. Floats are written with ``%.17g``
(``-0``, ``nan``, ``inf``, ``-inf`` as Python prints them), so a read-back
is bit-exact and every diagnostic recomputed from disk matches the
in-memory value.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .samplers import Chain

_META_INT = ("seed", "chain_id", "n", "r", "l", "start_index", "partial")
_COLUMNS = ("k", "accepted", "log_post", "cum_solves")


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_chain(chain: Chain, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    samples = chain.samples
    count, n = samples.shape
    lines = [f"# method={chain.meta.get('method', '')}\n"]
    lines += [f"# {key}={int(chain.meta[key])}\n" for key in _META_INT if key in chain.meta]
    lines.append(",".join([*_COLUMNS, *(f"m_{j + 1}" for j in range(n))]) + "\r\n")
    # a rejected step repeats its state bit for bit, so the state part of a
    # row is formatted once per distinct state; bits, not float equality,
    # keep -0 and 0 apart
    bits = samples.view(np.uint64)
    new_state = np.ones(count, dtype=bool)
    new_state[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    state_fmt = ",%.17g" * n + "\r\n"
    tails = [state_fmt % tuple(m) for m in samples[new_state].tolist()]
    which = (np.cumsum(new_state) - 1).tolist()
    heads = zip(range(1, count + 1), chain.accepted.tolist(), chain.log_post.tolist(),
                chain.cum_solves.tolist())
    lines += ["%d,%d,%.17g,%d" % head + tails[i] for head, i in zip(heads, which)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def read_chain(path: str) -> Chain:
    meta: dict = {}
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            key = key.strip()
            meta[key] = int(value) if key in _META_INT else value
            line = fh.readline()
        n = line.count(",") + 1 - len(_COLUMNS)
        body = fh.tell()
        if fh.readline():
            fh.seek(body)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        else:
            data = np.empty((0, n + len(_COLUMNS)))
    return Chain(samples=np.ascontiguousarray(data[:, len(_COLUMNS):]),
                 accepted=data[:, 1] != 0, log_post=data[:, 2].copy(),
                 cum_solves=data[:, 3].astype(np.int64), meta=meta)


def write_table(path: str, header: list[str], rows, comments: list[str] | None = None) -> None:
    """CSV writer for every non-chain artifact, in the chain files' number
    format: floats as ``%.17g``, lines ending in ``\r\n`` after the
    ``# `` comment lines. A 2D float array body is formatted with one row
    format and written in one call; a list of rows holding ints or strings
    goes through ``csv.writer``. Both give the same bytes for float rows."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
            fh.write("".join([row_fmt % tuple(row) for row in rows.tolist()]))
        else:
            for row in rows:
                writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
