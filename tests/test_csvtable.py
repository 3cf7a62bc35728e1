"""The vectorised %.17g table writer against Python's own formatting."""

import math
import sys
import tracemalloc
from decimal import Decimal
from io import BytesIO

import numpy as np
import pytest

from sobfrac.csvtable import _BLOCK_VALUES, write_table
from sobfrac.fracops import TimeGrid
from sobfrac.spectral import collocation_grid


def table_lines(times, labels, values) -> list:
    """Rows "t,label,value" of a (time x label) table, time-major.

    The `%` oracle: each time row is one multi-line string, a cell
    template joined behind the row's head and filled by one `%` call.
    """
    cells = [f"{label.replace('%', '%%')},%.17g" for label in labels]
    lines = []
    for t, row in zip(times, values.tolist()):
        head = f"{t.replace('%', '%%')},"
        lines.append((head + ("\n" + head).join(cells)) % tuple(row))
    return lines


def written(heads, labels, values) -> bytes:
    out = BytesIO()
    write_table(out, heads, labels, values)
    return out.getvalue()


def is_17_digit_tie(x: float) -> bool:
    """The exact decimal value of x has 18 significant digits, the last a 5."""
    digits = Decimal(x).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def hard_doubles() -> np.ndarray:
    rng = np.random.default_rng(20261018)
    powers = [float(f"1e{e}") for e in range(-45, 41)]
    parts = [
        rng.standard_normal(120_000) * 10.0 ** rng.uniform(-40, 40, 120_000),
        [y for p in powers
         for y in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf))],
        # k / 2^j is an exact 17-digit tie when k 5^j has 18 digits, the last a 5
        [k / 2.0 ** j for j in range(64)
         for k in rng.integers(-10 ** 6 + 1, 10 ** 6, 600).tolist()],
        # near 1.8e14 the multiples of 1/8 with 15 integer digits are ties
        1.8e14 + rng.integers(-4000, 4000, 20_000) / 8.0,
        rng.uniform(-1.0, 1.0, 20_000),
        np.round(rng.uniform(-1e6, 1e6, 5_000)),
        [5e-324, sys.float_info.max, 0.0, -0.0, math.nan, math.inf, -math.inf,
         1e16, 1e17, 99999999999999999.0, 123456789012345678.0, 1200.0, 0.0001],
    ]
    values = np.concatenate([np.asarray(p, dtype=float) for p in parts])
    return np.concatenate([values, -values])


class TestAgainstPercentOracle:
    def test_hard_doubles_byte_identical(self):
        values = hard_doubles()
        assert values.size >= 200_000
        assert sum(map(is_17_digit_tie, values[np.isfinite(values)].tolist())) >= 1_000
        table = values[: values.size // 200 * 200].reshape(-1, 200)
        heads = [str(i) for i in range(len(table))]
        labels = [f"c{j}" for j in range(200)]
        want = "".join(line + "\n" for line in table_lines(heads, labels, table))
        assert written(heads, labels, table) == want.encode()
        rest = values[table.size:, None]
        assert written(["r"] * len(rest), ["x"], rest) == "".join(
            line + "\n" for line in table_lines(["r"] * len(rest), ["x"], rest)).encode()

    def test_strided_blocks(self):
        # the CLI's trajectory values are a strided view of a stacked product
        values = np.arange(-6.0, 6.0).reshape(3, 4) * 0.1
        for block in (values[:, ::2], values.T):
            heads = [str(i) for i in range(block.shape[0])]
            labels = [str(j) for j in range(block.shape[1])]
            want = "".join(line + "\n" for line in table_lines(heads, labels, block))
            assert written(heads, labels, block) == want.encode()


def oracle(heads, labels, values) -> bytes:
    return "".join(line + "\n" for line in table_lines(heads, labels, values)).encode()


def mixed_values(rows: int, cols: int, seed: int) -> np.ndarray:
    """Values of every magnitude and sign, zeros, ties and non-finite
    ones, so that every block meets the kernel's slots and its fallback."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(rows * cols) * 10.0 ** rng.integers(-50, 50, rows * cols)
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.5, 1.8e14 + 0.125,
               0.1, 1e-5, 123456789012345678.0, 1200.0]
    at = rng.choice(values.size, min(values.size, 3 * len(special)), replace=False)
    values[at] = np.resize(special, at.size)
    return values.reshape(rows, cols)


class TestBlocks:
    """Tables around the block boundaries: blocks are whole rows, at most
    _BLOCK_VALUES values each, laid out in one reused line matrix and
    scratch per call."""

    @pytest.mark.parametrize("cols", (16, 64))
    def test_rows_around_one_block(self, cols):
        per_block = _BLOCK_VALUES // cols
        for rows in (1, per_block - 1, per_block, per_block + 1):
            values = mixed_values(rows, cols, seed=rows)
            heads = [f"{0.001 * i:.17g}" for i in range(rows)]
            labels = [f"x{j}" for j in range(cols)]
            assert written(heads, labels, values) == oracle(heads, labels, values), rows

    def test_row_wider_than_a_block(self):
        values = mixed_values(3, _BLOCK_VALUES + 77, seed=1)
        heads = ["0", "0.5", "1"]
        labels = [str(j) for j in range(values.shape[1])]
        assert written(heads, labels, values) == oracle(heads, labels, values)

    def test_strided_view_across_blocks(self):
        base = mixed_values(2 * (_BLOCK_VALUES // 16) + 3, 40, seed=2)
        values = base[::2, 1::3][:, ::-1]
        assert not values.flags.c_contiguous
        heads = [str(i) for i in range(values.shape[0])]
        labels = [f"c{j}" for j in range(values.shape[1])]
        assert written(heads, labels, values) == oracle(heads, labels, values)

    def test_tables_back_to_back_share_no_state(self):
        # the same shape with other heads and labels, then another width
        tables = [([f"{i / 7:.17g}" for i in range(150)],
                   [f"{j / 3:.17g}" for j in range(64)], mixed_values(150, 64, seed=3)),
                  ([f"{i / 9:.17g}" for i in range(150)],
                   [f"{j / 11:.17g}" for j in range(64)], mixed_values(150, 64, seed=6)),
                  ([str(i) for i in range(400)], list("abcde"), mixed_values(400, 5, seed=4))]
        out = BytesIO()
        for table in tables + tables[::-1]:
            write_table(out, *table)
        assert out.getvalue() == b"".join(oracle(*t) for t in tables + tables[::-1])


class TestEmptyTables:
    def test_no_rows_or_no_columns_write_nothing(self):
        assert written([], ["a", "b"], np.empty((0, 2))) == b""
        assert written(["0", "1"], [], np.empty((2, 0))) == b""
        assert written([], [], np.empty((0, 0))) == b""

    def test_empty_table_between_tables(self):
        table = (["0", "0.5"], ["x"], np.array([[1.0], [-2.5]]))
        out = BytesIO()
        write_table(out, *table)
        write_table(out, [], ["x"], np.empty((0, 1)))
        write_table(out, *table)
        assert out.getvalue() == 2 * oracle(*table)


class _CountingSink:
    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += memoryview(data).nbytes


def traced_peak(heads, labels, values) -> tuple:
    """(bytes written, tracemalloc peak) of a second write_table call."""
    write_table(_CountingSink(), heads, labels, values)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_table(sink, heads, labels, values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return sink.size, peak


def test_peak_memory_of_the_readme_modes_table_below_1_mb():
    # the README solve's modes.csv: 513 times x 16 modes
    ts = [f"{t:.17g}" for t in TimeGrid(1.0, 512).nodes().tolist()]
    values = mixed_values(513, 16, seed=5)
    size, peak = traced_peak(ts, [str(n) for n in range(1, 17)], values)
    assert size > 250_000
    assert peak < 1_000_000


def test_peak_memory_of_the_readme_trajectory_table_below_1_mb():
    # the README solve's table: 513 times x 64 collocation points, written
    # in row blocks, so no copy of the whole text is ever held
    ts = [f"{t:.17g}" for t in TimeGrid(1.0, 512).nodes().tolist()]
    xs = [f"{x:.17g}" for x in collocation_grid(64).tolist()]
    values = np.random.default_rng(0).uniform(-1.0, 1.0, (513, 64))
    write_table(_CountingSink(), ts, xs, values)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_table(sink, ts, xs, values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sink.size > 1_650_000
    assert peak < 1_000_000
