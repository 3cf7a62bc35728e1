"""The vectorised %.17g table writer against Python's own formatting."""

import math
import sys
import tracemalloc
from decimal import Decimal
from io import BytesIO

import numpy as np

from sobfrac.csvtable import write_table
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


class _CountingSink:
    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += memoryview(data).nbytes


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
