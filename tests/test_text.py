"""``text.format_rows`` writes what ``%`` writes, byte for byte: the bulk
numpy path on its domain, and ``%`` itself on every other batch."""

import math
import random
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from edgeprice import ScenarioConfig, format_trace, run_bargaining, sample_scenario
from edgeprice import text
from edgeprice.text import format_rows


def percent(row: str, columns) -> str:
    """The reference: ``row % cells`` for each row, one ``%`` per row."""
    rows = zip(*(c.tolist() for c in columns))
    return "".join(row % cells for cells in rows)


@contextmanager
def bulk_only():
    """A batch that leaves the bulk path fails, inside the block."""
    def refuse(row, columns):
        raise AssertionError(f"a batch of {row!r} went through %")
    saved, text._percent = text._percent, refuse
    try:
        yield
    finally:
        text._percent = saved


def domain_patterns(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """n random float64 bit patterns, either sign, in the binades strictly
    between those of 10**(p - 28) and 10**p: magnitudes the bulk path takes
    with 0 <= q <= 27 whatever their digits round to."""
    def binade(x: float) -> int:
        return int(np.float64(x).view(np.uint64) >> np.uint64(52))
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(binade(10.0 ** (p - 28)) + 1, binade(10.0**p), n,
                            dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    return (sign | exponent | mantissa).view(np.float64)


def compare_patterns(seed: int, n: int, precisions=(17, 9)) -> None:
    """format_rows == % on n random in-domain patterns per precision, with
    no batch leaving the bulk path, and on n / 4 patterns of any 64 bits,
    most of them outside it."""
    rng = np.random.default_rng(seed)
    for p in precisions:
        row = f"%.{p}g\n"
        values = domain_patterns(rng, n, p)
        with bulk_only():
            got = "".join(format_rows(row, [values]))
        assert got == row * n % tuple(values.tolist()), (seed, p)
        bits = rng.integers(0, 2**64, n // 4, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert "".join(format_rows(row, [values])) == \
            row * len(values) % tuple(values.tolist()), (seed, p)


@pytest.fixture
def small_batches(monkeypatch):
    monkeypatch.setattr(text, "_BATCH", 4099)   # rows cross batches


def test_a_million_patterns_at_17_and_9_digits(small_batches):
    compare_patterns(seed=26, n=10**6)


@pytest.mark.parametrize("p", range(1, 18))
def test_every_precision_on_random_patterns(small_batches, p):
    values = domain_patterns(np.random.default_rng(p), 20_000, p)
    row = f"x=%.{p}g;\n"
    with bulk_only():
        assert "".join(format_rows(row, [values])) == percent(row, [values])


def halfway_ties(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    """Floats x with x * 10**q exactly an odd multiple of 1/2 at p digits:
    x = m * 2**(-1 - q) with m odd, so x * 10**q = m * 5**q / 2. From q = 1:
    a tie at q = 0 that carries to 10**p is written d e+XX, which ``%``
    writes."""
    out = []
    for q in range(1, 26):
        lo, hi = -(-2 * 10 ** (p - 1) // 5**q), 2 * 10**p // 5**q
        hi = min(hi, 1 << 53)
        for m in rng.integers(lo, hi, n).tolist() if lo < hi else ():
            m |= 1
            if lo <= m < hi:
                out.append(math.ldexp(m, -1 - q))
    return np.array(out)


@pytest.mark.parametrize("p", [17, 9, 1, 2, 16])
def test_exact_halfway_ties_round_to_even(p):
    ties = halfway_ties(np.random.default_rng(p), p, 200)
    assert len(ties) >= 200
    ties = np.concatenate([ties, -ties])
    row = f"%.{p}g\n"
    with bulk_only():
        assert "".join(format_rows(row, [ties])) == percent(row, [ties])


def test_powers_of_ten_one_ulp_either_side_and_the_domain_edges():
    # powers of ten and their neighbours at every precision; for each
    # precision, the q = 0 edge (10**(p-1) to 10**p) and the q = 27 edge
    # (10**(p-28)), on both sides: outside it the batch goes through %
    powers = np.array([10.0**k for k in range(-30, 31)])
    edges = np.concatenate([powers, np.nextafter(powers, 0),
                            np.nextafter(powers, np.inf)])
    for p in range(1, 18):
        row = f"%.{p}g|%.17g\n"
        cells = [edges, -edges[::-1]]
        assert "".join(format_rows(row, cells)) == percent(row, cells)
        for x in (10.0 ** (p - 1), 10.0**p, 10.0 ** (p - 28), 10.0 ** (p - 27)):
            around = np.array([np.nextafter(x, 0), x, np.nextafter(x, np.inf)])
            assert "".join(format_rows(row, [around, around])) == \
                percent(row, [around, around])


def test_zeros_infinities_nan_and_subnormals():
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                         5e-324, -5e-324, 2.0**-1050, 2.0**-1022,
                         np.nextafter(2.0**-1022, 0), 1e300, 1.5, -2.5])
    for row in ("%.17g\n", "%.9g\n", "%.1g %.3g\n"):
        columns = [specials] * row.count("%")
        assert "".join(format_rows(row, columns)) == percent(row, columns)
    # in the domain, the words and signs come from the bulk path
    words = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.5])
    with bulk_only():
        assert "".join(format_rows("%.17g,", [words])) == \
            "0,-0,inf,-inf,nan,nan,1.5,"


def test_integers_bools_and_floats_in_d_cells():
    rng = np.random.default_rng(5)
    extremes = np.array([-2**63, -2**63 + 1, -10**18, -1, 0, 1, 9, 10, 99,
                         10**18, 2**63 - 1], dtype=np.int64)
    ints = np.concatenate([extremes, rng.integers(-2**63, 2**63 - 1, 50_000,
                                                  dtype=np.int64)])
    columns = [
        ints,
        rng.integers(0, 2**64 - 1, len(ints), dtype=np.uint64, endpoint=True),
        rng.integers(0, 2, len(ints)).astype(bool),
        np.resize(np.array([0.0, -0.0, -0.5, 0.5, 3.7, -3.7, 2.0**62,
                            -2.0**63, 2.0**64 - 2048, 1e15]), len(ints)),
        rng.integers(-99, 99, len(ints)).astype(np.int8),
        rng.integers(-2**31, 2**31 - 1, len(ints)).astype(np.int32),
        np.arange(len(ints), dtype=np.float32),
    ]
    row = "%d|%d|%d|%d|%d|%d|%d\n"
    with bulk_only():
        assert "".join(format_rows(row, columns)) == percent(row, columns)


def test_outside_the_domain_percent_writes_or_refuses():
    # a %d cell that is nan or too large, a %s, %%, a non-ASCII literal and
    # a cell of another kind all go through %, which writes or raises as
    # it always did
    big = np.array([1.0, 2.0**64, 1e300])
    assert "".join(format_rows("%d\n", [big])) == percent("%d\n", [big])
    with pytest.raises(ValueError, match="NaN"):
        list(format_rows("%d\n", [np.array([1.0, math.nan])]))
    index = np.arange(3)
    for row in ("%s,%d\n", "%d%%\n", "µ%d\n", "%5d\n", "%.9e\n", "%.0g\n",
                "%.18g\n"):
        cells = [index] * row.count("%") if "%%" not in row else [index]
        assert "".join(format_rows(row, cells)) == percent(row, cells)
    objects = np.array([1, 2], dtype=object)
    assert "".join(format_rows("%d\n", [objects])) == "1\n2\n"


def test_a_mixed_row_over_batches(small_batches):
    rng = np.random.default_rng(9)
    n = 10_000
    columns = [np.arange(n), domain_patterns(rng, n, 9),
               domain_patterns(rng, n, 17), rng.integers(0, 2, n) == 1]
    row = "user %d: x=%.9g y=%.17g flag=%d\n"
    with bulk_only():
        blocks = list(format_rows(row, columns))
    assert len(blocks) == -(-n // text._BATCH)
    assert "".join(blocks) == percent(row, columns)


def test_period_sized_traces_stay_on_the_bulk_path():
    # the report lines of a shared-price period at K 10^3 - 10^4 are all
    # written in bulk
    rng = random.Random(26)
    for k in (1000, 3162):
        trace = run_bargaining(sample_scenario(ScenarioConfig(
            num_users=k, seed=rng.randrange(2**32), capacity_cycles=2e8 * k)))
        with bulk_only():
            written = format_trace(trace)
        assert written.count("\n") == len(trace.rounds) * (1 + k) + 1


if __name__ == "__main__":   # python tests/test_text.py <seed> <n>
    seed, n = int(sys.argv[1]), int(sys.argv[2])
    compare_patterns(seed, n)
    print(f"format_rows == % on {n} patterns at 17 and 9 digits, seed {seed}")
