"""Text output: each float format, written once, and one writer of rows."""

from collections.abc import Iterator, Sequence

EXACT = "%.17g"   # reads back bit for bit: the sweep CSV and the trace
SHOWN = "%.9g"    # for people to read: the lines ``edgeprice run`` prints
_BATCH = 1 << 14   # rows per ``%`` in ``format_rows``: bounds a batch's text


def format_rows(row: str, columns: Sequence) -> Iterator[str]:
    """The text of ``row % (c[i] for c in columns)`` for each row i of the
    numpy ``columns``, one ``%`` and one block per ``_BATCH`` rows. A cell is
    its column's ``tolist`` item: ``%d`` takes an int, bool or integral float."""
    width, length = len(columns), len(columns[0])
    for start in range(0, length, _BATCH):
        cells = [None] * (min(_BATCH, length - start) * width)
        for j, column in enumerate(columns):
            cells[j::width] = column[start:start + _BATCH].tolist()
        yield row * (len(cells) // width) % tuple(cells)
