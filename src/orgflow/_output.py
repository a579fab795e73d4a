"""How orgflow writes its output: each file is created new, a printed
number switches to exponent notation at a stated magnitude, and the
simulation's CSV files format each distinct number of a block once.

Every CSV writer (`transport.write_trajectory_csv`, `write_snapshot_csv`,
`costs.write_cost_csv`, `optimize.write_ga_csv`) opens its path through
`new_csv`; the stdout tables of `orgflow steady` and `cost`
(`costs.format_cost_table` among them), `costs.format_plan_table`'s
total and the cells of `write_cost_csv` and `write_ga_csv` format their
numbers through `fixed`, so each rule is decided here only.

`write_trajectory_csv` and `write_snapshot_csv` produce their text
through `write_rows`, block by block of `CSV_BLOCK` time steps or nodes.
A settled run repeats its doubles, so in each column of a block
`write_rows` formats each distinct 64-bit pattern once and gathers the
strings back per cell. Keying on the bit pattern, not on float
equality, keeps -0.0 apart from 0.0 (they print "-0" and "0"), so every
cell's text is what formatting it alone gives.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np


@contextlib.contextmanager
def new_csv(path: str, header_lines: Sequence[str] = ()) -> Iterator[TextIO]:
    """Create path as a new, empty text file for csv (newline=""), write
    each header line as "# {line}\\n", and yield the open file.

    Any file already at path is removed first (os.unlink; only
    FileNotFoundError is ignored), and the file is then created with
    open(path, "x"), never opened with "w"; a file that another process
    puts at path in between raises FileExistsError. The reason is the
    cost of truncation: on ext4, opening a file that still holds data
    with O_TRUNC stalls. On a 2-vCPU VM with an ext4 root (mounted
    rw,relatime,discard), rewriting the 1.6 MB trajectory of the
    benchmark's simulate-fine scenario spent 129 ms in open's truncate
    against 0.3 ms in write, a 10 KB file still 62 ms, while unlink then
    create cost what writing a new name costs (23.6 ms, the formatting).
    A temporary file moved into place with os.replace stalls as the
    truncate does (171 ms), so it is no alternative. On tmpfs every form
    took the same time.

    What this decides:
    - A symlink or hard link at path is replaced by a regular file, not
      written through; the file it points to, or shares its data with,
      keeps its bytes.
    - A read-only file in a writable directory is replaced.
    - A directory at path raises OSError, and stays as it was.
    - The new file has the mode and owner of any new file, not those of
      the file it replaces.
    - Nothing is fsync'ed, as before. ext4's replace-via-truncate
      heuristic (auto_da_alloc) started writeback early for the
      truncated file; a new file gets no such head start. The outputs
      are regenerated from the scenario file, so durability is out of
      scope here.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "x", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        yield fh


# from this magnitude on a float64's spacing is 0.125 or more, coarser than
# the 2 to 6 decimals the tables print, and a fixed-point field's integer
# part alone runs to 16 digits and up, 309 near the largest float
_FIXED_LIMIT = 1e15


def fixed(value: float, digits: int) -> str:
    """value with digits decimals: f"{value:.{digits}f}" below 1e15 in
    magnitude (and for nan), f"{value:.{digits}e}" from 1e15 on."""
    kind = "e" if abs(value) >= _FIXED_LIMIT else "f"
    return f"{value:.{digits}{kind}}"


# rows (time steps, nodes) per write, each distinct number formatted once
CSV_BLOCK = 256


def write_rows(fh: TextIO, formats: Sequence[str], n_rows: int,
               block: Callable[[slice], np.ndarray]) -> None:
    """Write CSV rows "%f1,%f2,...\\r\\n" of formats, CSV_BLOCK at a time:
    block(rows) gives their cells, one column of the file per row. Each
    distinct bit pattern (uint64 view) of a column is formatted once, by
    one "%" over them all split at "\\0", which no number's text holds."""
    for start in range(0, n_rows, CSV_BLOCK):
        patterns = block(slice(start, start + CSV_BLOCK)).view(np.uint64)
        cells = np.empty(patterns.shape[::-1], dtype=object)
        for j, (fmt, column) in enumerate(zip(formats, patterns)):
            bits, inverse = np.unique(column, return_inverse=True)
            end = "\r\n" if j == len(formats) - 1 else ","
            text = ("\0".join([fmt + end] * bits.size)
                    % tuple(bits.view(np.float64).tolist())).split("\0")
            cells[:, j] = np.array(text, dtype=object)[inverse]
        fh.write("".join(cells.ravel().tolist()))
