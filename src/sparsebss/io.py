"""CSV reading and writing for multichannel records.

Layout: one header row naming the channels, then one row per time sample
with one column per channel, ``,``-separated, each line ending in a
newline.  Each value is written as ``%.17g`` formats it (``-0`` for
negative zero), so a write/read round trip reproduces every double
exactly.  Rows are formatted a block at a time with one %-template and
written with one call per block, so the writer's memory is bounded by
one block of rows, not by the record.
"""

from __future__ import annotations

import warnings

import numpy as np

from .signals import as_signal_matrix

_BLOCK_ROWS = 4096  # samples formatted and written per write() call


def write_csv(path, data, names: list[str] | None = None) -> None:
    """Write an (n_channels, n_samples) matrix as columns under ``names``.

    Raises ``ValueError`` before the file is opened when the names do not
    match the channels or could not be read back: a header that is blank,
    a name containing a comma or a line break, or a name with spaces
    around it (``read_csv`` strips them).
    """
    x = as_signal_matrix(data)
    n_channels = x.shape[0]
    if names is None:
        names = [f"channel_{i + 1}" for i in range(n_channels)]
    if len(names) != n_channels:
        raise ValueError(f"{len(names)} names for {n_channels} channels")
    header = ",".join(names)
    if not header.strip():
        raise ValueError("a blank header cannot be read back")
    for name in names:
        if any(c in name for c in ",\n\r"):
            raise ValueError(f"channel name {name!r} contains a comma or a line break")
        if name != name.strip():
            raise ValueError(f"channel name {name!r} has spaces around it, which read_csv strips")
    rows = x.T
    row_format = ",".join(["%.17g"] * n_channels) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a channels-as-columns CSV back into (names, (N, L) matrix)."""
    with open(path) as fh:
        header = next((line for line in fh if line.strip()), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        names = [c.strip() for c in header.split(",")]
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
    if data.shape[0] == 0 or data.shape[1] != len(names):
        raise ValueError(f"{path}: ragged or empty table")
    return names, data.T
