"""CSV reading and writing for multichannel records.

Layout: one header row naming the channels, then one row per time sample
with one column per channel.  Values are written with 17 significant
digits, so a write/read round trip reproduces every double exactly.
"""

from __future__ import annotations

import warnings

import numpy as np

from .signals import as_signal_matrix


def write_csv(path, data, names: list[str] | None = None) -> None:
    """Write an (n_channels, n_samples) matrix as columns under ``names``."""
    x = as_signal_matrix(data)
    n_channels = x.shape[0]
    if names is None:
        names = [f"channel_{i + 1}" for i in range(n_channels)]
    if len(names) != n_channels:
        raise ValueError(f"{len(names)} names for {n_channels} channels")
    np.savetxt(path, x.T, fmt="%.17g", delimiter=",", header=",".join(names), comments="")


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
