"""A result does not depend on how many threads OpenBLAS runs.

numpy hands its matrix products to OpenBLAS, whose thread count may split a
product's sums differently.  On the acceptance gate's shapes none of the
package's products does: a fresh interpreter held to one thread gives this
process's bits for the Monte Carlo reports of the Table 8 rows and for
``separate`` with both methods.  Nor on long records: ``separate`` with
both methods at (channels, samples) = (3, 200 001), (6, 100 003) and
(8, 100 003), where a whole-record projection ``matmul`` once split its
columns differently at two threads.  The deflation loop now issues the
projection one block of a multiple of 8 samples at a time, which OpenBLAS
runs in one thread with the whole-record call's one-thread bits.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from conftest import run_fresh
from test_workers import long_record

from sparsebss import MethodParams, SparseBssError, add_noise, load_preset, monte_carlo, separate

#: (channels, samples) of the long records, whose bits once depended on the thread count.
LONG_SHAPES = [(3, 200_001), (6, 100_003), (8, 100_003)]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digests() -> str:
    """One sha256 per output, one a line.

    The Table 8 rows at noise 0.005 (2 x 500 runs, global 0.40 and MHC
    0.70), both methods on a noisy ``section2iii`` record, and both methods
    on the long sparse records (MHC raises ``NoConsecutivePairError`` at
    (8, 100 003), and its name stands for the output), all at seeds other
    than the gate's.
    """
    lines = []
    scenario = dataclasses.replace(load_preset("example1"), noise_sd=0.005)
    for method, v_th in (("global", 0.40), ("mhc", 0.70)):
        report = monte_carlo(scenario, MethodParams(method=method, v_th=v_th), 2, 500, 777000)
        lines.append(digest(report.rms_per_sample, report.set_rms_tot, report.set_rms_max,
                            np.array([report.failures])))
    _, clean = load_preset("section2iii").generate()
    record = add_noise(clean, 0.01, 777001)
    for method in ("global", "mhc"):
        result = separate(record, MethodParams(method=method))
        lines.append(digest(result.estimates, result.transform,
                            *(d.unit_vector for d in result.directions)))
    for n, length in LONG_SHAPES:
        record = long_record(n, length)
        for method, v_th in (("global", 0.40), ("mhc", 0.50)):
            try:
                result = separate(record, MethodParams(method=method, v_th=v_th))
            except SparseBssError as error:
                lines.append(type(error).__name__)
                continue
            lines.append(digest(result.estimates, result.transform,
                                *(d.unit_vector for d in result.directions)))
    return "\n".join(lines)


def test_one_blas_thread_gives_this_process_bits():
    tests = str(Path(__file__).parent)
    code = f"import sys; sys.path.insert(0, {tests!r}); import test_threads; print(test_threads.digests())"
    assert run_fresh(code, OPENBLAS_NUM_THREADS="1") == digests()
