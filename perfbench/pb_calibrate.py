"""Machine-speed calibration for timings on a shared machine.

Other tenants of a shared host slow this process by 15-25% for seconds to
minutes at a time, which swamps any real change between two runs. The
benchmark therefore interleaves a fixed calibration block with the workload
and reports times in *reference seconds*:

    reference time = measured time * NOMINAL_BLOCK_S / (time of the blocks around it)

The block never touches ``hypercnot``: it is a fixed mix of tiny-array numpy
calls and interpreter-bound float formatting, the same kind of work the
library does, so contention slows both alike. On an idle machine of the
reference speed a reference second is a wall second. Raw wall-clock figures
are kept in each run's metadata.
"""

from __future__ import annotations

import time

import numpy as np

# reference time of one block: its median on the machine that defined the
# benchmark (2-core Xeon VM, 2.1 GHz) was 0.0197 s
NOMINAL_BLOCK_S = 0.02

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_PHASE = np.diag([1.0, 1j])
_PSI = np.full(64, 1 / 8, dtype=complex)


def block() -> float:
    """Run the fixed calibration work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    psi = _PSI
    for i in range(170):
        k = i % 5
        op = np.kron(_H, _PHASE).reshape(2, 2, 2, 2)
        out = np.tensordot(op, psi.reshape((2,) * 6), axes=([2, 3], [k, k + 1]))
        psi = np.moveaxis(out, [0, 1], [k, k + 1]).reshape(-1)
        psi = psi / np.sqrt(float(np.sum(np.abs(psi) ** 2)))
    x, rows = 0.1, []
    for _ in range(5500):
        x = (x * 1.000003 + 0.7) % 3.0
        rows.append(f"{x:.10g},{x * x:.10g},{1 / (1 + x):.10g}")
    "\n".join(rows)
    return time.perf_counter() - t0


def factors(blocks: list[float]) -> np.ndarray:
    """Reference seconds per measured second for the work between consecutive blocks.

    The work between blocks i and i+1 is scaled by the mean of the two, so
    a slowdown that hits the work also hits the blocks around it.
    """
    k = np.asarray(blocks)
    return NOMINAL_BLOCK_S / ((k[:-1] + k[1:]) / 2)
