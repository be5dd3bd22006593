"""Closed-form cost accounting and reconciliation against measured counters.

Per n x m frame, in data points:

    algorithm   external-memory access   DFT output points
    mirroring   8*n*m                    8*n*m
    psd         4*n*m                    4*n*m
    opsd        3*n*m + n + m - 1        3*n*m + m

Mirroring transforms a doubled 2n x 2m image (two passes over 4nm points).
Plain psd runs two full 2D FFTs, one over the image and one over the border
image.  The optimized psd replaces the border's row pass with a single
length-m row FFT plus scalings, so external traffic drops to the two image
passes (2nm), the border column pass (nm), and the n + m - 1 distinct
boundary values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError
from .fft_core import OpCounter

ALGORITHMS = ("mirroring", "psd", "opsd")


@dataclass(frozen=True)
class CostReport:
    """Expected point counts for one algorithm at one frame size."""

    algorithm: str
    n: int
    m: int
    dram_points: int
    dft_points: int


class CostTable(NamedTuple):
    mirroring: CostReport
    psd: CostReport
    opsd: CostReport


@dataclass(frozen=True)
class Reconciliation:
    """Measured-minus-expected deltas for one run; success means both zero."""

    algorithm: str
    n: int
    m: int
    dft_delta: int
    dram_delta: int

    @property
    def exact(self) -> bool:
        return self.dft_delta == 0 and self.dram_delta == 0


def cost_table(n: int, m: int) -> CostTable:
    """Closed-form cost reports for all three algorithms (integer arithmetic)."""
    if n < 1 or m < 1:
        raise ParameterError(f"dimensions must be >= 1, got {n}x{m}")
    nm = n * m
    return CostTable(
        mirroring=CostReport("mirroring", n, m, 8 * nm, 8 * nm),
        psd=CostReport("psd", n, m, 4 * nm, 4 * nm),
        opsd=CostReport("opsd", n, m, 3 * nm + n + m - 1, 3 * nm + m),
    )


def reconcile(
    report: CostReport,
    counter: OpCounter,
    *,
    algorithm: str | None = None,
    n: int | None = None,
    m: int | None = None,
) -> Reconciliation:
    """Compare an instrumented run's counter against a closed-form report.

    The optional metadata describes the run that produced ``counter``; any
    mismatch with the report is a usage error, not a cost delta.
    """
    if algorithm is not None and algorithm != report.algorithm:
        raise ParameterError(
            f"counter is from a {algorithm!r} run but report is for {report.algorithm!r}"
        )
    if (n is not None and n != report.n) or (m is not None and m != report.m):
        raise ParameterError(
            f"counter is from a {n}x{m} run but report is for {report.n}x{report.m}"
        )
    return Reconciliation(
        algorithm=report.algorithm,
        n=report.n,
        m=report.m,
        dft_delta=counter.dft_points - report.dft_points,
        dram_delta=counter.ext_mem_points - report.dram_points,
    )
