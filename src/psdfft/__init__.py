"""2D FFT with simultaneous edge-artifact removal.

Core pieces: numpy.fft wrappers with naive-DFT oracles
(:mod:`psdfft.fft_core`), the periodic-plus-smooth decomposition with its
boundary-vector shortcut (:mod:`psdfft.psd`), mirroring/window baselines
(:mod:`psdfft.baselines`), closed-form cost accounting
(:mod:`psdfft.cost_model`), a frame-streaming dataflow simulator
(:mod:`psdfft.pipeline`), and PGM/report I/O (:mod:`psdfft.io_formats`).
"""

from .baselines import WindowSpec, apodize, mirror_image, window_1d
from .cost_model import CostReport, CostTable, Reconciliation, cost_table, reconcile
from .errors import (
    CapacityError,
    FormatError,
    ParameterError,
    PsdFftError,
    SizeError,
)
from .fft_core import (
    OpCounter,
    fft_1d,
    fft_2d,
    fft_axis,
    ifft_2d,
    naive_dft_1d,
    naive_dft_2d,
)
from .io_formats import (
    SpectrumExport,
    display_scale,
    matrix_csv,
    quadrant_shift,
    read_pgm,
    report_keyvalues,
    spectrum_export,
    write_pgm,
    write_report,
)
from .pipeline import FramePacket, MemoryRegion, PipelineTrace, TraceEvent, pack_frame, run_pipeline
from .psd import (
    BoundaryData,
    Decomposition,
    SpectralDecomposition,
    border_image,
    boundary_data,
    cross_axis_energy,
    decompose,
    nu_vector,
    opsd_boundary_spectrum,
    periodic_spectrum,
    smooth_spectrum,
    spectra,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "CapacityError",
    "CostReport",
    "CostTable",
    "Decomposition",
    "FormatError",
    "FramePacket",
    "MemoryRegion",
    "OpCounter",
    "ParameterError",
    "PipelineTrace",
    "PsdFftError",
    "Reconciliation",
    "SizeError",
    "SpectralDecomposition",
    "SpectrumExport",
    "TraceEvent",
    "WindowSpec",
    "apodize",
    "border_image",
    "boundary_data",
    "cost_table",
    "cross_axis_energy",
    "decompose",
    "display_scale",
    "fft_1d",
    "fft_2d",
    "fft_axis",
    "ifft_2d",
    "matrix_csv",
    "mirror_image",
    "naive_dft_1d",
    "naive_dft_2d",
    "nu_vector",
    "opsd_boundary_spectrum",
    "pack_frame",
    "periodic_spectrum",
    "quadrant_shift",
    "read_pgm",
    "reconcile",
    "report_keyvalues",
    "run_pipeline",
    "smooth_spectrum",
    "spectra",
    "spectrum_export",
    "window_1d",
    "write_pgm",
    "write_report",
]
