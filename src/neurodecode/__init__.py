"""Desk-scale EEG decoding benchmark.

Synthetic data generation, ERP-style preprocessing, five trainable decoder
families built on an internal reverse-mode autodiff core, a CSP+LDA linear
baseline, a fixed SGD warm-restart training protocol, and comparative
object-level analysis.
"""

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for this parameter on 64-bit hosts
_TRIM_THRESHOLD = 1 << 30


def _keep_freed_heap() -> bool:
    """Keep freed blocks of up to 32 MiB in the heap, where the next pass reuses them.

    By default glibc returns a freed large block to the kernel (``munmap``
    or a trim of the heap top), and the next pass that allocates the same
    temporary page-faults it in again, zero-filled: a training step of
    dgcnn-small at batch 128 took ~4,600 minor faults.  Both settings are
    needed: a trim threshold alone also switches off glibc's dynamic mmap
    threshold, which makes the faults worse, so it is set only once the
    mmap threshold took.  Once both took, every thread allocates from one
    arena (``M_ARENA_MAX`` 1), so what synthesis threads free is kept in
    the heap that training then allocates from, not in arenas of their
    own.  Returns False where the C library has no ``mallopt`` (macOS,
    Windows) or rejects a threshold.  ``ctypes.CDLL(None)`` opens the
    running process, so there is no library lookup
    (``ctypes.util.find_library`` spawns a subprocess).
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if not (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)):
        return False
    mallopt(_M_ARENA_MAX, 1)
    return True


_HEAP_KEPT = _keep_freed_heap()

from . import analysis, autodiff, baseline, data, eegb, models, pipeline, training  # noqa: E402

__all__ = [
    "analysis",
    "autodiff",
    "baseline",
    "data",
    "eegb",
    "models",
    "pipeline",
    "training",
    "__version__",
]
