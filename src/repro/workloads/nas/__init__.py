"""Synthetic NAS Parallel Benchmark communication kernels (class D patterns)."""

from repro.workloads.nas.base import NASKernelBase, square_grid_side
from repro.workloads.nas.bt import BTApplication
from repro.workloads.nas.cg import CGApplication
from repro.workloads.nas.ft import FTApplication
from repro.workloads.nas.lu import LUApplication
from repro.workloads.nas.mg import MGApplication
from repro.workloads.nas.sp import SPApplication

#: Benchmarks of Table I / Figure 6, in the paper's order.
NAS_BENCHMARKS = {
    "bt": BTApplication,
    "cg": CGApplication,
    "ft": FTApplication,
    "lu": LUApplication,
    "mg": MGApplication,
    "sp": SPApplication,
}


def make_nas_application(name: str, nprocs: int, iterations: int = 3, **kwargs):
    """Instantiate a NAS kernel by (case-insensitive) name."""
    try:
        cls = NAS_BENCHMARKS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown NAS benchmark {name!r}; available: {', '.join(NAS_BENCHMARKS)}"
        ) from None
    return cls(nprocs=nprocs, iterations=iterations, **kwargs)


__all__ = [
    "NASKernelBase",
    "square_grid_side",
    "BTApplication",
    "CGApplication",
    "FTApplication",
    "LUApplication",
    "MGApplication",
    "SPApplication",
    "NAS_BENCHMARKS",
    "make_nas_application",
]
