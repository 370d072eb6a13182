"""The evaluated programs, modelled in the IR (paper §5.1).

NPB kernels (BT, CG, EP, FT, IS, LU, MG, SP), the three case-study
applications (ZeusMP, LAMMPS, Vite), and the artifact appendix's
pthreads micro-benchmark.  Each module exposes ``build(...) -> Program``
plus the paper-pinned constants its benchmarks need.

:func:`registry` enumerates every evaluated program with its default
builder — the iteration order matches Table 1/2's column order.
"""

from typing import Callable, Dict

from repro.ir.model import Program
from repro.apps import lammps, microbench, npb, vite, zeusmp
from repro.apps.npb import (
    build_bt,
    build_cg,
    build_ep,
    build_ft,
    build_is,
    build_lu,
    build_mg,
    build_sp,
)


def registry(problem_class: str = "W") -> Dict[str, Callable[[], Program]]:
    """name -> zero-argument builder for every evaluated program.

    ``problem_class`` applies to the NPB kernels (the paper uses CLASS C;
    tests default to W for speed).
    """
    builders: Dict[str, Callable[[], Program]] = {
        name: (lambda b=b: b(problem_class)) for name, b in npb.BUILDERS.items()
    }
    builders["zeusmp"] = zeusmp.build
    builders["lammps"] = lammps.build
    builders["vite"] = vite.build
    return builders


__all__ = [
    "registry",
    "npb",
    "zeusmp",
    "lammps",
    "vite",
    "microbench",
    "build_bt",
    "build_cg",
    "build_ep",
    "build_ft",
    "build_is",
    "build_lu",
    "build_mg",
    "build_sp",
]
