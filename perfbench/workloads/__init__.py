"""The benchmark's workloads; see each module for what one op is and why.

Modules are imported on demand, so numpy (needed by the scan workload's
hooks) and the CLI's click stay out of the other workloads' processes.
"""

import importlib

NAMES = ("structure", "maps", "scan", "cli")


def load(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    return importlib.import_module(f"{__name__}.{name}")


def matrix_unit_map(algebra, j: int, k: int):
    """The linear map x -> x_j b_k, which commutes only if b_k is central."""
    import altcomm as ac

    f, n = algebra.field, algebra.dim
    rows = [[f.one if (r == k and c == j) else f.zero for c in range(n)] for r in range(n)]
    return ac.LinearMap(algebra, ac.Matrix(f, rows))
