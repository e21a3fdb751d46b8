"""LP/ILP solving: model builder, native simplex + branch & bound, HiGHS."""

import importlib

from repro.solver.branch_bound import branch_and_bound
from repro.solver.model import Constraint, Model, Variable
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.scipy_backend import scipy_solve
from repro.solver.simplex import simplex_solve

__all__ = [
    "Constraint",
    "Model",
    "SolveResult",
    "SolveStatus",
    "Variable",
    "branch_and_bound",
    "preload_backend",
    "scipy_solve",
    "simplex_solve",
    "solve_model",
]


def solve_model(
    model: Model,
    backend: str = "scipy",
    *,
    time_limit=None,
    mip_gap=None,
) -> SolveResult:
    """Solve ``model`` with the chosen backend (``"scipy"`` or ``"native"``).

    ``time_limit`` (seconds) and ``mip_gap`` (relative optimality gap)
    are honoured by both backends; ``None`` means unlimited/exact.
    """
    if backend == "scipy":
        return scipy_solve(model, time_limit=time_limit, mip_gap=mip_gap)
    if backend == "native":
        return branch_and_bound(model, time_limit=time_limit, mip_gap=mip_gap)
    raise ValueError(f"unknown solver backend {backend!r}")


#: Modules each backend imports lazily on its first solve.
_LAZY_IMPORTS = {"scipy": ("scipy.optimize", "scipy.sparse"), "native": ()}


def preload_backend(backend: str) -> None:
    """Import the modules ``backend`` would import on its first solve.

    :func:`scipy_solve` imports scipy lazily, so runs that never reach
    the ILP never pay for it.  A process about to fork solver workers
    calls this first: forked workers inherit the loaded modules instead
    of each importing them again.  Under the ``spawn``/``forkserver``
    start methods workers start from a fresh interpreter, so this only
    loads the modules in the calling process.  ``"native"`` (and any
    unknown name, which :func:`solve_model` rejects) loads nothing.
    """
    for module in _LAZY_IMPORTS.get(backend, ()):
        importlib.import_module(module)
