"""scipy's compiled sparse kernels, loaded without importing `scipy.sparse`.

Scoring needs only a few of `scipy.sparse._sparsetools`'s kernels: the
products of a CSR or CSC matrix with a vector, the CSR-to-CSC transpose and
the canonical sum of two CSR matrices. Importing `scipy.sparse` for them
would also import scipy's array-API layer, which pulls in `numpy.f2py`,
`numpy.testing` and `numpy.ma`: about 12 MiB and 0.15-0.25 s before any
work starts. So the extension is loaded from the installed scipy's
`sparse` directory alone, without running `scipy/sparse/__init__.py`.
Where that fails, the normal import gives the same kernels.

The kernels do not check their arguments: an index out of range reads or
writes out of bounds. Their arrays are checked first: an operator's terms
by `scoring.StochasticOperator`, the stores the `cin.csv` merge reads by
`graph.PaintingGraph`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from types import ModuleType


def _load_direct() -> ModuleType:
    """The `_sparsetools` extension from scipy's `sparse` directory, with no package import."""
    scipy = importlib.util.find_spec("scipy")
    places = [os.path.join(place, "sparse") for place in (scipy and scipy.submodule_search_locations) or ()]
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", places)
    if spec is None:
        raise ImportError("scipy's sparse kernels were not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load() -> ModuleType:
    """The kernels, loaded directly, or through `scipy.sparse` if that fails."""
    try:
        return _load_direct()
    except ImportError:
        from scipy.sparse import _sparsetools
        return _sparsetools


sparsetools = load()
