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
writes out of bounds. They read only an implication network's stores, whose
structure `graph.PaintingGraph` checks, and the values of each store that
`scoring.StochasticOperator` checks against it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from types import ModuleType

import numpy as np


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


def index_arrays(store, entries: int) -> tuple[np.ndarray, np.ndarray]:
    """An edge store's `indptr`, copied, and `src` in the kernels' index type for `entries` entries.

    The type is int32, int64 only past 2**31 - 1 entries; `src` is copied only to change its type.
    """
    index = np.int32 if entries < 2 ** 31 else np.int64
    return store.indptr.astype(index), store.src.astype(index, copy=False)
