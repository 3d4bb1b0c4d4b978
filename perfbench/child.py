"""One op in a fresh interpreter: import the CLI, run one command, write timings as JSON.

Usage: child.py RESULT_JSON MODE SRC_DIR [CLI ARGS...]

MODE is `imports` (start and import only), `plain` (time `cli.main`) or
`traced` (the same with spans around every layer function). The creanet
package must come from SRC_DIR; any other copy is refused with exit 2.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer, peak_rss_mb


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, or None if it cannot be read."""
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    result_path, mode, src = Path(argv[0]), argv[1], Path(argv[2]).resolve()
    sys.path.insert(0, str(src))
    import creanet.cli

    ready = time.monotonic()
    if src not in Path(creanet.__file__).resolve().parents:
        print(f"creanet imported from {creanet.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode == "imports":
        result = {"ready": ready, "blas_threads": blas_threads()}
    else:
        tracer = None
        if mode == "traced":
            tracer = Tracer()
            tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        rc = creanet.cli.main(argv[3:])
        command_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result = {"ready": ready, "rc": rc, "command_s": command_s,
                  "peak_rss_mb": peak_rss_mb(),
                  "cpu_s": (after.ru_utime + after.ru_stime
                            - before.ru_utime - before.ru_stime),
                  "spans": tracer.spans if tracer else None}
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
