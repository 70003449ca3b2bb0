"""Checkout layout, process environment and the run-environment record.

Standard library only at import time: ``prepare`` must fix the BLAS
thread count before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def prepare(blas_threads: int) -> None:
    """Pin BLAS threads, drop the worker-count override and put the
    checkout's ``src`` first on the import path.

    Exits with an error when the current directory is not the root of an
    obdk checkout.
    """
    if not (SRC / "obdk" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/obdk package under {ROOT}; "
                         "run from the root of an obdk checkout")
    for var in _BLAS_ENV:
        os.environ[var] = str(blas_threads)
    os.environ.pop("OBDK_THREADS", None)
    sys.path.insert(0, str(SRC))


def check_import(module) -> None:
    """Exit unless ``module`` was loaded from this checkout's ``src``."""
    if SRC.resolve() not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"error: obdk imported from {module.__file__}, not from {SRC}")


def git_sha() -> str | None:
    """HEAD commit read from ``.git`` in the checkout; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the obdk sources, identifying the program outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "obdk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas() -> tuple[str | None, int | None]:
    """(runtime config string, thread count) of numpy's bundled OpenBLAS."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(str(libs[0]))
    config = getattr(lib, "scipy_openblas_get_config64_", None)
    threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if config is None or threads is None:
        return None, None
    config.restype, config.argtypes = ctypes.c_char_p, []
    threads.restype, threads.argtypes = ctypes.c_int, []
    return config().decode(), threads()


def record(seed: int, spec: dict) -> dict:
    """Everything a result depends on besides the code under test."""
    import numpy
    import scipy

    blas_config, blas_threads = _openblas()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": blas_config,
        "blas_threads": blas_threads,
        "blas_threads_requested": spec["blas_threads"],
        "workers": 1,  # one closed-loop caller; CLI argv pass --workers 1
        "seed": seed,
    }
