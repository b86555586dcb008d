"""Locating the program under test in the checkout, the namespace of entry
points the benchmark calls, and the record of the environment a result was
measured in."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import importlib
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Entry points the workloads call.  They are reached through one namespace
# so the tracer can wrap them at the benchmark's own call sites.
API_FUNCTIONS = (
    "resolve_config",
    "assemble",
    "validate_model",
    "count_params_flops",
    "receptive_field",
    "init_weights",
    "save_weights",
    "load_weights",
    "fuse_model",
    "forward",
)

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramNotFound(RuntimeError):
    pass


def cap_blas_threads() -> int:
    """Cap the BLAS thread pools at the cores this process may use.  Must run
    before numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def load_api(root: Path = ROOT) -> types.SimpleNamespace:
    """Import ``mhaf`` from the checkout's ``src`` and return its entry points."""
    src = root / "src"
    if not (src / "mhaf" / "__init__.py").is_file():
        raise ProgramNotFound(f"no program source at {src / 'mhaf'}")
    sys.path.insert(0, str(src))
    mhaf = importlib.import_module("mhaf")
    if Path(mhaf.__file__).resolve().parent != (src / "mhaf").resolve():
        raise ProgramNotFound(f"imported mhaf from {mhaf.__file__}, not from {src}")
    return types.SimpleNamespace(**{name: getattr(mhaf, name) for name in API_FUNCTIONS})


def _blas_build() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # not a clone; src_sha256 still identifies the code
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path = ROOT) -> dict:
    """What a result depends on besides the code, so that numbers from
    different machines are never compared as one."""
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "MHAF_THREADS": os.environ.get("MHAF_THREADS"),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(root),
        "src_sha256": _source_digest(root),
    }
