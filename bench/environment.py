"""The environment record written next to every result."""

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path(root).parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root):
    """sha256 over the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    package = Path(root) / "src" / "liftedilc"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _last_level_cache():
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def _blas_info(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": None, "version": None, "configuration": None}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
    }


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and ".so" in line
    })
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def record(root):
    import numpy
    import scipy

    return {
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(numpy),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "blas_threads_in_use": _openblas_threads(),
        "last_level_cache": _last_level_cache(),
    }
