"""What the benchmark needs from the host: provenance, cold launches, peak RSS."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cold_launches(argv: list[str], launches: int) -> list[tuple[float, str]]:
    """Launch a fresh interpreter with ``argv`` ``launches`` times, after one
    discarded warm-up launch, with the package on the path and this process's
    environment (so the same BLAS thread cap).

    Returns (seconds from launch to the arrival of the last stdout line, stdout)
    per launch.  The child runs unbuffered, so its last line arrives when its
    operation ends, before interpreter teardown.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    for i in range(launches + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-u", *argv], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ) as proc:
            lines, stamp = [], None
            for line in proc.stdout:
                stamp = time.perf_counter()
                lines.append(line)
            code = proc.wait(timeout=120)
            if stamp is None:
                stamp = time.perf_counter()
        text = "".join(lines) if code == 0 else ""
        if i:
            out.append((stamp - t0, text))
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in 10^6 bytes (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _openblas() -> dict:
    path = next(
        (line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
         if "openblas" in line.lower() and line.split()[-1].endswith(".so")),
        None,
    )
    info = {"library": path, "config": None, "threads": None}
    if path is None:
        return info
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                info["config"] = get_config().decode()
                info["threads"] = get_threads()
                return info
    return info


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "qcorr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def provenance(root: Path, workload: str, seed: int) -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "system": platform.platform(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas(),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root / "src"),
        "workload": workload,
        "seed": seed,
    }
