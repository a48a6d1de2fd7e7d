"""Environment manifest attached to every result, with a triad bandwidth probe,
and the host probe that the timings are scaled by."""
from __future__ import annotations

import hashlib
import os
import platform
import resource
from pathlib import Path
from time import perf_counter

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cpu_caches() -> dict[str, int]:
    """Data/unified cache sizes seen by cpu0, in bytes, keyed 'L1d', 'L2', 'L3'."""
    out: dict[str, int] = {}
    for idx in sorted(_CACHE_DIR.glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        size = _size_bytes(_read(idx / "size"))
        if level is None or size is None or kind == "Instruction":
            continue
        out[f"L{level}d" if kind == "Data" else f"L{level}"] = size
    return out


def cpu_model() -> str:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def fft_backend() -> str:
    if hasattr(np.fft, "_pocketfft_umath"):
        return "numpy.fft pocketfft (C++ umath)"
    return f"numpy.fft ({np.fft.__name__})"


def residency(nbytes: int, caches: dict[str, int]) -> str:
    for level in ("L2", "L3"):
        if level in caches and nbytes <= caches[level]:
            return f"{level}-resident"
    return "exceeds L3 (memory)"


def triad_bandwidth(n: int, caches: dict[str, int], min_seconds: float = 0.15) -> dict:
    """a = b + s*c over float64 arrays of n elements; best-of rate in GB/s.

    Bytes are computed as 24 per element (read b and c, write a), the STREAM
    convention; numpy evaluates it in two passes, so the real traffic is higher.
    """
    b = np.linspace(0.0, 1.0, n)
    c = np.linspace(1.0, 2.0, n)
    a = np.empty(n)
    best = float("inf")
    reps = 0
    t_end = perf_counter() + min_seconds
    while reps < 5 or perf_counter() < t_end:
        t0 = perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, perf_counter() - t0)
        reps += 1
    working_set = 3 * 8 * n
    return {
        "gb_per_s": 24 * n / best / 1e9,
        "bytes_computed": 24 * n,
        "array_bytes": 8 * n,
        "working_set_bytes": working_set,
        "residency": residency(working_set, caches),
        "reps": reps,
        "note": "best of reps; 24 B/element computed (STREAM triad), not measured traffic",
    }


class HostProbe:
    """A fixed numpy kernel run right after each step, to gauge the host's speed.

    The host is shared, and its speed drifts by tens of percent over minutes.
    Run for a fixed share of the time just after every step, the probe is
    slowed by the same drift as the steps, so step time / probe time moves
    with the program and hardly with the host.  The probe is plain numpy (a
    real FFT pair with a symbol multiply, a five-point stencil and a cubic
    sum on an m x m grid) and never calls the package.
    """

    def __init__(self, m: int, share: float = 0.1) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.uniform(-1.0, 1.0, (m, m))
        self.k = rng.uniform(0.5, 1.0, (m, m // 2 + 1))
        self.share = share
        self.reset()

    def reset(self) -> None:
        self.seconds, self.units, self._owed = 0.0, 0, 0.0

    def _unit(self) -> float:
        b = np.fft.irfft2(np.fft.rfft2(self.x) * self.k, s=self.x.shape)
        c = np.roll(b, 1, 0) + np.roll(b, -1, 0) + np.roll(b, 1, 1) + np.roll(b, -1, 1) - 4 * b
        return float(np.sum(c * c * c))

    def after(self, elapsed: float) -> None:
        """Run units for ``share`` of ``elapsed``; the remainder carries over."""
        self._owed += self.share * elapsed
        while self._owed > 0 or self.units == 0:
            t0 = perf_counter()
            self._unit()
            dt = perf_counter() - t0
            self.seconds += dt
            self.units += 1
            self._owed -= dt


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def manifest(src: Path, thread_env: dict[str, str], triad_n: int) -> dict:
    import chfd

    caches = cpu_caches()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": fft_backend(),
        "thread_env": thread_env,
        "chfd_version": chfd.__version__,
        "chfd_source_sha256": source_digest(src),
        "platform": platform.platform(),
        "triad": triad_bandwidth(triad_n, caches),
    }
