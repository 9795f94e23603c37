"""Read the thread counts of the OpenBLAS copies in this process, and
hold numpy's copy at one thread for the length of a block.

numpy wheels bundle an OpenBLAS (`libscipy_openblas64_`) with its own
thread pool, and orthocd runs all of its BLAS work there.  Another
package loaded into the same process may bring a second copy with a
second pool (scipy's wheel bundles `libscipy_openblas`); each copy is
reported under its owning package.  This module finds the copies that
are loaded (from /proc/self/maps, once per process) and talks to them
through ctypes, with no dependency beyond the standard library.

The package's one thread rule: numpy's copy is held at one thread for
the length of a small call, then given back the count it had.  Nothing
here changes a count beyond the block that asked for it.

Where no OpenBLAS copy is found (MKL or Accelerate builds, or a system
without /proc) every function here does nothing: `thread_counts` returns
an empty dict and `held_threads` leaves the count alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from pathlib import Path

__all__ = ["held_threads", "thread_counts"]

# (get, set) symbol pairs, tried in order; scipy-openblas wheels use the
# prefixed names, other builds the plain ones, ILP64 builds add "64_"
_SYMBOLS = [
    (f"{prefix}openblas_get_num_threads{suffix}",
     f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "") for suffix in ("", "64_")
]


def _owner(path: Path) -> str | None:
    """The package ("numpy" or "scipy") whose wheel bundles `path`."""
    for pkg in ("numpy", "scipy"):
        if {pkg, f"{pkg}.libs"} & set(path.parts[-3:-1]):
            return pkg
    return None


@functools.cache
def _loaded_openblas() -> dict[str, tuple]:
    """(get, set) functions of each loaded OpenBLAS copy, keyed by
    owning package (else file name).  Found on the first call only: the
    lookup reads /proc/self/maps and opens each library (about 2 ms),
    while a get or set through the handles takes under a microsecond.
    A copy loaded after the first call is not seen."""
    try:
        with open("/proc/self/maps") as fh:
            # the last field is the mapped file's path (or the inode)
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return {}
    found = {}
    for p in sorted(paths):
        path = Path(p)
        if "openblas" not in path.name.lower():
            continue
        try:
            lib = ctypes.CDLL(p, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get_fn, set_fn = getattr(lib, get_name), getattr(lib, set_name)
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                found[_owner(path) or path.name] = (get_fn, set_fn)
                break
    return found


def thread_counts() -> dict[str, int]:
    """Thread count in force for each loaded OpenBLAS copy.

    Keys are "numpy" / "scipy" for the copies those wheels bundle and
    the library file name otherwise; empty when no copy is found.
    """
    return {key: get_fn() for key, (get_fn, _) in _loaded_openblas().items()}


@contextlib.contextmanager
def held_threads():
    """Run the block with numpy's OpenBLAS copy at one thread, then put
    back the count it had before.  Cheap enough to wrap a single call;
    does nothing when that copy is not loaded."""
    handles = _loaded_openblas().get("numpy")
    if handles is None:
        yield
        return
    get_fn, set_fn = handles
    before = get_fn()
    set_fn(1)
    try:
        yield
    finally:
        set_fn(before)
