"""Build the compiled backend library with a stock C compiler.

The compiled tier is a plain C shared object loaded through ctypes — no
Python.h, no Cython, no build-system dependency beyond a working ``cc``.
Run::

    python -m repro.core.backends.build

or ``python setup.py build_native`` (same entry point).  The library
lands next to its source (``_native/libhdagg_native.so``), where
:mod:`repro.core.backends.native` looks for it, and from then on the
inspector's compiled stages run; delete the file to return to the numpy
tier.

Flag notes: ``-ffp-contract=off`` forbids FMA contraction and fast-math
stays off, because the compiled tier's bit-identity contract with the
numpy tier depends on unfused, unreassociated float arithmetic.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

__all__ = ["SOURCE", "LIBRARY", "build", "BuildError"]

_NATIVE_DIR = Path(__file__).resolve().parent / "_native"
SOURCE = _NATIVE_DIR / "hdagg_native.c"
LIBRARY = _NATIVE_DIR / "libhdagg_native.so"

_CFLAGS = ["-O3", "-ffp-contract=off", "-fPIC", "-shared", "-std=c99", "-Wall"]


class BuildError(RuntimeError):
    """Compiler missing or compilation failed."""


def _compiler() -> str | None:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


def build(force: bool = False, verbose: bool = True) -> Path:
    """Compile the native library; returns its path.

    Skips the compile when the library is already newer than its source
    (unless ``force``).  Raises :class:`BuildError` when no compiler is
    on PATH or the compile fails — callers that want the soft-fallback
    behaviour catch it (nothing calls this implicitly).
    """
    if not SOURCE.exists():  # pragma: no cover - packaging error
        raise BuildError(f"native source missing: {SOURCE}")
    if LIBRARY.exists() and not force:
        if LIBRARY.stat().st_mtime >= SOURCE.stat().st_mtime:
            if verbose:
                print(f"[backends.build] up to date: {LIBRARY}")
            return LIBRARY
    cc = _compiler()
    if cc is None:
        raise BuildError("no C compiler found (tried $CC, cc, gcc, clang)")
    cmd = [cc, *_CFLAGS, "-o", str(LIBRARY), str(SOURCE)]
    if verbose:
        print("[backends.build]", " ".join(cmd))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BuildError(
            f"compile failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}"
        )
    if verbose:
        print(f"[backends.build] built {LIBRARY}")
    # a fresh build invalidates any loaded handle in this process
    from .native import reset as _reset_native

    _reset_native()
    return LIBRARY


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    force = "--force" in args
    try:
        build(force=force)
    except BuildError as exc:
        print(f"[backends.build] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
