"""The lines `scripts/fingerprint.py` prints equal those in
``tests/FINGERPRINT.txt``: checkpoints, histories, forward outputs, step
gradients and dataset files keep their bits.

The bits depend on Python, numpy and the BLAS build, which the file's ``#``
header names; under another environment the test skips and names both.  A
change that moves a line on purpose rewrites the file in the same commit:

    python3 tests/test_fingerprint.py > tests/FINGERPRINT.txt

Run as a script, it needs no ``PYTHONPATH``: `scripts/fingerprint.py` imports
the `sd2` of its own checkout.
"""

import contextlib
import ctypes
import importlib.util
import io
import platform
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).with_name("FINGERPRINT.txt")


def blas_core(blas: dict) -> str:
    """The core type whose kernels OpenBLAS runs.

    A DYNAMIC_ARCH build picks them when it loads, so the core is asked of
    the library numpy bundles; the configuration `numpy.show_config` reports
    was taken when numpy was built, and names the build machine's core.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    # OpenBLAS's configuration string ends "<core> MAX_THREADS=<n>"
    words = blas.get("openblas configuration", "").split()
    return next((w for w, after in zip(words, words[1:]) if after.startswith("MAX_THREADS=")),
                "unknown")


def environment() -> list[str]:
    """Python, numpy, the BLAS name and version, and the BLAS core type."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"python {platform.python_version()}", f"numpy {np.__version__}",
            f"blas {blas.get('name')} {blas.get('version')}", f"blas core {blas_core(blas)}"]


def fingerprint() -> list[str]:
    """The lines `scripts/fingerprint.py` prints, run in this process."""
    path = ROOT / "scripts" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = script.main()
    assert code == 0, f"scripts/fingerprint.py exited {code}"
    return out.getvalue().splitlines()


def test_fingerprint_unchanged():
    recorded = RECORDED.read_text().splitlines()
    header = [line[2:] for line in recorded if line.startswith("# ")]
    expected = [line for line in recorded if not line.startswith("#")]
    if header != environment():
        pytest.skip(f"recorded under {', '.join(header)}; running under "
                    f"{', '.join(environment())}")
    got = fingerprint()
    moved = [want.rsplit(" ", 1)[0] for want, line in zip(expected, got) if line != want]
    assert moved == [], f"fingerprint lines moved: {moved}"
    assert len(got) == len(expected), f"{len(got)} lines printed, {len(expected)} recorded"


if __name__ == "__main__":
    print("\n".join([f"# {line}" for line in environment()] + fingerprint()))
