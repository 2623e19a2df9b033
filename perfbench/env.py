"""Process environment shared by every benchmark entry point.

Import this module before numpy: it pins the BLAS/OpenMP thread counts,
which numpy reads once at import. With the library defaults, building a
Gauss-Hermite rule in a fresh process varies between 0.01 s and 0.5 s on a
2-core host, which would swamp ``setup_s``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cbpsk"


def use_checkout_source() -> None:
    """Make ``import cbpsk`` load the package from this checkout's ``src``.

    Exits with status 2 when the checkout holds no package, so a copy of the
    benchmark alone never measures some other installed ``cbpsk``.
    """
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no cbpsk package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cbpsk

    if Path(cbpsk.__file__).resolve().parent != PACKAGE:
        print(f"perfbench: imported cbpsk from {cbpsk.__file__}, not {PACKAGE}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict:
    """Environment for benchmark subprocesses: pinned threads, checkout source."""
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
