"""Where the code under measurement lives, and how to import and run it.

The benchmark always measures the checkout it sits in: ``src/`` of that
checkout goes first on ``sys.path`` and on ``PYTHONPATH`` for
subprocesses, and ``ULTRANORM_MAX_ENUM`` is cleared so that every cap is
the one the benchmark passes or the library's default.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ultranorm"
WORK = ROOT / ".bench_work"


class CheckoutError(RuntimeError):
    """The checkout holds no ``src/ultranorm`` to measure."""


def require_package() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise CheckoutError(f"no ultranorm package at {PACKAGE}")


def env() -> dict:
    """The environment for subprocesses that run this checkout's code."""
    out = dict(os.environ)
    out.pop("ULTRANORM_MAX_ENUM", None)
    rest = out.get("PYTHONPATH")
    out["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return out


def import_ultranorm():
    """Import ``ultranorm`` from this checkout's ``src/``, or fail."""
    require_package()
    os.environ.pop("ULTRANORM_MAX_ENUM", None)
    sys.path.insert(0, str(SRC))
    import ultranorm

    found = Path(ultranorm.__file__).resolve()
    if found.parent != PACKAGE.resolve():
        raise CheckoutError(f"ultranorm imported from {found}, not from {PACKAGE}")
    return ultranorm


def commit() -> str:
    """The checkout's commit, or "unknown" when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
