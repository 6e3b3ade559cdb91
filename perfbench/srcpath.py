"""Make the checkout's own `src/prtrp` the package the benchmark imports."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Put ROOT/src first on sys.path; exit with code 2 when it is missing.

    An installed copy of prtrp elsewhere must never stand in for the code
    of the checkout being measured.
    """
    if not (SRC / "prtrp" / "__init__.py").is_file():
        sys.stderr.write(f"error: no prtrp sources under {SRC}\n")
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import prtrp

    if Path(prtrp.__file__).resolve().parent != (SRC / "prtrp").resolve():
        sys.stderr.write(f"error: prtrp imported from {prtrp.__file__}, not {SRC}\n")
        raise SystemExit(2)
