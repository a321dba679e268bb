"""Makes `import plateau` load the package from this checkout's src/."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Put src/ first on sys.path; exit non-zero when the package is absent."""
    init = SRC / "plateau" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import plateau

    if Path(plateau.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: plateau was imported from {plateau.__file__}, not {init}")
