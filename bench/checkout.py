"""Point the benchmark at the program in the checkout it runs from."""

import os
import sys
from pathlib import Path


def use_checkout_source(root: Path) -> None:
    """Import ``reviewtime`` from ``root/src`` only, with one BLAS thread.

    One BLAS thread keeps the load within one process and its two threads,
    and keeps float results independent of how a product was split across
    threads.  Call this before numpy is imported.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = (root / "src").resolve()
    if not (src / "reviewtime" / "__init__.py").is_file():
        sys.exit(f"bench: no src/reviewtime under {root}; run from a checkout root")
    sys.path.insert(0, str(src))
    import reviewtime
    if not Path(reviewtime.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: reviewtime was imported from {reviewtime.__file__}, "
                 f"not from {src}")
