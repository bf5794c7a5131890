"""Entry point of the confshift benchmark.

    python3 perfbench/run.py --workload {cli,campaign-coverage,campaign-scan}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: one client plus its BLAS stay within two CPUs. Set before
# numpy is imported, and recorded with every result.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = Path(__file__).resolve().parent.parent / "src"


def _main() -> int:
    if not (_SRC / "confshift" / "__init__.py").is_file():
        print(f"perfbench: no package source at {_SRC}; run from a confshift checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(_SRC))
    import confshift

    if Path(confshift.__file__).resolve().parent != _SRC / "confshift":
        print(f"perfbench: imported confshift from {confshift.__file__}, not {_SRC}",
              file=sys.stderr)
        return 2
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(_main())
