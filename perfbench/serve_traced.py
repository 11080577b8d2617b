"""``python -m repro.serve`` with the per-layer ledger installed first.

The traced benchmark pass starts the daemon through this launcher; it takes
the same arguments as ``python -m repro.serve`` and reads the span directory
from ``PERFBENCH_SPAN_DIR``.  The ledger goes in before the daemon forks its
replay pool, so the pool's workers inherit it.
"""

from __future__ import annotations

import os
import sys

from ledger import SPAN_DIR_ENV, Ledger


def main() -> int:
    ledger = Ledger(os.environ[SPAN_DIR_ENV]).install()
    from repro import serve

    try:
        return serve.main(sys.argv[1:])
    finally:
        ledger.flush()


if __name__ == "__main__":
    sys.exit(main())
