"""Start ``repro serve`` for the benchmark, optionally traced.

Usage: ``python3 perfbench/serve_launcher.py [--trace DIR] serve ...``

With ``--trace`` the span wrappers are installed before the daemon
starts its worker pool, so the daemon and every worker it forks record
spans into ``DIR``.  The remaining arguments go to
``repro.cli.main`` unchanged.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    if argv[:1] == ["--trace"]:
        import spans

        spans.install(argv[1])
        argv = argv[2:]
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
