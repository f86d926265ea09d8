"""Start ``repro serve``, optionally with the serve-path layer wrappers.

Usage: ``python3 perfbench/serve_launch.py TRACE LAYERS_FILE serve ARGS...``,
from the root of a checkout.  With ``TRACE`` = ``1`` the wrappers of
``layers.SERVE_SEAMS`` are installed before the server builds anything,
and the per-layer totals are written to ``LAYERS_FILE`` once the server
has drained.  With ``0`` this is exactly ``python -m repro serve ARGS``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    trace, layers_file, *serve_args = argv
    clock = None
    if trace == "1":
        from time import thread_time

        from layers import SERVE_SEAMS, LayerClock, install

        clock = LayerClock(thread_time)
        install(clock, SERVE_SEAMS)
    from repro.cli import main as repro_main

    code = repro_main(serve_args)
    if clock is not None:
        Path(layers_file).write_text(json.dumps(clock.totals()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
