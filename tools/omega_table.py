"""Time each engine on `corpus/omega.pcf` by horizon and print a markdown table.

Each cell is the best of `REPEAT` in-process runs of

    tokennets corpus/omega.pcf --engine E --backend int --horizon H

through `tokennets.cli.main`, with its output discarded; no interpreter
start-up is included.  The package is imported from the `src` directory
next to this script's, so a copy of the tree measures its own code.

Run from anywhere:

    python tools/omega_table.py
"""

import contextlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tokennets import cli  # noqa: E402

OMEGA = ROOT / "corpus" / "omega.pcf"
HORIZONS = (64, 128, 256, 512)
REPEAT = 2


def best_time(engine: str, horizon: int) -> float:
    """The least wall time, in seconds, of `REPEAT` runs of one engine."""
    argv = [str(OMEGA), "--engine", engine, "--backend", "int", "--horizon", str(horizon)]
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"{engine} at horizon {horizon} exited {code}")
    return min(times)


def main() -> int:
    print("| engine | " + " | ".join(str(h) for h in HORIZONS) + " |")
    print("|--------|" + "|".join("-" * 9 for _ in HORIZONS) + "|")
    for engine in cli.ENGINES:
        cells = [f"{best_time(engine, h):.3f} s" for h in HORIZONS]
        print(f"| {engine:<6} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
