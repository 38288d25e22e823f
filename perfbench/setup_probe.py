"""Time a cold set-up in a fresh process.

Usage: python3 setup_probe.py MODULE [PRESET_ID...]

Imports MODULE (nccalc or nccalc.cli), builds every named preset (which
checks confluence, verifies the morphisms and builds the 2-form
structure) and prints the seconds this took.
"""

import importlib
import sys
import time


def main():
    t0 = time.perf_counter()
    importlib.import_module(sys.argv[1])
    from nccalc.presets import load_preset

    for pid in sys.argv[2:]:
        load_preset(pid)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
