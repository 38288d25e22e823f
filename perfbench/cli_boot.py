"""Run one `nccalc` command with the span recorder installed.

Usage: python3 cli_boot.py SPANS_FILE [nccalc arguments...]

The spans of the call are written to SPANS_FILE when it ends, whatever
its exit code.  The nccalc package must be importable (PYTHONPATH).
"""

import sys

import nccalc.cli

from spans import Recorder


def main():
    dump, args = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install()
    sid = rec.open(rec.intern("cli.main"))
    try:
        nccalc.cli.main(args=args, prog_name="nccalc")
    finally:
        rec.close(sid)
        rec.dump(dump)


if __name__ == "__main__":
    main()
