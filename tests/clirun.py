"""Run `nccalc.cli.main` in this process and keep what it writes.

`run_cli(args)` returns a `Result`: `exit_code`; `output`, stdout and
stderr interleaved in write order; and `exception`, the `SystemExit` of a
nonzero exit or the exception that escaped `main` (exit code 1), else None.
With `catch_exceptions=False` an escaping exception is raised instead.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple, Optional

from nccalc.cli import main


class Result(NamedTuple):
    exit_code: int
    output: str
    exception: Optional[BaseException]


def run_cli(args, catch_exceptions=True):
    out = io.StringIO()
    code, exception = 0, None
    with redirect_stdout(out), redirect_stderr(out):
        try:
            main(args=list(args))
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except Exception as exc:
            if not catch_exceptions:
                raise
            code, exception = 1, exc
    return Result(code, out.getvalue(), exception)
