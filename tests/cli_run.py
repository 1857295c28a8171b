"""Run ``dblcheck.cli.main`` in process and capture what it prints."""

import contextlib
import io
from collections import namedtuple

from dblcheck.cli import main

Result = namedtuple("Result", "exit_code output exception")


def invoke(*args):
    """Run the command line ``args`` with stdout and stderr mixed into one
    buffer.  ``exception`` is the ``SystemExit`` of a nonzero exit, or any
    other exception the verb raised (exit code 1 then); None on exit 0."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            main(list(args), prog_name="main")
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
        return Result(code, out.getvalue(), exc if code else None)
    except Exception as exc:
        return Result(1, out.getvalue(), exc)
    return Result(0, out.getvalue(), None)
