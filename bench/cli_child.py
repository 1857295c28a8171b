"""Run one ``dblcheck`` command line verb with span tracing on.

Usage: python bench/cli_child.py SPANS_OUT JOB_ID VERB [ARGS...]

Behaves like ``python -m dblcheck.cli VERB [ARGS...]``, exit code included,
and writes the aggregated spans of the run to SPANS_OUT as JSON.  The
package must be importable (``PYTHONPATH=src``).
"""

import json
import sys

from spans import Tracer


def main():
    out, job, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import dblcheck.cli
    tracer = Tracer()
    tracer.install()
    tracer.job = job
    try:
        dblcheck.cli.main(args=args, prog_name="dblcheck")
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    main()
