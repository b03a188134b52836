"""Run one recdiff CLI command under the outside-in tracer.

Usage: python cli_job.py SPAN_FILE SUBCOMMAND [FLAGS...]

Times ``import recdiff.cli``, installs the tracer, calls
``recdiff.cli.dispatch`` with the remaining arguments, writes the spans and
the import time to SPAN_FILE and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import recdiff.cli
    import_s = time.perf_counter() - start

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = recdiff.cli.dispatch(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        data = tracer.export()
        data["import_s"] = import_s
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
