"""One ``lhdopt`` CLI call with span tracing installed.

usage: python3 perfbench/traced_cli.py SUMMARY_JSON RUN_ID <lhdopt arguments>

Runs ``lhdopt.cli.main`` on the arguments, then writes the span summary of
this process (see ``tracer.Tracer.summary``) to SUMMARY_JSON and exits with
the CLI's exit code.  ``src`` must be on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer

CHILD_SPAN_CAP = 20_000


def main() -> int:
    summary_path, run_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(run_id=run_id, span_cap=CHILD_SPAN_CAP)
    tracer.install()
    import lhdopt.cli

    try:
        return lhdopt.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(summary_path).write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main())
