"""Run one sheffermat CLI request with its layers traced.

Usage: ``python perfbench/traced_cli.py SPANS_FILE REQUEST_ID ARG...``
with ``src`` on ``PYTHONPATH``.  Stdout, stderr and the exit code are the
CLI's own; the spans go to SPANS_FILE as JSON lines, the request's root
span being ``cli.main``.
"""

from __future__ import annotations

import sys

from tracing import Recorder, instrument


def main(argv: list[str]) -> int:
    spans_file, request_id, *cli_args = argv
    from sheffermat import cli

    recorder = Recorder()
    instrument(recorder)
    try:
        with recorder.root("cli.main", request_id):
            return cli.main(cli_args)
    finally:
        recorder.write(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
