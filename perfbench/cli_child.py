"""Traced CLI op: run `bubblefield.cli.main` in this process with spans on.

    python perfbench/cli_child.py SPANS_OUT OP_ID <cli arguments...>

Stands in for `python -m bubblefield.cli <cli arguments...>` in the traced
`cli` run, writes the spans to SPANS_OUT when main returns, and exits with
main's exit code.
"""

import json
import sys

from tracer import Tracer

if __name__ == "__main__":
    spans_out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    from bubblefield import cli

    try:
        code = cli.main(argv)
    finally:
        with open(spans_out, "w") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)
