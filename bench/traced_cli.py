"""Run one gridecon command with spans around gridecon's modules.

    python bench/traced_cli.py <gridecon arguments>

Writes the command's output to stdout, as ``python -m gridecon.cli`` does,
and the span totals to stderr as one ``TRACE {json}`` line.
"""

import json
import sys

import gridecon.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
code = 0
try:
    tracer.span("cli.main", gridecon.cli.main.main)(sys.argv[1:], prog_name="gridecon")
except SystemExit as exc:
    code = exc.code
tracer.end_op()
sys.stdout.flush()
print("TRACE " + json.dumps(tracer.totals()), file=sys.stderr)
sys.exit(code)
