"""Run one altcomm CLI command with the benchmark's hooks installed.

Usage: python perfbench/cli_child.py TRACE_JSON [altcomm arguments ...]

The traced cli workload starts each command through this script instead of
``python -m altcomm.cli``.  It installs the same hooks as the in-process
workloads, records the whole command as one op, and writes the spans and
counters to TRACE_JSON when the command exits, keeping its exit code.
"""

import importlib
import sys

import altcomm.cli

from tracer import Tracer, write_json

# Commands whose scan imports altcomm._modscan (and numpy) on first use.
# Imported here, before the hooks go in, so its functions get hooked too;
# other commands never import numpy, and importing it for them would add
# its start-up time to every traced command.
SCANNING = {"prime", "oracle"}


def main() -> None:
    trace_path, args = sys.argv[1], sys.argv[2:]
    if args and args[0] in SCANNING:
        importlib.import_module("altcomm._modscan")
    tracer = Tracer()
    tracer.install()
    tracer.begin_op("cli.child")
    try:
        altcomm.cli.main(args, prog_name="altcomm")
    finally:
        tracer.end_op()
        tracer.uninstall()
        # The parent's span for this command stands in for the child's root.
        data = tracer.dump()
        data["spans"] = [[name, start, end, par - 1, op]
                         for name, start, end, par, op in data["spans"][1:]]
        write_json(trace_path, data)


if __name__ == "__main__":
    main()
