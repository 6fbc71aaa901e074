"""Run one ``blockreg`` CLI command with the benchmark's tracer installed.

Usage: python3 perfbench/traced_cli.py TRACE_JSON COMMAND [ARGS...]

Installs the wrappers from ``tracer.py``, calls ``blockreg.cli.main`` with
the remaining arguments, writes the spans and counters to TRACE_JSON once
the command has finished, and exits with the command's exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import blockreg.cli

    try:
        return blockreg.cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
