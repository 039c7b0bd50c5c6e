"""Run the ``dualrail`` command line under the span tracer.

Usage: python perfbench/traced_cli.py LAYERS_JSON SPANS_NPZ <dualrail args...>

Writes the per-layer metrics of this process to LAYERS_JSON and every span to
SPANS_NPZ, then exits with the command's own exit code.  Pool workers forked
by the command are not traced.
"""

import json
import sys

from dualrail import cli
from tracing import Tracer


def main() -> int:
    layers_path, spans_path, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(layers_path, "w") as fh:
        json.dump(tracer.metrics(), fh)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
