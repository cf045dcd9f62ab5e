"""Fresh-interpreter launcher for one CLI invocation.

    python3 perfbench/launch.py SRC TRACE_OUT mblab-arguments...

Imports mblab from SRC and calls ``mblab.cli.main(argv)``, exiting with
its return code, as the ``mblab`` console script does.  When TRACE_OUT
is not ``-``, the tracer's wrappers are installed before ``main`` runs
and the span summary is written to TRACE_OUT on the way out.
"""

from __future__ import annotations

import json
import sys


def main():
    src, trace_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import mblab.cli

    if trace_out == "-":
        return mblab.cli.main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    try:
        return mblab.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"trace": tracer.summary(),
                       "fired": sorted(tracer.fired)}, fh)


if __name__ == "__main__":
    sys.exit(main())
