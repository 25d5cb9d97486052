"""Run one javastyle CLI call from this checkout's sources.

    python3 perfbench/op.py [--trace-out FILE] -- <javastyle arguments>

The report goes to stdout exactly as ``javastyle`` writes it, and the
exit code is the CLI's. With ``--trace-out`` the package's functions are
wrapped by ``spans.Tracer`` first and the span summary is written to
FILE once the call returns.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from javastyle import cli
    if trace_out is None:
        return cli.main(argv)
    sys.path.insert(0, HERE)
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
