"""Start ``ccr-agent`` from the source tree, optionally traced.

    python3 perfbench/agent_boot.py [--trace-out PREFIX] -- <ccr-agent args>

With ``--trace-out``, the wrappers of ``tracing.py`` are installed before
``ccr.cli.agent_main`` runs, and at exit the per-layer totals go to
``PREFIX.json`` and the first spans to ``PREFIX.spans.jsonl``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from ccr.cli import agent_main

    if trace_out is None:
        return agent_main(argv)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(agent=True)
    try:
        return agent_main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out + ".json", "w") as f:
            json.dump(tracer.totals(), f)
        tracer.write_spans(trace_out + ".spans.jsonl")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
