"""A remote agent with the benchmark's tracer installed (traced runs only).

    python3 perfbench/agent.py <flush_dir> --connect HOST:PORT [--name NAME]

Runs ``repro.fl.net.agent`` unchanged; its per-layer totals land in
``<flush_dir>/endpoint-<pid>.json``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracer import Tracer, install  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer(flush_dir=sys.argv[1])
    tracer.become_endpoint()
    install(tracer)
    from repro.fl.net.agent import main

    sys.exit(main(sys.argv[2:]))
