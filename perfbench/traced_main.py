"""Run the ``repro-soc`` CLI with the layer tracer installed.

    PERFBENCH_SPANS_DIR=<dir> python3 perfbench/traced_main.py export d695 --width 16

Spans are appended to ``<dir>/<pid>.jsonl``, one line per finished plan.
For ``serve`` the server process itself is not traced: its attempt
children are.  ``multiprocessing`` starts them by re-running this file
as ``__mp_main__``, which installs the tracer in each child.
"""

import os
import sys

import tracer

if __name__ == "__mp_main__":
    tracer.install(os.environ[tracer.SPANS_ENV])

if __name__ == "__main__":
    if sys.argv[1:2] != ["serve"]:
        tracer.install(os.environ[tracer.SPANS_ENV])
    import repro.cli

    sys.exit(repro.cli.main(sys.argv[1:]))
