"""One traced CLI call in a fresh interpreter, for the traced cold run.

    PERFBENCH_TRACE_OUT=trace.json python3 perfbench/traced_cli.py bundle --n 1 ...

runs fanodelta.cli.main on the arguments with every span of tracer.py
installed, writes the span totals to PERFBENCH_TRACE_OUT, and exits with
main's exit code.
"""

import json
import os
import sys

from tracer import Tracer

if __name__ == "__main__":
    from fanodelta import cli

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as handle:
            json.dump(tracer.to_dict(), handle)
    sys.exit(code)
