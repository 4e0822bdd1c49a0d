"""One traced process: a refleig CLI job with spans installed, or the kernels.

    python3 perfbench/trace_child.py <refleig arguments...>
    python3 perfbench/trace_child.py --kernels <seed>

The job runs through `refleig.cli.main` with the same arguments a user would
type; its report is captured instead of printed.  The last line of standard
output is one JSON object with the exit code, the report text, the process's
traced wall time and the span aggregates.  `src/refleig` must be importable
(the parent puts it on PYTHONPATH).
"""

import contextlib
import io
import json
import sys
import time

import kernels
from tracer import Tracer


def _traced_job(argv, t_start):
    clock = time.perf_counter
    t = clock()
    import refleig.cli

    import_s = clock() - t
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = refleig.cli.main(argv)
    wall_s = clock() - t_start
    return {
        "exit_code": code,
        "report": buf.getvalue(),
        "wall_s": wall_s,
        "import_s": import_s,
        "trace": tracer.summary(),
    }


def main(argv):
    t_start = time.perf_counter()
    if argv[:1] == ["--kernels"]:
        result = kernels.run(int(argv[1]))
    else:
        result = _traced_job(argv, t_start)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
