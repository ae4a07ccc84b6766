"""Run the qccsim CLI with a span around every call into the package.

    PERFBENCH_SPAWN_NS=<perf_counter_ns at spawn> python traced_cli.py SPANS_FILE ARGS...

behaves as ``python -m qccsim ARGS...`` (same stdout, stderr and exit code)
and, on the way out, writes its spans to SPANS_FILE with ``marshal``,
followed by the (start, end) of that write and the wrapper cost measured in
this process.  ``proc.start`` covers the time
from the parent's spawn stamp to this script's first statement;
perf_counter_ns is CLOCK_MONOTONIC, so both processes read the same clock.
"""

import time

T0 = time.perf_counter_ns()

import marshal  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, calibrate, install  # noqa: E402


def _import_numpy():
    import numpy  # noqa: F401


def _import_package():
    tracer.wrap("proc.import_numpy", _import_numpy)()
    import qccsim.cli
    return qccsim.cli


tracer = Tracer()
tracer.add("proc.start", int(os.environ["PERFBENCH_SPAWN_NS"]), T0)
tracer.add("trace.preamble", T0, time.perf_counter_ns())
cli = tracer.wrap("proc.import_qccsim", _import_package)()
tracer.wrap("trace.install", install)(tracer)
cost = tracer.wrap("trace.calibrate", calibrate)()
spans_path = sys.argv[1]
sys.argv = ["qccsim", *sys.argv[2:]]
try:
    cli.run()
finally:
    sys.stdout.flush()
    flush_start = time.perf_counter_ns()
    with open(spans_path, "wb") as handle:
        marshal.dump([tuple(s) for s in tracer.spans], handle)
        marshal.dump((flush_start, time.perf_counter_ns()), handle)
        marshal.dump(cost, handle)
