"""One repetition of a workload, in a fresh interpreter with empty caches.

    python3 perfbench/worker.py <workload> <seed> <setup|check|time|trace>

Imports brsc from the checkout's ``src``, builds the inputs from the seed,
and prints one JSON line. ``setup`` stops there; ``time`` also times every
operation and digests the verdicts; ``check`` then checks every output;
``trace`` times with the layer functions wrapped in spans. Every timed mode
also samples the reference slice on a timer (``calibrate.py``) and reports
calibrated latencies beside the raw ones. The ``ready`` field is
``time.monotonic()`` at the end of set-up, which the parent subtracts from
its own clock at spawn.
"""

import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter, thread_time

import calibrate

ROOT = Path(__file__).resolve().parent.parent


class Recorder:
    """Times each operation and keeps its result; errors count as failed.

    An operation's latency is the CPU time of this thread during it, which
    leaves out the times the thread was not running. Inside
    ``calibrating()`` a timer takes a reference sample every CAL_INTERVAL_S,
    in the middle of operations too; ``cal_s`` is the CPU time the samples
    took, and an operation's latency leaves out its share.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.intervals = []  # (start, end, CPU seconds without the samples)
        self.results = {}
        self.errors = {}
        self.samples = []
        self.cal_s = 0.0
        self._sampling = False

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def sample(self, *_):
        if self._sampling:  # a timer signal inside the handler
            return
        self._sampling = True
        start = thread_time()
        self.samples.append(calibrate.sample())
        self.cal_s += thread_time() - start
        self._sampling = False

    @contextmanager
    def calibrating(self):
        """Sample before, during and after the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, calibrate.CAL_INTERVAL_S, calibrate.CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def latencies(self):
        return [cpu for _, _, cpu in self.intervals]

    def op(self, op_id, fn, *args):
        cal = self.cal_s
        start, cpu = perf_counter(), thread_time()
        try:
            with self.span("bench.op"):
                result = fn(*args)
        except Exception as e:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.errors[op_id] = f"raised {type(e).__name__}: {e}"
            result = None
        cpu = thread_time() - cpu - (self.cal_s - cal)
        self.intervals.append((start, perf_counter(), cpu))
        self.results[op_id] = result
        return result


def _import_brsc():
    sys.path.insert(0, str(ROOT / "src"))
    import brsc

    where = Path(brsc.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"brsc imported from {where}, not from this checkout")


def main(argv):
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    _import_brsc()
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if mode == "trace":
        tracer = spans.Tracer(workloads.REFUSALS)
        tracer.install(extra_namespaces=(workloads,))
    rec = Recorder(tracer)
    with rec.calibrating():
        cal_s, start = rec.cal_s, perf_counter()
        workload.run(inputs, rec)
        cal_s, wall = rec.cal_s - cal_s, perf_counter() - start
    latencies = rec.latencies()
    cal_latencies = [x * f for x, f in zip(latencies, calibrate.scale(rec.intervals, rec.samples))]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = None
    if tracer:
        tracer.uninstall()
        report = tracer.report()

    bad = dict(rec.errors)
    if mode == "check":
        for op_id, reason in workload.check(seed, inputs, rec.results).items():
            bad.setdefault(op_id, reason)
    verdicts = [[op_id, workloads.to_json(r)] for op_id, r in rec.results.items()]
    digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    out = {
        "ready": ready,
        "wall_s": wall,  # samples included
        "latencies": latencies,
        "cal_latencies": cal_latencies,
        "ref_s": statistics.median(d for _, d in rec.samples),
        "cal_s": cal_s,
        "attempted": len(rec.results),
        "failed": len(bad),
        "failures": dict(list(bad.items())[:20]),
        "digest": digest,
        "peak_rss_kb": rss_kb,
        "trace": report,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
