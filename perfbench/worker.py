"""One CLI invocation in a fresh process, as a user's ``bornlab`` run pays it.

    python3 perfbench/worker.py JOB.json

The job names the argv for ``bornlab.cli.main``, the config to load during
set-up, whether to trace, and where to write the result. ``run.py`` starts
the clock just before it spawns this process; set-up ends when
``bornlab.cli`` is imported and the config is loaded. The timed call is
``main(argv)``. Times are ``CLOCK_MONOTONIC``, which is shared by all
processes on the machine, so the spawn time taken by ``run.py`` and the
times taken here are on one clock.

The host's speed drifts by up to 1.9x over seconds to minutes, so during the
call the worker also times one round of a fixed reference kernel
(``calibrate``) every ``SAMPLE_INTERVAL_S``, from a timer signal. The signal
handler's time is subtracted from the call's (in a traced call it also
lands in the spans the signal interrupts); ``run.py`` rescales the times
by the reference rounds. The rounds pause the program about 2% of the
call. One more round right after the call stands in for calls too short to
be sampled.
"""

import json
import resource
import signal
import sys
import time
import traceback

SAMPLE_INTERVAL_S = 0.1


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate():
    """Nanoseconds for one round of a fixed mix of interpreter work and small
    linear algebra, about 2 ms.

    The kernel uses only Python and numpy, never bornlab, so a change to the
    program cannot change it.
    """
    import numpy as np

    a = np.arange(64, dtype=float).reshape(8, 8) / 64.0
    h = (a + a.T) + 1j * (a - a.T)
    start = _now_ns()
    acc, counts = 0, {}
    for i in range(4000):
        acc += (i * i) % 7
        counts[i & 63] = counts.get(i & 63, 0) + 1
    for _ in range(27):
        w, v = np.linalg.eigh(h)
        acc += float(np.einsum("ij,j,kj->ik", v, w, v.conj()).real[0, 0])
    return _now_ns() - start


def peak_rss_kb():
    """Peak resident set of this process, in KiB.

    Not ``ru_maxrss``: Linux carries the parent's resident set at the fork
    over into the child's ``ru_maxrss``, so it would report ``run.py``'s.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Sampler:
    """Times one reference round every ``SAMPLE_INTERVAL_S`` during the call."""

    def __init__(self):
        self.samples_ns = []
        self.paused_ns = 0

    def _handler(self, signum, frame):
        start = _now_ns()
        self.samples_ns.append(calibrate())
        self.paused_ns += _now_ns() - start

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)

    import bornlab.cli
    from bornlab.config import load_config

    load_config(job["config"])
    loaded_ns = _now_ns()

    recorder = None
    sampler = Sampler()
    if job["trace"]:
        import tracing

        recorder = tracing.install(tracing.Recorder(job["invocation"]))

    calibrate()  # the process's first reference round is slower; untimed
    exit_code, error = None, None
    start_ns = _now_ns()
    try:
        with sampler:
            if recorder is None:
                exit_code = bornlab.cli.main(job["argv"])
            else:
                exit_code = recorder.call(tracing.ROOT, bornlab.cli.main, (job["argv"],), {})
    except Exception:  # an unexpected exception is a failed invocation, reported below
        error = traceback.format_exc()
    end_ns = _now_ns()
    cal_after_ns = calibrate()
    max_rss_kb = peak_rss_kb()

    if recorder is not None:
        recorder.dump(job["trace_path"])
    result = {
        "module": bornlab.cli.__file__,
        "loaded_ns": loaded_ns,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "cal_samples_ns": sampler.samples_ns,
        "paused_ns": sampler.paused_ns,
        "cal_after_ns": cal_after_ns,
        "exit_code": exit_code,
        "error": error,
        "max_rss_kb": max_rss_kb,
    }
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
