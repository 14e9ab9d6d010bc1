"""One measured process: set up one workload, run it once, check it.

``run.py`` starts a fresh interpreter with this file for every sample, so the
``lru_cache``s in melnlab start empty each time, as they do for a CLI user.
The process writes one JSON result file and exits 0, also when operations
failed; a non-zero exit means the harness itself broke.

    python3 perfbench/worker.py WORKLOAD SEED MODE SCRATCH RESULT [--small]

MODE is ``setup`` (stop once the inputs are ready), ``run`` or ``trace``.

Times are taken twice: wall clock, and CPU time of this process (user plus
system).  The process is single-threaded and CPU-bound, so on an idle
machine the two agree; on a shared virtual machine the wall clock also
counts time the host gave to other tenants, and CPU time does not.  CPU time
still follows the host's load, so a ``SpeedProbe`` times a short fixed loop
every ``PROBE_PERIOD_S`` of CPU time through the run; ``run.py`` scales the
run's time by the probes' mean.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

PROBE_ROUNDS = 40_000      # one probe: about 3 ms of a fixed loop
PROBE_PERIOD_S = 0.2       # CPU seconds between two probes during a run


def probe() -> float:
    """Time of a fixed pure-Python loop: the machine's speed right now.

    Wall clock, because this kernel accounts CPU time in 4 ms ticks, too
    coarse for a 3 ms loop; ``run.py`` drops the probes the host stalled.
    """
    start = perf_counter()
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        acc += (i % 7) * 0.5 - acc * 1e-9
    return perf_counter() - start


class SpeedProbe:
    """Probes once before, every PROBE_PERIOD_S of CPU time during, and once
    after the ``with`` block (SIGPROF).  ``inside`` is the probes' CPU time
    within the block, which the caller subtracts from the block's."""

    def __init__(self):
        self.times: list[float] = []
        self.inside = 0.0

    def _tick(self, signum, frame):
        self.times.append(probe())
        self.inside += self.times[-1]

    def __enter__(self):
        self.times.append(probe())
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.times.append(probe())


def main(argv: list[str]) -> int:
    workload, seed, mode, scratch, result_path = argv[:5]
    small = "--small" in argv[5:]
    with SpeedProbe() as setup_speed:
        import melnlab  # noqa: F401  (numpy, scipy and mpmath come with it)
        import workloads as wl

        job = wl.PREPARE[workload](int(seed), Path(scratch), small)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"ready": perf_counter(), "setup_probe_s": setup_speed.times,
              "setup_cpu_s": usage.ru_utime + usage.ru_stime - sum(setup_speed.times)}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        with SpeedProbe() as speed:
            start, start_cpu = perf_counter(), process_time()
            job.run()
            wall, cpu = perf_counter() - start, process_time() - start_cpu - speed.inside
        result["probe_s"] = speed.times
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics(wall)
        result.update(wall_s=wall, cpu_s=cpu)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        refs = json.loads((HERE / "references.json").read_text())
        outcome = job.check(refs)
        result.update(attempted=outcome.attempted, failed=outcome.failed,
                      reasons=outcome.reasons, digits=outcome.digits)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
