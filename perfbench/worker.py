"""Child processes of one benchmark run.

``generate``: build a workload's manifest and planted facts from the seed.
``battery``: import macrolens, say ``ready`` on stdout, then run the
workload's CLI battery back to back through ``macrolens.cli.run`` until the
time budget is spent, check every command's outputs, and (with --trace 1)
run one more battery under the recorder plus the growth probes.  Results go
to ``result.json`` in the run directory; the optional trace to
``trace.json``.

Every battery also reports ``kref``, its CPU time in units of the host's
speed while it ran: the shared host this benchmark was tuned on changes
speed by up to 2x within seconds (CPU time equals wall time, and no steal
time shows), so raw times of one battery spread more than any useful
bound.  ``SpeedSampler`` times a fixed pure-Python reference loop every
``SAMPLE_PERIOD_S`` of wall time; the battery's ``kref`` is its CPU time
divided by the harmonic mean of the loop's CPU times sampled during it, in
thousands of loops.  A slower program raises it; a slower host does not.
CPU time, not wall time, so that time the battery process spends
descheduled behind other processes does not count as its work.  Both
set-up processes sample the same way and report the loop's harmonic mean
time, so the parent can rescale set-up time to ``REFERENCE_LOOP_S``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import checks
import tracing
import workloads


class _Capture(logging.Handler):
    """Collects the package's log messages for one command."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


SAMPLE_PERIOD_S = 0.05
# The loop's CPU time on the 2-vCPU host the benchmark was tuned on, in the
# faster of its two speed states; set-up times are rescaled to this speed.
REFERENCE_LOOP_S = 1.25e-4


def _reference_loop() -> int:
    """Fixed interpreter work, about 0.2 ms: dict updates and str conversions."""
    total, counts = 0, {}
    for i in range(600):
        counts[i & 63] = counts.get(i & 63, 0) + i
        total += len(str(i))
    return total


class SpeedSampler:
    """Times ``_reference_loop`` every ``SAMPLE_PERIOD_S`` from SIGALRM.

    The handler runs in the main thread between bytecodes, so it samples
    uniformly in wall time (a long C call only delays a sample), and costs
    about 0.5% of the battery.
    """

    def __init__(self):
        self.times: list[float] = []

    def sample(self, *_):
        t0 = process_time()
        _reference_loop()
        self.times.append(process_time() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_s(self, first: int = 0) -> float:
        """Harmonic mean of the loop times sampled from ``first`` on."""
        return 1 / statistics.fmean(1 / t for t in self.times[first:])

    def kref(self, first: int, cpu_s: float) -> float:
        """``cpu_s`` in thousands of loops at the speed sampled from ``first`` on."""
        return cpu_s / self.loop_s(first) / 1000


def _call(argv):
    """(exit code, error) of one CLI call; a SystemExit is always a failure."""
    from macrolens import cli

    try:
        return cli.run(argv), None
    except SystemExit as exc:
        return 1, f"SystemExit({exc.code!r})"
    except Exception as exc:  # the battery keeps going and counts the failure
        traceback.print_exc()
        return 1, repr(exc)


def battery(workload: str, run_dir: Path, out: Path, planted: dict, capture: _Capture,
            sampler: SpeedSampler, recorder=None) -> dict:
    """Run the battery once into ``out``, then check and hash its outputs."""
    manifest = run_dir / "manifest.jsonl"
    done = []
    first = len(sampler.times)
    sampler.sample()  # every battery has samples at its start and its end
    cpu = process_time()
    start = perf_counter()
    for command in workloads.BATTERIES[workload]:
        label = workloads.label(command)
        argv = [a.format(out=out) for a in command]
        if command[0] != "predict":
            argv += ["--corpus", str(manifest)]
        argv += ["--out", str(out / label)]
        capture.messages = []
        t0 = perf_counter()
        if recorder is None:
            code, error = _call(argv)
        else:
            recorder.command = label
            with recorder.span(f"cli.{label}"):
                code, error = _call(argv)
        done.append((command, label, perf_counter() - t0, code, error, capture.messages))
    seconds = perf_counter() - start
    cpu = process_time() - cpu
    sampler.sample()
    kref = sampler.kref(first, cpu)
    failures = []
    for command, label, _, code, error, messages in done:
        problems = [error or f"exit code {code}"] if error or code != 0 else []
        problems = problems or checks.check(command, out / label, planted, messages)
        failures += [f"{label}: {p}" for p in problems]
    digest = checks.tree_hash(out)
    shutil.rmtree(out)
    return {
        "seconds": seconds,
        "kref": kref,
        "cpu_s": cpu,
        "commands": {label: dt for _, label, dt, *_ in done},
        "failures": failures,
        "hash": digest,
    }


def run_batteries(workload: str, seed: int, run_dir: Path, seconds: float, trace: bool) -> dict:
    planted = json.loads((run_dir / "planted.json").read_text(encoding="utf-8"))
    capture = _Capture()
    logging.getLogger("macrolens").addHandler(capture)
    runs = []
    start = perf_counter()
    with SpeedSampler() as sampler:
        while True:
            runs.append(battery(workload, run_dir, run_dir / f"out{len(runs)}", planted, capture,
                                sampler))
            if perf_counter() - start + runs[-1]["seconds"] > seconds:
                break
    result = {"batteries": runs, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        recorder = tracing.Recorder(planted["damaged_ids"])
        recorder.install()
        try:
            with SpeedSampler() as sampler:
                traced = battery(workload, run_dir, run_dir / "traced", planted, capture, sampler,
                                 recorder)
        finally:
            recorder.uninstall()
        (run_dir / "trace.json").write_text(json.dumps(recorder.dump()), encoding="utf-8")
        layers = tracing.layer_metrics(recorder)
        layers["extraction.damaged_growth"] = tracing.damaged_growth(seed)
        layers["fights.title_match_growth"] = tracing.title_match_growth(seed)
        layers["fights.features_growth"] = tracing.features_growth(seed, run_dir)
        untraced = statistics.median(r["kref"] for r in runs)
        layers["trace.overhead_ratio"] = traced["kref"] / untraced - 1
        result.update(traced=traced, layers=layers)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("generate", "battery"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BATTERIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ready-only", action="store_true")
    args = parser.parse_args(argv)
    with SpeedSampler() as sampler:
        sampler.sample()
        if args.mode == "generate":
            planted = workloads.write(args.workload, args.seed, args.dir)
        else:
            import macrolens.cli  # noqa: F401  (import time is part of set-up)
        sampler.sample()
    if args.mode == "generate":
        print(json.dumps({"synth_s": planted["synth_s"], "loop_s": sampler.loop_s()}))
        return 0
    print(f"ready {sampler.loop_s()!r}", flush=True)
    if args.ready_only:
        return 0
    os.dup2(2, 1)  # nothing may block on the parent's pipe from here on
    result = run_batteries(args.workload, args.seed, args.dir, args.seconds, bool(args.trace))
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
