"""macrolens benchmark: one workload, one seed, one fresh battery process.

    python3 perfbench/run.py --workload fight-graph --seed 1 --seconds 30 --trace 0

Set-up is repeated ``SETUP_SAMPLES`` times: a fresh process generates and
writes the workload's manifest, then a fresh battery process imports
macrolens and reports ready.  The last battery process then runs the
workload's CLI battery back to back (one closed-loop client, no threads)
until ``--seconds`` is spent, checking every command's outputs against the
planted facts.  With ``--trace 1`` it then runs one more battery under the
span recorder, and the growth probes.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json,
or its ``per_layer`` metrics with --trace 1).  Lines before it print every
figure by name with its unit.  Runs write only under ``.perfbench/`` in
the checkout; the run directory is removed at exit and the span trace of a
traced run is kept in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from worker import REFERENCE_LOOP_S

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # numpy's BLAS must not start worker threads
    return env


def _setup_and_run(args, run_dir: Path, log) -> tuple[list[tuple[float, float]], list[float], dict]:
    """Set up ``SETUP_SAMPLES`` times, run the battery in the last worker.

    Each set-up is returned as (wall s, s rescaled to ``REFERENCE_LOOP_S``):
    the generating part is rescaled by the loop speed its process sampled,
    the part up to ``ready`` by the battery process's.
    """
    deadline = perf_counter() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(run_dir)]
    setups, synth_s = [], []
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        t0 = perf_counter()
        gen = subprocess.run(
            [sys.executable, str(WORKER), "generate", *common], env=_env(),
            stdout=subprocess.PIPE, stderr=log, text=True, timeout=deadline - t0,
        )
        generated_at = perf_counter()
        if gen.returncode != 0:
            raise BenchError(f"workload generation exited with {gen.returncode}")
        generated = json.loads(gen.stdout)
        synth_s.append(generated["synth_s"])
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        worker = subprocess.Popen(
            [sys.executable, str(WORKER), "battery", *common, *extra,
             *([] if last else ["--ready-only"])],
            env=_env(), stdout=subprocess.PIPE, stderr=log, text=True,
        )
        try:
            if not select.select([worker.stdout], [], [], max(deadline - perf_counter(), 1.0))[0]:
                raise subprocess.TimeoutExpired(worker.args, TIME_LIMIT_S)
            ready = worker.stdout.readline().split()
            ready_at = perf_counter()
            code = worker.wait(timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"battery process still running after {TIME_LIMIT_S} s")
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
            worker.stdout.close()
        if ready[:1] != ["ready"] or code != 0:
            raise BenchError(f"battery process exited with {code}")
        rescaled = ((generated_at - t0) / generated["loop_s"]
                    + (ready_at - generated_at) / float(ready[1])) * REFERENCE_LOOP_S
        setups.append((ready_at - t0, rescaled))
    return setups, synth_s, json.loads((run_dir / "result.json").read_text(encoding="utf-8"))


def _operations(result: dict, n_commands: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems); a battery whose output tree differs
    from the first battery's fails all its commands."""
    batteries = result["batteries"] + ([result["traced"]] if "traced" in result else [])
    first = batteries[0]["hash"]
    failed, problems = 0, []
    for i, b in enumerate(batteries):
        if b["hash"] != first:
            failed += n_commands
            problems.append(f"battery {i}: output tree differs from battery 0")
        else:
            failed += len({p.split(":")[0] for p in b["failures"]})
        problems += [f"battery {i}: {p}" for p in b["failures"]]
    return len(batteries) * n_commands, failed, problems


def _figures(args, setups, synth_s, result, attempted, failed) -> dict[str, float]:
    runs = result["batteries"]
    figures = {
        "battery_kref": statistics.median(r["kref"] for r in runs),
        "battery_s": statistics.median(r["seconds"] for r in runs),
        "setup_s": statistics.median(rescaled for _, rescaled in setups),
        "setup_wall_s": statistics.median(wall for wall, _ in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": failed / attempted,
    }
    if args.trace:
        figures.update(result["layers"])
        figures["synth.generate_s"] = statistics.median(synth_s)
        for label in {workloads.label(c) for b in workloads.BATTERIES.values() for c in b}:
            times = [r["commands"][label] for r in runs if label in r["commands"]]
            figures[f"cli.{label}_s"] = statistics.median(times) if times else 0.0
    return figures


def _shape(figures: dict[str, float], traced: float) -> list[str]:
    """Shares of the traced battery (``traced`` s) that say which layers a workload loads."""
    share = lambda *names: sum(figures[n] for n in names) / traced
    return [
        f"graph+betweenness+features share {share('timelines.coauthor_graph_s', 'analytics.betweenness_s', 'fights.features_s'):.3f}",
        f"extraction share {share('extraction.extract_s'):.3f}",
        f"glue share {share('cli.glue_s'):.3f}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BATTERIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "macrolens" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: no macrolens sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        with open(run_dir / "stderr.log", "w", encoding="utf-8") as log:
            setups, synth_s, result = _setup_and_run(args, run_dir, log)
        if args.trace:
            traces = work / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copyfile(run_dir / "trace.json", traces / f"{args.workload}-seed{args.seed}.json")
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        log_path = run_dir / "stderr.log"
        if log_path.is_file():
            sys.stderr.write(log_path.read_text(encoding="utf-8", errors="replace")[-4000:])
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    n_commands = len(workloads.BATTERIES[args.workload])
    attempted, failed, problems = _operations(result, n_commands)
    figures = _figures(args, setups, synth_s, result, attempted, failed)
    for p in problems:
        print(f"FAILED {p}")
    runs = result["batteries"]
    print(f"{args.workload} seed {args.seed}: battery_kref and battery_s medians of {len(runs)} "
          f"batteries, setup_s median of {len(setups)} set-ups")
    print("batteries (kref wall/cpu s): " + " ".join(
        f"{r['kref']:.3f} {r['seconds']:.3f}/{r['cpu_s']:.3f}" for r in runs))
    print("set-ups (rescaled wall s): " + " ".join(f"{r:.3f} {w:.3f}" for w, r in setups))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # printed for reference; their host noise exceeds any useful bound
    units.update(battery_s="s", setup_wall_s="s")
    for name, value in figures.items():
        print(f"{name} {value:.6g} {units[name]}")
    if args.trace:
        print("shape: " + "; ".join(_shape(figures, result["traced"]["seconds"])))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
