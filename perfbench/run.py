"""flip754 benchmark: four checked workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports flip754 from `src/` and
needs no install.  It first times fresh interpreters importing flip754
(`setup_s`, shared by every workload of the run).  Then for each workload it

1. writes the workload's seeded inputs under `perfbench/.work/`
   (timed apart, never part of a rate);
2. runs `worker.py` in a fresh interpreter, which times whole rounds of
   the workload for about `--seconds` seconds (default: `run_seconds`
   of BENCHMARK.json, per workload) and checks every output;
3. writes a provenance record to `perfbench/results/` and prints it,
   then prints the metrics with their units.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  With `--workload all` each metric
name is prefixed with its workload.  The exit code is 0 only when a
result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("campaign", "census", "sweep", "inject")
SETUP_RUNS = 25
# A run of one workload must end within 180 s: the rounds, one round past
# the deadline, the once-per-run checks and the set-up interpreters.
MAX_SECONDS = 60

# A fresh interpreter times `import numpy`, then the rest of `import flip754`.
_SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import flip754
t2 = time.perf_counter()
print(json.dumps({"numpy_s": t1 - t0, "flip754_self_s": t2 - t1}))
"""


def measure_setup() -> dict[str, float]:
    runs = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        runs.append(json.loads(out.stdout))
    return {
        "setup_s": statistics.median(r["numpy_s"] + r["flip754_self_s"] for r in runs),
        "setup.import_numpy_s": statistics.median(r["numpy_s"] for r in runs),
        "setup.import_flip754_self_s": statistics.median(r["flip754_self_s"] for r in runs),
    }


def write_inputs(workload: str, seed: int, work: Path) -> None:
    if workload == "sweep":
        words = inputs.sweep_words(seed)
        np.save(work / "sweep_words.npy", words)
        np.save(work / "sweep_subsample.npy", inputs.sweep_subsample(seed, words))
    elif workload == "inject":
        inputs.stream_words(seed).astype("<u8").tofile(work / "stream.bin")


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


# The random streams each workload uses: the program's own draws, and the
# benchmark's inputs (`inputs.rng_for`).  None where there are no draws.
RANDOM_STREAMS = {
    "campaign": {"program": ("Philox", "SeedSequence((seed, chunk))"), "inputs": None},
    "census": {"program": None, "inputs": None},
    "sweep": {"program": None, "inputs": ("PCG64", "SeedSequence((seed, 1)); subsample SeedSequence((seed, 3))")},
    "inject": {"program": ("Philox", "SeedSequence(seed)"),
               "inputs": ("PCG64", "SeedSequence((seed, 2)); ratio subsample SeedSequence((seed, 3))")},
}


def provenance(workload: str, seed: int, worker: dict) -> dict:
    streams = {
        who: dict(zip(("bit_generator", "seeding"), scheme)) if scheme else None
        for who, scheme in RANDOM_STREAMS[workload].items()
    }
    return {
        "flip754": worker["flip754"],
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "program_rng": streams["program"],
        "inputs_rng": streams["inputs"],
        "workload": workload,
        "workload_seed": seed,
        "chunk_size": {
            "campaign": inputs.CAMPAIGN_CHUNK,
            "census": 1 << 18,  # exhaustive_census default
            "sweep": inputs.SWEEP_CHUNK,
            "inject": None,
        }[workload],
        "workers": [1, 2] if workload == "campaign" else [1],
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def run_workload(spec: dict, setup: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run and check one workload; returns its record with the metrics `spec` names."""
    work = BENCH / ".work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        t0 = perf_counter()
        write_inputs(workload, seed, work)
        inputs_s = perf_counter() - t0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--work", str(work)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=2 * seconds + 60,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    if trace:
        # Tracer keys end in `.s` for every self time; metric names say `.self_s`
        # where a span's children are other layers.
        values = {**worker["layers"], **setup}
        metrics = {m["name"]: {"value": values.get(m["name"].replace(".self_s", ".s"), 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {**worker, **setup}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
        "provenance": provenance(workload, seed, worker),
        "detail": {
            "trace": trace,
            "inputs_s": inputs_s,
            "rounds": worker["rounds"],
            "flips_per_s": worker["flips_per_s"],
            "round_flips_per_s": worker["round_flips_per_s"],
            "parallel_flips_per_s": worker.get("parallel_flips_per_s"),
            "setup": setup,
            "problems": worker["problems"],
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--seconds", type=float,
                    help=f"timed length of each workload's rounds, at most {MAX_SECONDS} (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    args = ap.parse_args()
    if not (SRC / "flip754" / "__init__.py").is_file():
        print(f"run.py: no flip754 sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not 0 < seconds <= MAX_SECONDS:
        print(f"run.py: --seconds must lie in (0, {MAX_SECONDS}]", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        setup = measure_setup()
    except (subprocess.SubprocessError, ValueError, OSError) as exc:
        print(f"run.py: set-up: {exc}", file=sys.stderr)
        return 1
    for name in names:
        try:
            rec = run_workload(spec, setup, name, args.seed, seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=2) + "\n")
        print(json.dumps({"workload": name, "provenance": rec["provenance"], "record": str(path.relative_to(ROOT))}))
        for problem in rec["detail"]["problems"]:
            print(f"{name}: FAILED {problem}")
        print(f"{name}: attempted {rec['attempted']}, failed {rec['failed']}, rounds {rec['detail']['rounds']}")
        for metric, m in rec["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        if len(names) == 1:
            summary = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
        else:
            summary["correct"] &= rec["correct"]
            summary["attempted"] += rec["attempted"]
            summary["failed"] += rec["failed"]
            summary["metrics"].update({f"{name}.{k}": v for k, v in rec["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
