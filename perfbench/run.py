"""orgflow benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload optimize-readme --seed 7 \
        --seconds 20 --trace 0

Run it from the root of a source checkout; it imports orgflow from
src/ and exits with status 2, printing no result, when that is missing.

Set-up writes the workload's scenario files from --seed, then times
fresh interpreters that import orgflow and load those files (setup_s,
the median of several). The body then runs back to back in this process,
each call starting when the previous one returned, until --seconds have
passed; wall_s is the median body time. Every body's outputs are checked
after its timer stops.

--trace 1 alternates untraced bodies with bodies whose layer calls are
wrapped (see tracing.py) and reports the per-layer metrics instead of the
end-to-end ones. The metric names and units come from BENCHMARK.json. The
last line of stdout is the JSON result; a fuller record, with the
environment, goes to .perfbench_out/<workload>/seed<N>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS, Checks, compare_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

# runs in a fresh interpreter: import, then load every scenario file
SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import orgflow.cli
from orgflow.config import load_config
t1 = time.perf_counter()
for path in sys.argv[2:]:
    load_config(path)
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(inputs: list[Path]) -> list[tuple[float, float, float]]:
    """(wall, import, load) seconds of fresh interpreters doing set-up.

    One unmeasured start first, so every measured one finds the bytecode
    cache written and the files in the page cache.
    """
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *map(str, inputs)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        wall = time.perf_counter() - t0
        if i:
            import_s, load_s = json.loads(done.stdout.splitlines()[-1])
            samples.append((wall, import_s, load_s))
    return samples


def git_revision() -> str | None:
    """HEAD of the checkout's git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, samples: dict) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "orgflow").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def run_bodies(workload, prep, args, reference, checks, tracer):
    """Closed loop of bodies for --seconds; every body checked untimed.

    With --trace, odd bodies run with the tracer's wrappers installed.
    Returns the untraced and traced wall times, the traced run ids, and
    the peak RSS after the first body, before any check parses outputs.
    """
    walls: list[float] = []
    traced_walls: list[float] = []
    traced_runs: list[int] = []
    peak_rss_mb = None
    start = time.perf_counter()
    rep = 0
    min_reps = 2 if args.trace else 1
    while rep < min_reps or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and rep % 2 == 1
        try:
            if traced:
                tracer.install(rep)
            try:
                t0 = time.perf_counter()
                outcome = workload.body(prep)
                wall = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.remove()
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if traced:
                traced_walls.append(wall)
                traced_runs.append(rep)
            else:
                walls.append(wall)
            workload.check(prep, outcome, checks)
            if reference is not None:
                compare_digest(workload.digest(prep, outcome), reference,
                               checks, workload.name)
        except Exception:  # a failing body counts against error_rate
            traceback.print_exc()
            checks.check(False, f"body {rep} raised")
        rep += 1
    return walls, traced_walls, traced_runs, peak_rss_mb


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orgflow" / "__init__.py").is_file():
        print(f"perfbench: no orgflow sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work_dir = OUT / workload.name / f"seed{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    prep = workload.prepare(args.seed, work_dir)
    setup = setup_samples(prep.inputs)
    workload.load(prep)
    reference = None
    if prep.matches_reference:
        reference = json.loads((HERE / "reference.json").read_text())[workload.name]

    checks = Checks()
    tracer = tracing.Tracer()
    walls, traced_walls, traced_runs, peak_rss_mb = run_bodies(
        workload, prep, args, reference, checks, tracer)

    if not walls or (args.trace and not traced_walls):
        for message in checks.messages:
            print(f"check failed: {message}", file=sys.stderr)
        print("perfbench: no body completed; nothing to report",
              file=sys.stderr)
        return 1
    values: dict[str, float] = {"wall_s": statistics.median(walls)}
    values["setup_s"] = statistics.median(s[0] for s in setup)
    values["cli.import_s"] = statistics.median(s[1] for s in setup)
    values["config.load_s"] = statistics.median(s[2] for s in setup)
    values["peak_rss_mb"] = peak_rss_mb
    plans = workload.plans(prep)
    node_steps = workload.node_steps(prep)
    values["plans_per_s"] = plans / values["wall_s"]
    values["node_steps_per_s"] = node_steps / values["wall_s"]
    if traced_runs:
        values.update(tracing.layer_metrics(tracer, traced_runs))
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        first = tracing.exact_counts(tracer, traced_runs[0])
        for run in traced_runs[1:]:
            checks.check(tracing.exact_counts(tracer, run) == first,
                         f"exact counts of traced body {run} differ")
        checks.check(first["transport.node_steps"] == node_steps,
                     f"traced node-steps {first['transport.node_steps']} "
                     f"vs {node_steps} from the scenario")
        if first["optimize.objective_calls"]:
            checks.check(first["optimize.objective_calls"] == plans,
                         f"objective calls {first['optimize.objective_calls']}"
                         f" vs {plans} from the GA settings")
        tracer.save(work_dir / "spans.npz")

    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    samples = {"setup": len(setup), "bodies": len(walls),
               "traced_bodies": len(traced_walls), "checks": checks.attempted}
    record = {
        "environment": environment(args, samples),
        "values": values,
        "body_walls_s": walls,
        "traced_walls_s": traced_walls,
        "setup_walls_s": [s[0] for s in setup],
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "error_rate": error_rate, "failures": checks.messages},
    }
    (work_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))

    print(f"perfbench {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} untraced and {len(traced_walls)} traced bodies, "
          f"{len(setup)} set-ups")
    env = record["environment"]
    print(f"environment: nproc {env['nproc']}, {env['cpu_model']}, "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, revision {env['git_revision']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        shown += [m["name"] for m in spec["per_layer"]]
    else:
        shown += [n for n in ("plans_per_s", "node_steps_per_s")
                  if values.get(n)]
    for name in shown:
        if name in values:
            print(f"  {name:28s} {values[name]:.6g} {units[name]}")
    print(f"  {'error_rate':28s} {error_rate:.6g} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
