"""The singlat benchmark: four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout; nothing needs installing. A run builds
the workload's inputs from the seed, then runs rounds until `--seconds`
have passed and at least `MIN_OPS` operations and `MIN_ROUNDS` rounds are
done. Every round is a fresh interpreter (`worker.py`) that runs the same
fixed list of operations, so no value cached by one round serves another,
and every round pays its own set-up. The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`). A record
of the run, with its inputs and every latency, goes to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = tuple(inputs.GENERATORS)
MIN_OPS = 100
MIN_ROUNDS = 5
ROUND_TIMEOUT_S = 150
PER_LAYER = tuple(tracing.TIMED) + tracing.COUNTS + tuple(tracing.RATES) + (
    "cli.import_ms", "cli.interpreter_ms", "traced.wall_s")
UNITS = {"_per_s": "1/s", "_ms": "ms", "_s": "s", "_mb": "MiB"}


class RoundFailed(Exception):
    pass


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():  # "_per_s" before "_s"
        if name.endswith(suffix):
            return unit
    return "count"


def clean_env() -> dict:
    """The caller's environment with this checkout's `src` first on the path
    and `SINGLAT_BOX` removed, so neither an install nor a setting can
    change the work."""
    env = dict(os.environ)
    env.pop("SINGLAT_BOX", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + rest if rest else "")
    return env


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def stop(proc: subprocess.Popen) -> None:
    """End a worker that is still running (it ends its own children on
    SIGTERM) and wait for it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so `finally` blocks stop the children."""
    def handler(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, handler)


def run_round(job: dict, trace: bool, env: dict) -> dict:
    kernel_before = calibration.kernel_s()
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, err = proc.communicate(json.dumps({"job": job, "trace": trace}),
                                    timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"a round of {job['workload']} ran past {ROUND_TIMEOUT_S} s")
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited with {proc.returncode}:\n{err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - started
    result["setup_s"] = result["raw_setup_s"] * calibration.scale(kernel_before,
                                                                  result["first_kernel_s"])
    result["scaled"] = [t * f for t, f in zip(result["latencies"], result["scales"])]
    result["wall_s"] = sum(result["scaled"])
    return result


def robust_wall(rounds) -> float:
    """Wall time of the fixed list of operations: the sum over operations
    of each one's median latency across the rounds. The CPU's speed drifts
    on a scale of seconds, so a per-operation median resists a slow second
    that one round's plain total would absorb."""
    per_op = zip(*(r["scaled"] for r in rounds))
    return sum(statistics.median(samples) for samples in per_op)


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    job = inputs.build(workload, seed)
    env = clean_env()
    rounds = []
    started = time.monotonic()
    attempted = 0
    while (time.monotonic() - started < seconds or attempted < MIN_OPS
           or len(rounds) < MIN_ROUNDS):
        rounds.append(run_round(job, trace, env))
        attempted += len(job["ops"])
    latencies = [x for r in rounds for x in r["scaled"]]
    failures = [f for r in rounds for f in r["failures"]]
    mismatches = [m for r in rounds for m in r["mismatches"]]
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in rounds)
                   for name in PER_LAYER if name != "traced.wall_s"}
        metrics["traced.wall_s"] = robust_wall(rounds)
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "wall_s": robust_wall(rounds),
            "op_p50_ms": percentile(latencies, 50) * 1000.0,
            "op_p90_ms": percentile(latencies, 90) * 1000.0,
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024.0,
        }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "rounds": len(rounds), "ops_per_round": len(job["ops"]),
        "attempted": attempted, "failed": len(failures),
        "correct": not mismatches, "failures": failures[:20], "mismatches": mismatches[:20],
        "metrics": metrics, "job": job,
        "round_results": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
        "spans": [r.get("spans", []) for r in rounds],
    }


def write_record(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    spans = record.pop("spans")
    if record["trace"]:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for index, round_spans in enumerate(spans):
                for name, start, end, op, parent in round_spans:
                    fh.write(json.dumps({"round": index, "name": name, "start": start,
                                         "end": end, "op": op, "parent": parent}) + "\n")
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def report(record: dict) -> dict:
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in record["metrics"].items()}}


def self_check() -> int:
    """One untraced and one traced round of every workload on seed 0."""
    env = clean_env()
    bad = 0
    for workload in WORKLOADS:
        job = inputs.build(workload, 0)
        for trace in (False, True):
            result = run_round(job, trace, env)
            problems = result["failures"] + result["mismatches"]
            if trace:
                missing = [m for m in PER_LAYER if m != "traced.wall_s"
                           and m not in result["layers"]]
                problems += [f"per-layer metric {m} missing" for m in missing]
            bad += bool(problems)
            print(f"{workload:14s} trace={int(trace)} ops={len(job['ops']):3d} "
                  f"wall={result['wall_s']:.3f}s setup={result['setup_s']:.3f}s "
                  f"{'ok' if not problems else 'FAIL'}")
            for line in problems[:10]:
                print("   ", line)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once on seed 0 and check its outputs")
    args = parser.parse_args(argv)
    exit_on_sigterm()
    if not (ROOT / "src" / "singlat" / "__init__.py").is_file():
        sys.stderr.write(f"error: no singlat sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    # Every process of a run is sequential: keep them all on one CPU, so the
    # calibration kernel reads the speed of the core the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # compile once so that cold starts read bytecode, as an installed package does
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    path = write_record(record)
    for line in record["failures"] + record["mismatches"]:
        print(line)
    print(f"# {args.workload} seed={args.seed} rounds={record['rounds']} "
          f"ops/round={record['ops_per_round']} sha={record['git_sha']} "
          f"python={record['python']} record={path.relative_to(ROOT)}")
    print(json.dumps(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
