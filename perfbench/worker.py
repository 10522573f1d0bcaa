"""One round of a workload, in a fresh interpreter.

Reads `{"job": ..., "trace": bool}` from stdin, sets up, runs the job's
operations one at a time, checks every output against `checks` outside the
timed region, and prints one JSON line with the latencies, the failures,
the peak resident memory and, when traced, the spans and layer totals.

`ready` is `time.monotonic()` just before the first timed operation; the
parent subtracts the moment it started this process to get the set-up
time. The calibration kernel runs right after `ready` and after every
operation; `scales[i]` turns operation i's latency into a time at the
reference speed (see `calibration`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
TRACE_MARK = "PERFBENCH-TRACE "
BARE_STARTS = 5


class Round:
    def __init__(self, job, trace):
        self.job = job
        self.trace = trace
        self.specs = {name: inputs.decode(doc) for name, doc in job["graphs"].items()}
        self.latencies = []
        self.scales = []
        self.kernel = []         # kernel readings: after ready, then after each op
        self.failures = []
        self.mismatches = []
        self.spans = []
        self.counts = {}
        self.rate_time = {}
        self.import_ms = []      # (raw ms, op index; -1 for set-up)

    def calibrate(self):
        self.kernel.append(calibration.kernel_s())
        if len(self.kernel) > 1:
            self.scales.append(calibration.scale(self.kernel[-2], self.kernel[-1]))

    def scale_of(self, op):
        """Speed factor of operation `op`; set-up (-1) uses the first reading."""
        if op < 0:
            return calibration.REFERENCE_S / self.kernel[0]
        return self.scales[op]

    def judge(self, index, op, doc):
        name = op["graph"]
        command = op["argv"][0] if op["argv"] else "verify"
        try:
            checker = checks.check_transcript if op["argv"] is None else checks.CHECKS[command]
            checker(self.specs[name], doc, self.job["graphs"][name]["expect"])
        except (checks.Mismatch, KeyError, ValueError, TypeError) as exc:
            self.mismatches.append(f"op {index} {command} {name}: {type(exc).__name__}: {exc}")

    def merge_trace(self, spans, counts, rate_time, op):
        offset = len(self.spans)
        for name, start, end, own_op, parent in spans:
            self.spans.append([name, start, end, own_op if op is None else op,
                               None if parent is None else parent + offset])
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, pairs in rate_time.items():
            self.rate_time.setdefault(key, []).extend(
                [own_op if op is None else op, elapsed] for own_op, elapsed in pairs)

    def run_in_process(self):
        started = time.perf_counter()
        import singlat  # noqa: F401
        from singlat import cli, dsl, oracle
        self.import_ms.append(((time.perf_counter() - started) * 1000.0, -1))
        tracer = tracing.install() if self.trace else None
        texts = {name: spec.text() for name, spec in self.specs.items()}
        graphs = {}
        if self.job["workload"] == "corpus-verify":
            graphs = {name: dsl.parse(text).graph() for name, text in texts.items()}
        ready = time.monotonic()
        self.calibrate()
        for index, op in enumerate(self.job["ops"]):
            if tracer is not None:
                tracer.op = index
            doc = self.run_op(index, op, cli, oracle, graphs, texts)
            self.calibrate()
            if doc is not None:
                self.judge(index, op, doc)
        if tracer is not None:
            self.merge_trace(tracer.spans, tracer.counts, tracer.rate_time, None)
        return ready, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def run_op(self, index, op, cli, oracle, graphs, texts):
        """Run and time one operation; its output, or None when it failed."""
        t0 = time.perf_counter()
        try:
            if op["argv"] is None:
                g = graphs[op["graph"]]
                t0 = time.perf_counter()
                doc = oracle.verify_all(g)
                self.latencies.append(time.perf_counter() - t0)
                return doc
            sys.stdin = io.StringIO(texts[op["graph"]])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = cli.main(op["argv"])
                self.latencies.append(time.perf_counter() - t0)
            if code != 0:
                self.failures.append(f"op {index} {op['argv'][0]} {op['graph']}: "
                                     f"exit {code}: {err.getvalue().strip()}")
                return None
            return json.loads(out.getvalue())
        except Exception:  # an escaped exception is a failed operation
            if len(self.latencies) <= index:
                self.latencies.append(time.perf_counter() - t0)
            self.failures.append(f"op {index} {op['graph']}: {traceback.format_exc()}")
            return None
        finally:
            sys.stdin = sys.__stdin__

    def run_cold(self):
        env = os.environ.copy()
        prefix = [sys.executable, str(HERE / "traced_cli.py")] if self.trace else \
            [sys.executable, "-m", "singlat"]
        ready = time.monotonic()
        self.calibrate()
        for index, op in enumerate(self.job["ops"]):
            doc = self.run_cold_op(index, op, prefix, env)
            self.calibrate()
            if doc is not None:
                self.judge(index, op, doc)
        return ready, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def run_cold_op(self, index, op, prefix, env):
        """Run and time one command in a fresh process; its JSON output, or
        None when it failed."""
        t0 = time.perf_counter()
        proc = subprocess.run(prefix + op["argv"], capture_output=True, text=True, env=env,
                              timeout=120)
        self.latencies.append(time.perf_counter() - t0)
        stderr = proc.stderr
        if self.trace and TRACE_MARK in stderr:
            stderr, _, blob = stderr.rpartition(TRACE_MARK)
            data = json.loads(blob)
            self.import_ms.append((data["import_ms"], index))
            self.merge_trace(data["spans"], data["counts"], data["rate_time"], index)
        if proc.returncode != 0:
            self.failures.append(f"op {index} {' '.join(op['argv'])}: exit "
                                 f"{proc.returncode}: {stderr.strip()}")
            return None
        try:
            return json.loads(proc.stdout)
        except ValueError:
            self.mismatches.append(f"op {index} {' '.join(op['argv'])}: output is not JSON")
            return None

    def bare_starts_ms(self):
        """Scaled time of a bare `python -c pass`, the floor of a cold start."""
        times = []
        for _ in range(BARE_STARTS):
            before = calibration.kernel_s()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            elapsed = time.perf_counter() - t0
            times.append(elapsed * 1000.0 * calibration.scale(before, calibration.kernel_s()))
        return statistics.median(times)

    def run(self):
        if self.job["workload"] == "cli-cold":
            ready, peak_kb = self.run_cold()
        else:
            ready, peak_kb = self.run_in_process()
        result = {"ready": ready, "latencies": self.latencies, "scales": self.scales,
                  "first_kernel_s": self.kernel[0], "failures": self.failures,
                  "mismatches": self.mismatches, "peak_rss_kb": peak_kb}
        if self.trace:
            layers = tracing.summarize(self.spans, self.counts, self.rate_time, self.scale_of)
            layers["cli.import_ms"] = statistics.median(ms * self.scale_of(op)
                                                        for ms, op in self.import_ms)
            layers["cli.interpreter_ms"] = self.bare_starts_ms()
            result["layers"] = layers
            result["spans"] = self.spans
        return result


def main():
    # subprocess.run kills a running command when SystemExit passes through it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    payload = json.load(sys.stdin)
    result = Round(payload["job"], payload["trace"]).run()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
