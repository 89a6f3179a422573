"""proxrem benchmark: four workloads through the real program, every output checked.

Usage, from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload certify-corpus --seed 1729 --seconds 20 --trace 0

With ``--trace 0`` the run sets up ``SETUPS`` times, then repeats the
workload's fixed set of operations until they have taken ``--seconds`` in
all, and reports the end-to-end metrics.  With ``--trace 1`` it runs the
operations twice untraced and once traced in one process, compares their
output bytes, and reports the per-layer metrics.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.  Work files go to ``.perfbench-work/`` in the
checkout.  This launcher imports neither ``proxrem`` nor numpy, so its own
memory stays small: a child's max-RSS includes its parent's at spawn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, repeat  # noqa: E402

#: Set-ups per measured run; setup_s is their median.
SETUPS = 5
#: Every process of a run is killed once this much time has passed.
RUN_DEADLINE_S = 170.0
#: (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
)


class SetupError(RuntimeError):
    """A worker could not set up: the program or the checkout is unusable."""


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def op_latencies(flat: list[float], repetitions: int) -> list[float]:
    """Each operation's median latency over the repetitions; ``flat`` holds
    the repetitions one after another, each in operation order."""
    ops = len(flat) // repetitions
    return [statistics.median(flat[i::ops]) for i in range(ops)]


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.work = ROOT / ".perfbench-work" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        self.ready: list[dict] = []

    def _watchdog(self, proc: subprocess.Popen) -> threading.Timer:
        timer = threading.Timer(max(1.0, self.deadline - perf_counter()), proc.kill)
        timer.start()
        return timer

    def worker(self, mode: str) -> tuple[float, dict]:
        """Start a worker; return its set-up time and its final JSON line."""
        cmd = [sys.executable, "-m", "perfbench.worker", mode, "--workload", self.workload.name,
               "--seed", str(self.seed), "--seconds", str(self.seconds)]
        t0 = perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.PIPE)
        timer = self._watchdog(proc)
        try:
            first = proc.stdout.readline()
            setup_s = (perf_counter_ns() - t0) / 1e9
            rest = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
        if proc.returncode != 0 or not first:
            raise SetupError(f"worker {mode} exited with code {proc.returncode}")
        self.ready.append(json.loads(first))
        result = json.loads(rest.splitlines()[-1]) if rest.strip() else {}
        result["maxrss_kb"] = usage.ru_maxrss
        return setup_s, result

    def process_op(self, argv: tuple[str, ...]) -> tuple[int, int, str, int]:
        """Run one command as its own process: (ns, exit code, stdout, max-RSS KiB)."""
        cmd = [sys.executable, "-m", "proxrem.cli", *argv]
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = perf_counter_ns()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.PIPE, stderr=err)
            timer = self._watchdog(proc)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            ns = perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ns, proc.returncode, out.decode(), usage.ru_maxrss

    def measure(self) -> dict:
        setups = []
        served: dict = {}
        for k in range(SETUPS):
            mode = "serve" if self.workload.in_process and k == SETUPS - 1 else "prepare"
            setup_s, served = self.worker(mode)
            setups.append(setup_s)
        if not self.workload.in_process:
            ops, digest = self.workload.build(self.seed, self.work)
            if digest != self.ready[-1]["digest"]:
                raise SetupError("inputs differ between the worker and the launcher")
            peak_kb = 0

            def run_op(argv):
                nonlocal peak_kb
                ns, code, out, rss_kb = self.process_op(argv)
                peak_kb = max(peak_kb, rss_kb)
                return ns, code, out

            served = repeat(ops, self.seed, self.seconds, run_op)
            served["maxrss_kb"] = peak_kb
        walls = served["walls"]
        latencies = op_latencies([ns / 1e6 for ns in served["latencies_ns"]], len(walls))
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": served["maxrss_kb"] / 1024,
            "setup_s": statistics.median(setups),
            "op_p50_ms": quantile(latencies, 0.50),
            "op_p99_ms": quantile(latencies, 0.99),
        }
        return {
            "attempted": served["attempted"],
            "failed": served["failed"],
            "failures": served["failures"],
            "repetitions": len(walls),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
            "samples": {"setup_s": setups, "wall_s": walls, "ops": len(latencies)},
            "op_latencies_ms": latencies,
        }

    def traced(self) -> dict:
        _, result = self.worker("trace")
        result.pop("maxrss_kb")
        return result


def summary(args, run: Run, result: dict) -> list[str]:
    ready = run.ready[-1]
    m = ready["machine"]
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"machine nproc={m['nproc']} python={m['python']} numpy={m['numpy']} scipy={m['scipy']} ({m['platform']})",
        f"inputs sha256={ready['digest']} operations={ready['ops']}",
    ]
    if "repetitions" in result:
        lines.append(f"{result['repetitions']} repetitions of {result['samples']['ops']} operations; "
                     f"op_p50_ms and op_p99_ms are over the operations' median latencies")
    else:
        lines.append(f"untraced {result['untraced_s']:.3f} s, traced {result['traced_s']:.3f} s")
    for name, metric in result["metrics"].items():
        lines.append(f"{name:48s} {metric['value']!r} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    lines.append(f"{'error_rate':48s} {rate!r} ({result['failed']} failed of {result['attempted']} attempted)")
    lines.extend(f"FAILED {f}" for f in result["failures"])
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "proxrem" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'proxrem'}; run from a proxrem checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.traced() if args.trace else run.measure()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result["digest"] = run.ready[-1]["digest"]
    result["machine"] = run.ready[-1]["machine"]
    (run.work / "result.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(run.work / "inputs", ignore_errors=True)  # the digest and the seed identify them
    for line in summary(args, run, result):
        print(line)
    correct = result["failed"] == 0 and len({r["digest"] for r in run.ready}) == 1
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
