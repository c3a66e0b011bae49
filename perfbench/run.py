"""Benchmark of the graphgp command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports graphgp from
``src/``.  One process runs one workload: it writes the workload's dataset
directories, makes one untimed warm-up round of CLI calls, then repeats
rounds until ``--seconds`` have passed, checking every report written.
``all`` runs each workload in a fresh interpreter, one after another.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

    call_s       median over rounds of the wall time of one CLI call
    setup_s      median of several set-ups: a fresh interpreter importing
                 graphgp.cli, plus generating and writing the datasets
    peak_rss_mb  ru_maxrss of this process

With ``--trace 1`` untraced and traced rounds alternate and the last line
carries the per-layer metrics of tracing.py (medians over traced rounds),
plus ``trace.overhead_s``, the traced minus the untraced round time.  The
spans are written to ``.perfbench/spans-<workload>-seed<seed>.json``.
"""

import os

# pinned before numpy loads: one BLAS thread was as fast as two on a 2-core
# machine, and steadier
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from tracing import ROOT_SPAN, UNITS, Tracer, installed, summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("infer_exact", "infer_lowrank", "mc_verify", "depth_scan")
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": int(BLAS_THREADS),
    }


def timed_setup(workload: str, workdir: str, seed: int):
    """Median set-up seconds over SETUP_REPEATS, and the last set-up's calls."""
    from workloads import WORKLOADS  # graphgp loads only once main() found it

    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import graphgp.cli"],
                       env=env, cwd=ROOT, check=True)
        calls = WORKLOADS[workload](workdir, seed)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), calls


class Runner:
    """Makes the CLI calls of a round and counts attempted and failed ones."""

    def __init__(self, calls, workdir):
        from graphgp import cli
        from workloads import parse_report

        self.main = cli.main
        self.parse = parse_report
        self.calls = calls
        self.out = os.path.join(workdir, "report.txt")
        self.attempted = 0
        self.failed = 0
        self.devnull = open(os.devnull, "w")

    def close(self):
        self.devnull.close()

    def _invoke(self, argv):
        with contextlib.redirect_stdout(self.devnull), \
                contextlib.redirect_stderr(self.devnull):
            return self.main(list(argv) + ["--out", self.out])

    def round(self, tracer=None) -> float:
        """Wall seconds of the round's CLI calls; checks are not timed."""
        total = 0.0
        for call in self.calls:
            self.attempted += 1
            if os.path.exists(self.out):
                os.remove(self.out)
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self._invoke(call.argv)
                else:
                    with tracer.span(ROOT_SPAN):
                        code = self._invoke(call.argv)
            except (Exception, SystemExit):
                traceback.print_exc()
                code = None
            total += time.perf_counter() - start
            if code != 0:
                self.fail(call, f"exit code {code}")
                continue
            try:
                with open(self.out, encoding="utf-8") as fh:
                    problems = call.check(*self.parse(fh.read()))
            except (OSError, ValueError, KeyError, IndexError) as err:
                problems = [f"unreadable report: {err!r}"]
            if problems:
                self.fail(call, "; ".join(problems))
        return total

    def fail(self, call, why):
        self.failed += 1
        print(f"FAILED {' '.join(call.argv)}: {why}", file=sys.stderr)


def measure(args, workdir):
    setup_s, calls = timed_setup(args.workload, workdir, args.seed)
    runner = Runner(calls, workdir)
    try:
        runner.round()  # warm-up: lazy imports, first-touch allocations
        plain, traced = [], []
        tracer = Tracer()
        available = set()
        deadline = time.perf_counter() + args.seconds
        while not plain or time.perf_counter() < deadline:
            plain.append(runner.round())
            if args.trace:
                tracer.run = len(traced)
                with installed(tracer) as available:
                    traced.append(runner.round(tracer))
    finally:
        runner.close()

    info = {"workload": args.workload, "seed": args.seed, "rounds": len(plain),
            "calls_per_round": len(calls), **environment()}
    if args.trace:
        metrics = {k: (v, UNITS[k]) for k, v in summarize(tracer.spans, available).items()}
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain), "s")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
        info["traced_rounds"] = len(traced)
    else:
        metrics = {
            "call_s": (statistics.median(t / len(calls) for t in plain), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MiB"),
        }
    return runner, metrics, info


def run_one(args) -> int:
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner, metrics, info = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"environment": info}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {'missing' if value is None else format(value, '.6g')} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one at a time."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"[{name}] " + lines[0])
        for metric, entry in result["metrics"].items():
            value = entry["value"]
            shown = "missing" if value is None else format(value, ".6g")
            print(f"{name}  {metric} = {shown} {entry['unit']}")
            merged["metrics"][f"{name}.{metric}"] = entry
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphgp", "__init__.py")):
        print(f"error: no graphgp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
