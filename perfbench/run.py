"""End-to-end and per-layer benchmark for the ebggm command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and the
package is imported from its `src/`.  Each iteration of a workload is one
fresh single-threaded Python process (perfbench/worker.py) that imports
`ebggm.cli` and calls `ebggm.cli.main(argv)` on inputs generated here from
--seed before timing starts; iteration i uses the i-th dataset of the seed.
Iterations repeat until S seconds have passed (at least one), one at a time:
a closed loop with one client.  After each iteration its outputs are
checked (perfbench/checks.py) outside the timed region.

--trace 0 reports the end-to-end metrics, medians over iterations:
  wall_s       spawn to exit of the workload process
  setup_s      spawn to `ebggm.cli` imported (interpreter, numpy, scipy)
  throughput   work items / (wall_s - setup_s): MH steps including burn-in
               for the sample workloads, SAEM iterations for bench9-fit,
               graphs scored for exact-p6 (18,154 + 822 x 60)
  peak_rss_mb  maximum resident set size of the workload process
Times are in reference seconds: measured seconds x PROBE_REF_S / the run's
median time of a probe process that only imports numpy, run before the first
iteration and after each one, outside the timed region.  The probe runs no
ebggm code; it takes out the drift in machine speed that moves every time of
a run together (perfbench/README.md).  The measured values are in the
details line.
--trace 1 runs each dataset twice, untraced and traced (perfbench/spans.py),
and reports the per-layer metrics of the traced runs plus trace.overhead_s,
the traced minus the untraced wall time.

The last line of standard output is the result object; the line before it
holds the details (quartiles, every per-layer metric, input hashes,
versions, fail_frac).  The same details are kept under perfbench/work/.
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
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
ITERATION_TIMEOUT_S = 60
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
E2E_METRICS = ("wall_s", "setup_s", "throughput", "peak_rss_mb")
PROBE_ARGV = ("-c", "import numpy")
PROBE_REF_S = 0.2   # nominal probe time; it sets the scale of reference seconds


@dataclass(frozen=True)
class Workload:
    dataset: str
    argv: tuple
    work: int          # items counted by the throughput metric
    check: object      # check(bench, out_dir, inputs, spec) -> problems
    extra: str = ""    # dataset for the library call made after the command
    prepare: object = None  # prepare(bench), run before the timed loop


def _sample_argv(tau, r, n_steps, n_burn):
    return ("sample", "--kernel", "alternate", "--tau", str(tau), "--r", str(r),
            "--n-steps", str(n_steps), "--n-burn", str(n_burn))


def _sample_check(tau, r, n_steps, n_burn):
    def check(bench, out, data, spec):
        from ebggm.hiw import Hyperparams

        return bench.checks.check_sample(
            out, data["main"]["csv"], Hyperparams(tau=tau, r=r), n_steps,
            n_burn, bench.oracle, bench.check_rng)
    return check


def _fit_check(bench, out, data, spec):
    return bench.checks.check_fit(out, 9, FIT_ITERS)


def _exact_check(bench, out, data, spec):
    from ebggm.hiw import Hyperparams

    c = bench.checks
    return (c.check_exact(out, data["main"]["csv"], Hyperparams(), bench.oracle,
                          bench.check_rng)
            + c.check_mle(spec["mle_out"], data["extra"]["csv"], bench.oracle,
                          bench.check_rng))


def _exact_prepare(bench):
    # networkx needs about 5 s for every graph on 6 vertices; doing it before
    # the loop keeps that time from crowding out iterations.
    for p in (5, 6):
        bench.oracle.all_chordal(p)


# (tau, r, n_steps, n_burn).  The chains are shorter than the CLI default so
# that one run holds about ten iterations: on a shared 2-vCPU virtual machine
# the medians of fewer, longer iterations were too unsteady to compare.
SAMPLE9 = (0.25, 0.4, 10000, 1000)
SAMPLE25 = (0.5, 0.2, 800, 200)
FIT_ITERS = 300

WORKLOADS = {
    "bench9-sample": Workload("figure1", _sample_argv(*SAMPLE9),
                              SAMPLE9[2] + SAMPLE9[3], _sample_check(*SAMPLE9)),
    "p25-sample": Workload("p25", _sample_argv(*SAMPLE25),
                           SAMPLE25[2] + SAMPLE25[3], _sample_check(*SAMPLE25)),
    "bench9-fit": Workload("figure1", ("fit",), FIT_ITERS, _fit_check),
    "exact-p6": Workload("p6", ("exact",), 18154 + 822 * 60, _exact_check,
                         extra="p5", prepare=_exact_prepare),
}


def _summary(values):
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def fail_frac(records):
    """Share of iterations whose command failed or whose output check did."""
    return sum(1 for r in records if r["problems"]) / len(records)


def src_line_count(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def probe():
    """Seconds to start a Python process that imports numpy and exits."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, *PROBE_ARGV], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   env=dict(os.environ, **SINGLE_THREAD_ENV), cwd=ROOT,
                   timeout=ITERATION_TIMEOUT_S)
    return time.monotonic() - t0


def spawn_worker(spec, spec_path, err_path):
    """Run worker.py on spec; returns (t_spawn, t_exit, exit code, peak RSS MB)."""
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    with open(err_path, "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            env=env, cwd=ROOT)
        timer = threading.Timer(ITERATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t_spawn, t_exit, proc.returncode, usage.ru_maxrss / 1024.0


class Bench:
    """One benchmark run: inputs, iterations, checks and the summary."""

    def __init__(self, name, seed, trace, units):
        import numpy as np

        import checks
        import inputs

        self.name, self.seed, self.trace, self.units = name, seed, trace, units
        self.wl = WORKLOADS[name]
        self.dir = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.checks, self.inputs = checks, inputs
        self.oracle = checks.ChordalOracle()
        self.check_rng = np.random.default_rng([seed, 7])
        self.hashes = {}
        self.records = []
        self.probes = []

    def make_inputs(self, index):
        in_dir = os.path.join(self.dir, f"inputs{index}")
        got = {"main": self.inputs.make_dataset(self.wl.dataset, self.seed,
                                                index, in_dir)}
        if self.wl.extra:
            got["extra"] = self.inputs.make_dataset(self.wl.extra, self.seed,
                                                    index, in_dir)
        for d in got.values():
            self.hashes[f"{os.path.basename(d['csv'])}#{index}"] = d["sha256"]
        return got

    def iterate(self, index, data, traced):
        tag = f"it{index}{'t' if traced else ''}"
        out = os.path.join(self.dir, tag)
        spec = {"root": ROOT, "trace": traced,
                "argv": list(self.wl.argv) + ["--data", data["main"]["csv"],
                                              "--out-dir", out],
                "result_out": os.path.join(self.dir, tag + ".result.json"),
                "spans_out": os.path.join(self.dir, tag + ".spans.npz")}
        if "extra" in data:
            spec["mle_data"] = data["extra"]["csv"]
            spec["mle_out"] = os.path.join(self.dir, tag + ".mle.npy")
        err_path = os.path.join(self.dir, tag + ".stderr")
        t_spawn, t_exit, code, rss = spawn_worker(
            spec, os.path.join(self.dir, tag + ".spec.json"), err_path)
        rec = {"index": index, "traced": traced, "code": code}
        if code != 0:
            with open(err_path) as fh:
                rec["problems"] = [f"exit code {code}: {fh.read()[-2000:]}"]
            return rec
        with open(spec["result_out"]) as fh:
            result = json.load(fh)
        wall = t_exit - t_spawn
        setup = result["t_imported"] - t_spawn
        rec.update(wall_s=wall, setup_s=setup, peak_rss_mb=rss,
                   throughput=self.wl.work / (wall - setup))
        if traced:
            import spans

            own = spans.load_self_times(spec["spans_out"],
                                        result["trace"]["names"], t_exit)
            rec["layers"] = spans.layer_metrics(result["trace"]["counts"], own)
            rec["self_time_gap_s"] = sum(own.values()) - (wall - setup)
        rec["problems"] = self.wl.check(self, out, data, spec)
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def run(self, seconds):
        if self.wl.prepare is not None:
            self.wl.prepare(self)
        t0 = time.monotonic()
        index = 0
        self.probes.append(probe())
        while index == 0 or time.monotonic() - t0 < seconds:
            data = self.make_inputs(index)
            # With tracing, each dataset runs untraced and traced, in an order
            # that alternates so drift in machine speed cancels out of
            # trace.overhead_s.
            order = (index % 2 == 1, index % 2 == 0) if self.trace else (False,)
            for traced in order:
                self.records.append(self.iterate(index, data, traced))
            self.probes.append(probe())
            index += 1

    def result(self):
        """(details, result line); the line is None if a metric is missing."""
        import numpy as np
        import scipy

        failed = sum(1 for r in self.records if r["problems"])
        good = [r for r in self.records if not r["problems"]]
        plain = [r for r in good if not r["traced"]]
        scale = PROBE_REF_S / statistics.median(self.probes)
        factor = {"wall_s": scale, "setup_s": scale, "throughput": 1 / scale,
                  "peak_rss_mb": 1.0}
        details = {
            "workload": self.name, "seed": self.seed, "trace": self.trace,
            "argv": list(self.wl.argv),
            "fail_frac": fail_frac(self.records),
            "problems": [p for r in self.records for p in r["problems"]][:10],
            "probe_s": _summary(self.probes), "scale": scale,
            "e2e_measured": {k: _summary([r[k] for r in plain])
                             for k in E2E_METRICS} if plain else {},
            "inputs_sha256": self.hashes,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "src_lines": src_line_count(ROOT),
        }
        if self.trace:
            traced = [r for r in good if r["traced"]]
            untraced = {r["index"]: r["wall_s"] for r in plain}
            overhead = [r["wall_s"] - untraced[r["index"]]
                        for r in traced if r["index"] in untraced]
            values = {k: statistics.median(r["layers"][k] for r in traced)
                      for k in traced[0]["layers"]} if traced else {}
            if overhead:
                values["trace.overhead_s"] = statistics.median(overhead)
                details["max_self_time_gap_s"] = max(
                    abs(r["self_time_gap_s"]) for r in traced)
            details["layers"] = values
        else:
            values = {k: v["median"] * factor[k]
                      for k, v in details["e2e_measured"].items()}
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in self.units.items() if k in values}
        line = {"correct": failed == 0, "attempted": len(self.records),
                "failed": failed, "metrics": metrics}
        return details, line if len(metrics) == len(self.units) else None


def metric_units(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "ebggm", "cli.py")):
        print(f"error: no ebggm sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    bench = Bench(args.workload, args.seed, bool(args.trace),
                  metric_units(args.trace))
    bench.run(args.seconds)
    details, line = bench.result()
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", os.path.basename(bench.dir)
                           + ".json"), "w") as fh:
        json.dump({"details": details, "result": line,
                   "iterations": bench.records}, fh, indent=1)
    shutil.rmtree(bench.dir, ignore_errors=True)
    print(json.dumps({"details": details}))
    if line is None:
        print("error: a metric is missing; see the problems above",
              file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
