#!/usr/bin/env python3
"""Benchmark the kbread command-line pipelines on seeded synthetic inputs.

Run from the root of a kbread checkout:

    python3 perfbench/run.py --workload ppa-train --seed 1 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``ppa-train``  train (EM) -> predict -> eval
* ``ppa-infer``  predict -> eval -> ternary-extract -> ternary-templates,
  reading a model written from planted weights
* ``knom``       knom-mine -> knom-learn -> knom-predict -> knom-predict --baseline

With ``--trace 0`` every command runs as its own child process of this one
script, as a user runs it, repeated until ``--seconds`` is spent; each
repetition also times ``kbread kb-check`` on the workload's knowledge base
(start-up, import and KB load, which every command pays). Times are
medians over the repetitions, rescaled to nominal machine speed by a fixed
reference task (perfbench/reftask.py) timed in every repetition. With
``--trace 1`` the same commands run once more in-process under the tracer
(perfbench/tracing.py) for per-layer figures. Every repetition checks the
outputs (perfbench/checks.py); a command fails when it exits non-zero, its
output check fails or its output differs byte-wise from the first
repetition.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(environment, input sizes, per-command samples, output SHA-256 digests)
is written to ``.bench_out/`` in the checkout, and, for a traced run, the
spans too.
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
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402

MIN_REPS = 3
#: Nominal time of perfbench/reftask.py. The machine this benchmark was
#: defined on runs at a speed that drifts by 20% over minutes; reported
#: times are rescaled by this over the run's median reference time.
REF_SECONDS = 0.6
STARTUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-command times, keyed by the command labels in perfbench/gen.py.
COMMAND_LABELS = ("train", "predict", "eval", "ternary", "knom_mine", "knom_learn",
                  "knom_predict")


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, env, log_path):
    """Run one process to completion; returns (seconds, exit code, peak RSS
    in MB) with the peak taken from the child's own rusage."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def kbread_argv(argv):
    return [sys.executable, "-m", "kbread.cli"] + list(argv)


class Tally:
    """Commands attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def setup(wl, env, log, tally, samples):
    """Time ``kbread kb-check``: start-up, import and KB load."""
    seconds, code, rss = run_child(kbread_argv(["kb-check", "--kb-dir", wl.kb_dir]), env, log)
    samples["setup"].append(seconds)
    samples["rss"].append(rss)
    tally.record(code == 0, f"kb-check exited {code}")


def reference_task(wl, env, log, tally, samples):
    """Time perfbench/reftask.py, which tracks the machine's speed only."""
    task = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reftask.py")
    seconds, code, _ = run_child([sys.executable, task, os.path.join(wl.kb_dir, "svo.tsv")],
                                 env, log)
    samples["ref"].append(seconds)
    tally.record(code == 0, f"reftask.py exited {code}")


def run_pipeline(wl, env, log, tally, first_digests, samples):
    """One repetition: the reference task, ``kb-check``, every command as a
    child process and the reference task again, then the output checks.
    Fills ``samples`` and returns the quality figure and the output
    digests."""
    reference_task(wl, env, log, tally, samples)
    setup(wl, env, log, tally, samples)
    codes, wall = [], 0.0
    per_label = {}
    for label, argv, _ in wl.commands:
        seconds, code, rss = run_child(kbread_argv(argv), env, log)
        codes.append(code)
        wall += seconds
        per_label[label] = per_label.get(label, 0.0) + seconds
        samples["rss"].append(rss)
    samples["wall"].append(wall)
    for label, seconds in per_label.items():
        samples.setdefault(label, []).append(seconds)
    reference_task(wl, env, log, tally, samples)
    failures, quality = checks.run_check(wl)
    digests = checks.output_digests(wl)
    record_commands(wl, codes, failures, digests, first_digests, tally)
    return quality, digests


def record_commands(wl, codes, failures, digests, first_digests, tally):
    """Count each command once: it fails on a non-zero exit, a failed
    output check, or output bytes that differ from the first repetition."""
    for i, (label, argv, outputs) in enumerate(wl.commands):
        problems = [msg for idx, msg in failures if idx == i]
        if codes[i] != 0:
            problems.append(f"exited {codes[i]}")
        if first_digests is not None:
            changed = [os.path.basename(p) for p in outputs
                       if digests.get(os.path.basename(p))
                       != first_digests.get(os.path.basename(p))]
            if changed:
                problems.append(f"output differs from the first run: {changed}")
        tally.record(not problems, f"{argv[0]}: {'; '.join(problems)}")


def measure(wl, env, log, tally, seconds, min_reps):
    """Repeat the pipeline until the next repetition would overrun
    ``seconds`` (at least ``min_reps`` times)."""
    samples = {"setup": [], "wall": [], "rss": [], "ref": []}
    first_digests, quality = None, 0.0
    deadline = time.perf_counter() + seconds
    reps = 0
    while True:
        t0 = time.perf_counter()
        quality, digests = run_pipeline(wl, env, log, tally, first_digests, samples)
        first_digests = first_digests or digests
        reps += 1
        rep_s = time.perf_counter() - t0
        if reps >= min_reps and time.perf_counter() + rep_s > deadline:
            break
    return samples, quality, first_digests, reps


def environment(root, args, wl):
    import numpy
    import scipy
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "platform": platform.platform(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes": wl.sizes,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def speed_scale(samples):
    """Factor that rescales this run's times to the nominal machine speed,
    at which the reference task takes REF_SECONDS."""
    return REF_SECONDS / median(samples["ref"])


def end_to_end(samples, quality):
    scale = speed_scale(samples)
    return {
        "wall_s": median(samples["wall"]) * scale,
        "setup_s": median(samples["setup"]) * scale,
        "peak_rss_mb": max(samples["rss"]),
        "quality": quality,
    }


def traced_run(wl, env, log, tally, args, out_prefix):
    """Untraced child-process repetitions for half the time budget, then one
    traced in-process replay; returns the per-layer metrics."""
    import tracing
    startup = []
    for _ in range(STARTUP_SAMPLES):
        seconds, code, _ = run_child([sys.executable, "-c", "import kbread.cli"], env, log)
        startup.append(seconds)
        tally.record(code == 0, f"import kbread.cli exited {code}")
    samples, _, first_digests, _ = measure(wl, env, log, tally, args.seconds / 2, 1)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import kbread.cli  # noqa: F401  imported before tracing, as start-up is measured above
    tracer = tracing.Tracer()
    codes = tracing.replay(wl.commands, tracer)
    tracer.write(out_prefix + "-spans.jsonl")
    failures, _ = checks.run_check(wl)
    record_commands(wl, codes, failures, checks.output_digests(wl), first_digests, tally)

    m = {"cli.startup_s": median(startup)}
    for label in COMMAND_LABELS:
        m[f"cli.{label}_s"] = median(samples.get(label, []))
    m.update(tracing.layer_metrics(tracer))
    wall = median(samples["wall"])
    m["trace.untraced_wall_s"] = wall
    # The replay pays no interpreter start-up per command; add it back so the
    # ratio compares like with like.
    comparable = m["trace.total_s"] + len(wl.commands) * m["cli.startup_s"]
    m["trace.overhead_frac"] = comparable / wall - 1.0 if wall else 0.0
    return m, first_digests


def metric_units(kind):
    """Units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(gen.SIZES), default="full",
                        help="input size; 'smoke' is the smallest, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kbread", "cli.py")):
        print("error: run from the root of a kbread checkout (src/kbread/cli.py not found)",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    log = os.path.join(out_dir, tag + ".log")
    os.makedirs(work)
    if os.path.exists(log):
        os.remove(log)
    extra = {}
    try:
        t0 = time.perf_counter()
        wl = gen.MAKERS[args.workload](work, args.seed, args.scale)
        record = {"generate_s": time.perf_counter() - t0}
        env = child_env(root)
        tally = Tally()
        # Untimed warm-up: byte-compiles the package in a fresh checkout.
        _, code, _ = run_child([sys.executable, "-c", "import kbread.cli"], env, log)
        if code != 0:
            print(f"error: kbread.cli does not import; see {log}", file=sys.stderr)
            return 2
        if args.trace:
            values, digests = traced_run(wl, env, log, tally, args,
                                         os.path.join(out_dir, tag))
            units = metric_units("per_layer")
            record.update(sha256=digests)
        else:
            samples, quality, digests, reps = measure(wl, env, log, tally, args.seconds,
                                                      MIN_REPS)
            values = end_to_end(samples, quality)
            units = metric_units("end_to_end")
            record.update(reps=reps, samples=samples, sha256=digests)
            scale = speed_scale(samples)
            extra = {f"{label}_s": median(samples[label]) * scale
                     for label in COMMAND_LABELS if label in samples}
            extra.update(raw_wall_s=median(samples["wall"]),
                         raw_setup_s=median(samples["setup"]), ref_s=median(samples["ref"]))
        extra["error_rate"] = tally.failed / max(1, tally.attempted)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        record.update(environment=environment(root, args, wl), metrics=metrics, extra=extra,
                      attempted=tally.attempted, failed=tally.failed,
                      failures=tally.messages)
        with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, item in metrics.items():
        print(f"{name:<36}{item['value']:>16.6g} {item['unit']}")
    for name, value in extra.items():
        print(f"{name:<36}{value:>16.6g} {'frac' if name == 'error_rate' else 's'}")
    for message in tally.messages:
        print("FAILED " + message)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
