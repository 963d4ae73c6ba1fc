#!/usr/bin/env python3
"""Job benchmark entry point: builds the driver, runs one workload, and
prints every metric by name with its unit.

    python3 jobbench/run.py --workload wc_freq --seed 1 --seconds 15 --trace 0

Run from the repository root. The driver and the textmr library are
built from source in Release into .bench_build/jobbench (the first run
compiles for about a minute). --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Build output and progress go to standard error.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "jobbench")
WORK = os.path.join(ROOT, ".bench_build", "jobbench-work")
# Compiler and driver temp files stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
WORKLOADS = ("wc_freq", "invidx_hash", "join_tcp")
DRIVER_TIMEOUT_S = 150  # the whole command must end within 180 s


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("jobbench: no textmr sources under src/; run from a full checkout")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=ENV)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target", "jobbench"],
                   check=True, stdout=sys.stderr, env=ENV)
    return os.path.join(BUILD, "jobbench")


def run_driver(binary, args, out):
    """Runs the driver in its own process group so that the workers it
    forks are stopped with it on a timeout."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", WORK, "--out", out]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=ENV, start_new_session=True)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("jobbench: driver timed out")
    if code != 0:
        sys.exit(f"jobbench: driver exited with {code}")


def end_to_end(doc):
    """The end-to-end metrics of an untraced run."""
    timed = [j for j in doc["jobs"] if j["kind"] == "timed"]
    ok = [j for j in timed if j["ok"]]
    jobs = [j for j in doc["jobs"] if j["kind"] in ("warmup", "timed")]
    failed = sum(1 for j in jobs if not j["ok"])
    # With no successful job the run is already incorrect; 0 keeps the
    # result line valid JSON.
    wall = statistics.median(j["wall_s"] for j in ok) if ok else 0.0
    cpu = statistics.median(j["cpu_s"] for j in ok) if ok else 0.0
    rss = statistics.median(j["peak_rss_mb"] for j in ok) if ok else 0.0
    input_mb = doc["meta"]["input_bytes"] / 1e6
    return {
        "job_wall_s": (wall, "s", f"median of {len(ok)} timed jobs"),
        "input_mb_per_s": (input_mb / wall if wall else 0.0, "MB/s",
                           f"{input_mb:.3f} MB input / job_wall_s"),
        "cpu_s": (cpu, "s", "median user+sys per job, process + reaped workers"),
        "peak_rss_mb": (rss, "MB", "median per-job peak of the process tree"),
        "setup_s": (statistics.median(doc["setup_s"]), "s",
                    f"median of {len(doc['setup_s'])} set-ups"),
        "job_ok_fraction": ((len(jobs) - failed) / len(jobs), "fraction",
                            f"1 - failed_job_fraction; {failed} of {len(jobs)} jobs failed"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    kind = "traces" if args.trace else "results"
    out = os.path.join(WORK, kind, f"{args.workload}.json")
    if os.path.exists(out):
        os.remove(out)
    run_driver(binary, args, out)
    with open(out) as f:
        doc = json.load(f)

    meta = doc["meta"]
    print(f"jobbench {meta['workload']}: seed={meta['seed']} {meta['size']} "
          f"{meta['size_unit']} ({meta['input_bytes'] / 1e6:.3f} MB, "
          f"{meta['map_tasks']} map tasks, {meta['reducers']} reducers) on {meta['engine']}")
    print(f"build: {meta['build_type']} ({meta['cxx_flags']}), {meta['compiler']}, "
          f"lock_rank_checks={meta['lock_rank_checks']}, nproc={meta['nproc']}, "
          f"tokenizer={meta['tokenizer']}")
    print("set-up: " + ", ".join(f"{x:.3f}" for x in doc["setup_s"]) + " s; inputs obtained in "
          + ", ".join(f"{x:.3f}" for x in doc["input_obtain_s"]) + " s (generated, or verified in the cache)")
    failed_fraction = doc["failed"] / doc["attempted"]
    print(f"jobs: {doc['attempted']} attempted, {doc['failed']} failed, "
          f"failed_job_fraction={failed_fraction:.6g}")
    for job in doc["jobs"]:
        if not job["ok"]:
            print(f"  job {job['job']} ({job['kind']}) FAILED: {job['error']}")

    if args.trace:
        table = layers.derive(doc)
        print(f"per-layer metrics (trace file {os.path.relpath(out, ROOT)}):")
        print(layers.format_table(table))
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in table.items()}
    else:
        table = end_to_end(doc)
        for name, (value, unit, note) in table.items():
            print(f"  {name:<16} {value:>14.6g} {unit:<8} {note}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in table.items()}

    print(json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
