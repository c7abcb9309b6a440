#!/usr/bin/env python3
"""End-to-end uMon pipeline benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload hadoop15_fine --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --fidelity --seed 7       # replay vs umon_sim

The benchmark package (perfbench/CMakeLists.txt) is configured and built in
Release mode under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
the first time it is needed, and runs pinned to one CPU (pin_to_one_cpu).
Each run's full report is copied to
<build>/results/, and a traced run's spans to <build>/results/*.spans.tsv.
The last line of stdout is the JSON result object; the exit code is non-zero
when the build fails or any output check fails.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["websearch25_bulk", "hadoop15_fine", "hadoop15_serve"]
RUN_TIMEOUT_S = 170

# umon_sim flags that run the same pipeline as one replay lap of each
# workload (same traffic, epoch length, uplink mode and collector shards).
UMON_SIM_FLAGS = {
    "websearch25_bulk": ["--workload", "websearch", "--load", "0.25",
                         "--health-interval", "5000", "--health-out", "{tmp}"],
    "hadoop15_fine": ["--workload", "hadoop", "--load", "0.15",
                      "--health-interval", "100", "--uplink-reliable"],
    "hadoop15_serve": ["--workload", "hadoop", "--load", "0.15",
                       "--health-interval", "500", "--health-out", "{tmp}"],
}
FIDELITY_KEYS = ("heavy flows evaluated:", "avg cosine similarity:",
                 "avg relative error:", "report bandwidth:")


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build(targets):
    out = build_dir()
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: uMon sources (src/) not found next to perfbench/")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out


def git_sha():
    if not pathlib.Path(".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def pin_to_one_cpu():
    """Confines the benchmark process, and every thread it starts, to one CPU.

    On a shared virtual machine a wake-up sent to another, idle vCPU waits
    for the host to schedule that vCPU; that delay swings by several times
    from one minute to the next and made handoff-heavy runs spread past
    their bounds. On one CPU a handoff is a local context switch.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(out, workload, seed, seconds, trace):
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = out / "work" / f"{workload}-{os.getpid()}"
    stem = results / f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(out / "umon_pipeline_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--git-sha", git_sha()]
    if trace:
        cmd += ["--spans-out", f"{stem}.spans.tsv"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False,
                              preexec_fn=pin_to_one_cpu)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    stem.with_suffix(".txt").write_text(done.stdout)
    return done.returncode, done.stdout


def fidelity(seed, workloads):
    """One replay lap must print umon_sim's accuracy and bandwidth lines."""
    out = build(["umon_pipeline_bench", "umon_sim_ref"])
    tmp = out / "fidelity"
    tmp.mkdir(parents=True, exist_ok=True)
    ok = True
    for w in workloads:
        flags = [f.replace("{tmp}", str(tmp / f"{w}.health.jsonl"))
                 for f in UMON_SIM_FLAGS[w]]
        ref = subprocess.run([str(out / "umon_sim_ref"), "--ms", "20", "--seed",
                              str(seed), "--collector-shards", "2", *flags],
                             capture_output=True, text=True, check=False)
        rep = subprocess.run([str(out / "umon_pipeline_bench"), "--workload", w,
                              "--seed", str(seed), "--seconds", "1", "--trace", "0",
                              "--work-dir", str(tmp / w), "--fidelity"],
                             capture_output=True, text=True, check=False)
        want = [l.strip() for l in ref.stdout.splitlines() if l.strip().startswith(FIDELITY_KEYS)]
        got = [l.strip() for l in rep.stdout.splitlines() if l.strip().startswith(FIDELITY_KEYS)]
        same = ref.returncode == 0 and rep.returncode == 0 and len(want) == 4 and want == got
        ok = ok and same
        print(f"{w} seed {seed}: {'identical' if same else 'MISMATCH'}")
        for a, b in zip(want, got):
            print(f"  umon_sim: {a:45s} replay: {b}")
    shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="one of %s, or all" % WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fidelity", action="store_true",
                    help="check one replay lap against umon_sim instead of measuring")
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        ap.error(f"unknown workload {args.workload}")
    if args.fidelity:
        return fidelity(args.seed, names)
    out = build(["umon_pipeline_bench"])
    worst = 0
    for name in names:
        code, stdout = run_workload(out, name, args.seed, args.seconds, args.trace)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
