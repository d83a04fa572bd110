#!/usr/bin/env python3
"""End-to-end, per-layer benchmark of the IRACC realignment stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the repository libraries it links) into
.bench_build/, synthesizes the workload's input files from the seed,
runs the oracle on them, and then measures.  The last line of standard
output is the JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "iracc_perfbench"
WORKLOADS = ["wgs_file", "wgs_api_sw", "server_tenants"]
BUILD_TIMEOUT = 850
STEP_TIMEOUT = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_step(cmd, timeout, capture=False):
    """Run one child process to completion (it is killed and reaped on
    timeout).  Returns (exit code, stdout text or None)."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, timeout=timeout, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(map(str, cmd)))
        return 124, None
    except OSError as e:
        log("cannot run %s: %s" % (cmd[0], e))
        return 127, None
    return proc.returncode, proc.stdout


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no repository sources next to perfbench/")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc, _ = run_step(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"] + gen,
                         BUILD_TIMEOUT)
        if rc != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc, _ = run_step(["cmake", "--build", str(BUILD), "--target",
                      "iracc_perfbench", "-j", jobs], BUILD_TIMEOUT)
    return rc == 0 and BINARY.is_file()


def measure(workload, seed, seconds, trace, tiny=False, corrupt=False):
    """Synthesize, run, and return (exit code, stdout text)."""
    work = BUILD_ROOT / "work" / ("%s-%d-%d" % (workload, seed, os.getpid()))
    ledger = BUILD_ROOT / "ledger"
    traces = BUILD_ROOT / "traces"
    for d in (work, ledger, traces):
        d.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir",
              str(work), "--tiny", "1" if tiny else "0"]
    try:
        rc, _ = run_step([str(BINARY), "synth"] + common, STEP_TIMEOUT)
        if rc != 0:
            return rc or 1, None
        cmd = [str(BINARY), "run"] + common + [
            "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
            "--ledger", str(ledger),
            "--corrupt", "1" if corrupt else "0"]
        if trace:
            cmd += ["--trace-out",
                    str(traces / ("%s-seed%d.json" % (workload, seed)))]
        return run_step(cmd, STEP_TIMEOUT, capture=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_result(out):
    """The JSON result on the last stdout line, or None."""
    lines = (out or "").strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return res


def selftest():
    """Every workload at tiny size, traced and untraced: every metric
    BENCHMARK.json names is printed with its unit, the traced spans
    close the pass wall within 2%, and a corrupted output counts as
    failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        log("selftest: BENCHMARK.json workloads differ from " +
            ", ".join(WORKLOADS))
        return 1
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, out = measure(w, 7, 1, trace, tiny=True)
            res = parse_result(out)
            tag = "%s trace=%d" % (w, trace)
            if rc != 0 or res is None:
                problems.append(tag + ": no result (exit %d)" % rc)
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != expect[trace]:
                problems.append(tag + ": metrics/units differ: %s" % sorted(
                    set(got.items()) ^ set(expect[trace].items())))
            if not res["correct"] or res["failed"] != 0:
                problems.append(tag + ": outputs not correct")
            if trace:
                unattributed = res["metrics"][
                    "trace.unattributed_frac"]["value"]
                if abs(unattributed) > 0.02:
                    problems.append(tag + ": spans leave %.1f%% of the "
                                    "pass unattributed" % (100 * unattributed))
        rc, out = measure(w, 7, 1, 0, tiny=True, corrupt=True)
        res = parse_result(out)
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(w + ": corrupted output was not counted as "
                            "failed")
    for p in problems:
        log("selftest: " + p)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in (0, 3600]")

    if not build():
        log("build failed")
        return 1
    if args.selftest:
        return selftest()

    rc, out = measure(args.workload, args.seed, args.seconds, args.trace)
    if out:
        sys.stdout.write(out)
        sys.stdout.flush()
    if rc != 0:
        log("benchmark exited with code %d" % rc)
        return rc
    if parse_result(out) is None:
        log("benchmark printed no valid result line")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
