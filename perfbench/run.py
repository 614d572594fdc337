#!/usr/bin/env python3
"""Control-tick benchmark runner: build perfbench_tick from source, run one
workload, flag host comparability, and pass the result line through.

    python3 perfbench/run.py --workload edge_nominal --seed 1 --seconds 20 --trace 0

Run from the repository root. The build tree is $CARGO_TARGET_DIR when set,
else .bench_build; span dumps of traced runs land in <build>/run. The last
line of standard output is the benchmark's JSON result. Exits non-zero, with
no result line, when the program sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no program sources under {ROOT / 'src'}")
        return None
    exe = build_dir / "perfbench_tick"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("configure failed")
            return None
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench_tick",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        log("build failed")
        return None
    return exe


def comparability(host, reference):
    """Reasons this run is not comparable with the reference host."""
    reasons = []
    for key in ("nproc", "variant", "narrow_dp_variant"):
        if host.get(key) != reference[key]:
            reasons.append(f"{key} {host.get(key)} != {reference[key]}")
    lag = host.get("gen_lag_p99_ms", float("inf"))
    if lag > reference["max_gen_lag_p99_ms"]:
        reasons.append(f"gen.lag_ms.p99 {lag:.3f} > "
                       f"{reference['max_gen_lag_p99_ms']} ms")
    return reasons


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    exe = build(build_dir)
    if exe is None:
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out_dir", str(build_dir / "run")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3

    lines = out.rstrip("\n").splitlines()
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    for line in lines[:-1] if result else lines:
        print(line)
    if result is None:
        log(f"no result (exit {proc.returncode})")
        return proc.returncode or 4

    reference = json.loads((HERE / "host_reference.json").read_text())
    host = next((json.loads(l[len("host: "):]) for l in lines
                 if l.startswith("host: ")), {})
    reasons = comparability(host, reference)
    print("comparable: " + ("yes" if not reasons
                            else "no (" + "; ".join(reasons) + ")"))
    print(result, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
