"""The repository benchmark: one workload, one run.

    python3 perfbench/run.py --workload rescue20 --seed 1 --seconds 30 --trace 0

Runs the workload in a fresh Python process with a pinned hash seed, so
that set-up time and peak memory belong to that workload alone. Prints the
run's numbers as `name = value unit` lines, then, as the last line, one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
Exits 1 when an output fails the correctness gate and 2 when the program
cannot be run from this checkout. A copy of the full result, with the
machine record, goes to `.perfbench_out/`. See WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS

CHILD_TIMEOUT_S = 170


def machine_record() -> dict:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = fh.read().split()[:3]
    except OSError:
        load = [f"{x:.2f}" for x in os.getloadavg()]
    return {"loadavg": load, "nproc": os.cpu_count()}


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")
    if not (ROOT / "src" / "tlfrontier" / "__init__.py").is_file():
        print(f"error: no tlfrontier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = {"git_sha": git_sha(), "python": platform.python_version(), "start": machine_record()}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # SIGTERM ends this process through the `finally` below, which stops the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(2))
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    record["end"] = machine_record()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: the workload process exited with code {child.returncode}", file=sys.stderr)
        return 2
    out = json.loads(lines[-1])

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}; git {record['git_sha']}, "
          f"python {record['python']}, nproc {record['start']['nproc']}, "
          f"loadavg {' '.join(record['start']['loadavg'])} -> {' '.join(record['end']['loadavg'])}")
    for name in out["absent"]:
        print(f"# absent: {name} (its layer is not measured)")
    for problem in out["problems"]:
        print(f"# FAILED {problem}")
    for section in ("metrics", "info"):
        for name, m in out[section].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")

    out["machine"] = record
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    path = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({key: out[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
