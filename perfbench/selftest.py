#!/usr/bin/env python3
"""Self-test of the benchmark at toy scale; run from the repository root.

    python3 perfbench/selftest.py

Checks two things for every workload of BENCHMARK.json:
  * run.py prints the result line of the contract, and every metric that
    BENCHMARK.json names for the --trace mode, with its unit;
  * a deliberately wrong reference output is counted as a failure: the
    result says correct=false with failed >= 1, and the exit code is 1.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WRONG = {
    "cell": {"artifact": "0000000000000000:0"},
    "plan": {"plan_sha256": "0" * 64},
    "stream": {"answer": [0, 0, "0" * 64]},
    "report": {"dat_sha256": {}},
}


def run(workload, trace, references=None):
    argv = [sys.executable, RUN, "--workload", workload, "--scale", "toy",
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    if references:
        argv += ["--references", references]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(build_dir, exist_ok=True)
    wrong_path = os.path.join(build_dir, "selftest-wrong-reference.json")
    with open(wrong_path, "w") as f:
        json.dump({"toy": WRONG}, f)

    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{workload} --trace {trace}: exit {code}, "
                                f"result {result}")
                continue
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{workload}: result keys {sorted(result)}")
            for metric in bench[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} --trace {trace}: "
                                    f"{metric['name']} printed as {got}")
        code, result = run(workload, 0, references=wrong_path)
        if code != 1 or result is None or result["correct"] or \
                result["failed"] < 1:
            problems.append(f"{workload}: wrong reference not counted as a "
                            f"failure (exit {code}, result {result})")
        print(f"{workload}: checked", flush=True)
    os.remove(wrong_path)

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
