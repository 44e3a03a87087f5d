#!/usr/bin/env python3
"""CLI contract of the sweep and plan drivers, cgc_report and cgc_plan.

    cgc_report_cli_test.py <cgc_report> <cgc_plan>

A bad flag value is a usage error: exit 2 (util::kExitUsage) with a
message naming the value, before any work starts. --help exits 0, and
`cgc_report --list` prints the 22 case ids in sorted_cases() order.

Every command runs under CGC_BENCH_FAST=1 with throwaway CGC_BENCH_OUT
and CGC_BENCH_CACHE directories, so a build that wrongly starts a sweep
stays at smoke-test scale and then fails its exit-code check.
"""

import os
import shutil
import subprocess
import sys
import tempfile

# sorted_cases() order: figures, tables, ablations, extensions, each by id.
CASE_IDS = [
    "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12", "fig13",
    "tab01", "tab02", "tab03",
    "ablation_arrival", "ablation_constraints", "ablation_placement",
    "ablation_preemption", "ablation_tail",
    "ext_periodicity", "ext_prediction",
]

EXIT_OK = 0
EXIT_USAGE = 2


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return EXIT_USAGE
    report, plan = (os.path.abspath(exe) for exe in sys.argv[1:])
    failures = []
    with tempfile.TemporaryDirectory(prefix="cgc_cli_test_") as tmp:
        out = os.path.join(tmp, "out")
        env = dict(os.environ, CGC_BENCH_FAST="1", CGC_BENCH_OUT=out,
                   CGC_BENCH_CACHE=os.path.join(tmp, "cache"))
        env.pop("CGC_FAULT_SPEC", None)

        def expect(exe, args, code, named=None):
            label = " ".join([os.path.basename(exe), *args])
            proc = subprocess.run([exe, *args], cwd=tmp, env=env,
                                  capture_output=True, text=True,
                                  timeout=900, check=False)
            if proc.returncode != code:
                failures.append(f"{label}: exit {proc.returncode}, want "
                                f"{code}\n{proc.stderr[-1500:]}")
            elif named is not None and named not in proc.stderr:
                failures.append(f"{label}: stderr does not name "
                                f"{named!r}\n{proc.stderr[-1500:]}")
            if code == EXIT_USAGE and os.path.exists(
                    os.path.join(out, "report.json")):
                failures.append(f"{label}: a usage error still ran a sweep")
            shutil.rmtree(out, ignore_errors=True)
            return proc

        for exe in (report, plan):
            expect(exe, ["--help"], EXIT_OK)
        listed = expect(report, ["--list"], EXIT_OK)
        ids = [line.split()[0] for line in listed.stdout.splitlines()
               if line.strip()]
        if ids != CASE_IDS:
            failures.append(f"cgc_report --list: ids {ids}, want {CASE_IDS}")

        expect(report, ["--spawn", "four"], EXIT_USAGE, "four")
        expect(report, ["--spawn", "-2"], EXIT_USAGE, "-2")
        expect(report, ["--only", "fig02,fig99"], EXIT_USAGE, "fig99")
        expect(report, ["--shard", "4/4"], EXIT_USAGE, "4/4")
        expect(report, ["--merge", os.path.join(tmp, "s0"),
                        "--shard", "0/2"], EXIT_USAGE)
        expect(plan, ["--shard", "4/4"], EXIT_USAGE, "4/4")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print("cgc_report/cgc_plan CLI contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
