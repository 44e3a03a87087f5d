#!/usr/bin/env python3
"""CLI contract of the sweep, plan and perf drivers: cgc_report, cgc_plan
and bench_perf.

    cgc_report_cli_test.py <cgc_report> <cgc_plan> <bench_perf>

A bad flag value is a usage error: exit 2 (util::kExitUsage) with a
message naming the value, before any work starts; so is `cgc_plan
--merge` with --shard or --resume. --help exits 0, and `cgc_report
--list` prints the 22 case ids in sorted_cases() order. A plan shard
checkpoint in a retired format (the `cgcplan v1` lines, or the JSON
body without a ledger stamp) reads as torn: `cgc_plan --merge` exits 1
asking for that shard to be rerun, and `--resume` quarantines it and
reruns the shard. `cgc_report --resume` over a torn report.json moves
it to report.json.corrupt and reruns to the clean run's outputs, as
`cgc_plan --resume` does with a torn checkpoint. A resume over a
narrower or different --only set counts only the cases in its set, runs
the ones missing, and keeps the other cases' records, so a later resume
over the wider set quarantines nothing and reruns nothing; under
--spawn, whose workers always resume, the narrower merge skips the
records they kept instead of refusing them. bench_perf runs
exactly one known leg: none, an unknown one or two are usage errors, and
its plan leg writes a record with the common frame whose thread runs
share one digest and fail no scenario. The trace cache has one tier:
a sweep that rebuilds deleted hostload_*.cgcs entries writes the same
outputs (file, crc, size) as the sweep that first built them. The
ablations that run their simulations concurrently print the same table
rows at CGC_THREADS=1 and 4 (they write no .dat, so no digest covers
them).

Every command runs under CGC_BENCH_FAST=1 with throwaway CGC_BENCH_OUT
and CGC_BENCH_CACHE directories, so a build that wrongly starts a sweep
stays at smoke-test scale and then fails its exit-code check.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import zlib

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
EXIT_FAILURE = 1
EXIT_USAGE = 2

# The head of a shard 1/2 checkpoint of `cgc_plan --matrix small` as the
# line-format writer sealed it (one row kept; the seal is recomputed).
V1_CHECKPOINT_BODY = (
    "cgcplan v1\n"
    "matrix small b7447036b73735e1\n"
    "shard 1/2\n"
    "complete 1\n"
    "R s9a1e895e806f617d 1 0.12411571330591743 0.16732074495624094 "
    "0.33598792847866815 0.37098778784275055 0.070675249965758122 0 0 0 0 "
    "4 0.5 48 1.9199999999999999 0.95999999999999996 1 3.1649506893008947 "
    "0.30332226130576906\n")

# The same shard as the JSON body written before the shard ledger: no
# `experiment` stamp, rows under `results` (one kept; the seal is
# recomputed).
JSON_CHECKPOINT_BODY = (
    '{"matrix": "small", "digest": 13205803387661530593,\n'
    ' "shard_index": 1, "shard_total": 2,\n'
    ' "complete": true,\n'
    ' "results": [\n'
    '  {"id": "s9a1e895e806f617d", "ok": false, "error": "transient: x"}]}\n')


def check_plan_record(path):
    """Problems with a bench_perf plan record, as failure lines."""
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        return [f"bench_perf plan: no readable record: {e}"]
    problems = [f"bench_perf plan: record lacks {key!r}" for key in
                ("bench", "fast_mode", "hardware_concurrency", "ram_gb",
                 "runs") if key not in record]
    if problems:
        return problems
    runs = record["runs"]
    if record["bench"] != "perf_plan" or not record["fast_mode"]:
        problems.append(f"bench_perf plan: bad frame {record}")
    if not (record.get("pass") and record.get("deterministic")):
        problems.append(f"bench_perf plan: not pass+deterministic {record}")
    if len(runs) < 2 or len({r.get("digest") for r in runs}) != 1:
        problems.append(f"bench_perf plan: want one digest, runs {runs}")
    if any(r.get("failed") != 0 for r in runs):
        problems.append(f"bench_perf plan: failed scenarios in {runs}")
    return problems


def rebuilt_hostload_problems(report, env, tmp):
    """Runs the two host-load cases twice on one cache, deleting the
    hostload_*.cgcs entries in between, and compares report.json
    outputs; returns failure lines."""
    cases = "fig13,ext_periodicity"
    cache = os.path.join(tmp, "hostload_cache")
    outputs = []
    for attempt in range(2):
        if attempt == 1:
            built = glob.glob(os.path.join(cache, "hostload_*.cgcs"))
            if not built:
                return [f"cgc_report --only {cases}: no hostload_*.cgcs in "
                        f"{cache}"]
            for path in built:
                os.remove(path)
        out = os.path.join(tmp, f"hostload_out{attempt}")
        proc = subprocess.run([report, "--only", cases], cwd=tmp,
                              env=dict(env, CGC_BENCH_OUT=out,
                                       CGC_BENCH_CACHE=cache),
                              capture_output=True, text=True, timeout=900,
                              check=False)
        if proc.returncode != EXIT_OK:
            return [f"cgc_report --only {cases} (run {attempt + 1}): exit "
                    f"{proc.returncode}\n{proc.stderr[-1500:]}"]
        with open(os.path.join(out, "report.json")) as f:
            outputs.append({c["id"]: c["outputs"]
                            for c in json.load(f)["cases"]})
    if outputs[0] != outputs[1]:
        return [f"cgc_report --only {cases}: outputs after rebuilding the "
                f"host-load cache differ\n  first:   {outputs[0]}\n"
                f"  rebuilt: {outputs[1]}"]
    return []


def ablation_thread_problems(report, env, tmp):
    """Runs the concurrent-sim ablations at CGC_THREADS=1 and 4 and
    compares their table rows (stdout lines starting with '|'); returns
    failure lines."""
    cases = "ablation_constraints,ablation_placement,ablation_preemption"
    # Three tables: a header row each plus 5, 5 and 4 variant rows.
    want_rows = 3 + 5 + 5 + 4
    tables = {}
    for threads in ("1", "4"):
        proc = subprocess.run([report, "--only", cases], cwd=tmp,
                              env=dict(env, CGC_THREADS=threads,
                                       CGC_BENCH_OUT=os.path.join(
                                           tmp, "ablation_out" + threads)),
                              capture_output=True, text=True, timeout=900,
                              check=False)
        if proc.returncode != EXIT_OK:
            return [f"cgc_report --only {cases} at CGC_THREADS={threads}: "
                    f"exit {proc.returncode}\n{proc.stderr[-1500:]}"]
        tables[threads] = [line for line in proc.stdout.splitlines()
                           if line.startswith("|")]
    if len(tables["1"]) != want_rows:
        return [f"cgc_report --only {cases}: {len(tables['1'])} table rows, "
                f"want {want_rows}"]
    if tables["1"] != tables["4"]:
        diff = [f"  1: {a}\n  4: {b}"
                for a, b in zip(tables["1"], tables["4"]) if a != b]
        return [f"cgc_report --only {cases}: table rows differ between "
                "CGC_THREADS=1 and 4\n" + "\n".join(diff)]
    return []


def torn_report_resume_problems(report, env, tmp):
    """Runs `--only fig02` clean, tears its report.json, and resumes;
    returns failure lines."""
    out = os.path.join(tmp, "torn_report_out")
    run_env = dict(env, CGC_BENCH_OUT=out)

    def sweep(*extra):
        return subprocess.run([report, "--only", "fig02", *extra], cwd=tmp,
                              env=run_env, capture_output=True, text=True,
                              timeout=900, check=False)

    def outputs():
        with open(os.path.join(out, "report.json")) as f:
            return [c["outputs"] for c in json.load(f)["cases"]]

    proc = sweep()
    if proc.returncode != EXIT_OK:
        return [f"cgc_report --only fig02: exit {proc.returncode}\n"
                f"{proc.stderr[-1500:]}"]
    clean = outputs()
    path = os.path.join(out, "report.json")
    with open(path, "rb") as f:
        whole = f.read()
    torn = whole[:len(whole) // 2]
    with open(path, "wb") as f:
        f.write(torn)
    proc = sweep("--resume")
    label = "cgc_report --only fig02 --resume over a torn report.json"
    if proc.returncode != EXIT_OK:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-1500:]}"]
    problems = []
    if path + ".corrupt" not in proc.stderr:
        problems.append(f"{label}: stderr does not name {path}.corrupt\n"
                        f"{proc.stderr[-1500:]}")
    try:
        with open(path + ".corrupt", "rb") as f:
            if f.read() != torn:
                problems.append(f"{label}: .corrupt lacks the torn bytes")
    except OSError as e:
        problems.append(f"{label}: no report.json.corrupt: {e}")
    if outputs() != clean:
        problems.append(f"{label}: outputs {outputs()}, clean run {clean}")
    return problems


def changed_set_resume_problems(report, env, tmp):
    """Runs `--only fig02,fig03`, then resumes over other --only sets in
    the same dir; returns failure lines."""
    problems = []

    def sweep(out, only, *extra):
        label = f"cgc_report --only {only} {' '.join(extra)}".strip()
        proc = subprocess.run([report, "--only", only, *extra], cwd=tmp,
                              env=dict(env, CGC_BENCH_OUT=out),
                              capture_output=True, text=True, timeout=900,
                              check=False)
        if proc.returncode != EXIT_OK:
            problems.append(f"{label}: exit {proc.returncode}\n"
                            f"{proc.stderr[-1500:]}")
        elif "quarantined" in proc.stdout:
            problems.append(f"{label}: quarantined intact outputs\n"
                            f"{proc.stdout[-1500:]}")
        return proc

    def cases(out):
        try:
            with open(os.path.join(out, "report.json")) as f:
                return {c["id"]: c for c in json.load(f)["cases"]}
        except (OSError, ValueError) as e:
            problems.append(f"{out}/report.json unreadable: {e}")
            return {}

    # (a) Narrow the set, then widen it again.
    out = os.path.join(tmp, "narrowed_out")
    sweep(out, "fig02,fig03")
    proc = sweep(out, "fig02", "--resume")
    if "resume: 1 of 1 cases already satisfied" not in proc.stdout:
        problems.append("cgc_report --only fig02 --resume: want \"1 of 1 "
                        f"cases already satisfied\"\n{proc.stdout[-1500:]}")
    if sorted(cases(out)) != ["fig02", "fig03"]:
        problems.append("cgc_report --only fig02 --resume: report.json "
                        f"cases {sorted(cases(out))}, want fig02 and fig03")
    sweep(out, "fig02,fig03", "--resume")
    rerun = [i for i, c in cases(out).items() if not c["resumed"]]
    if rerun:
        problems.append("cgc_report --only fig02,fig03 --resume after a "
                        f"narrower resume reran {rerun}")

    # (b) Swap one case of the set for another.
    out = os.path.join(tmp, "swapped_out")
    sweep(out, "fig02,fig03")
    sweep(out, "fig02,fig04", "--resume")
    got = {i: (c["ok"], c["resumed"]) for i, c in cases(out).items()}
    want = {"fig02": (True, True), "fig03": (True, False),
            "fig04": (True, False)}
    if got != want:
        problems.append("cgc_report --only fig02,fig04 --resume after "
                        f"fig02,fig03: (ok, resumed) {got}, want {want}")

    # (c) Sharded: --spawn workers always resume in their shard dirs, so
    # the narrower merge must skip the records the workers kept.
    out = os.path.join(tmp, "spawn_out")
    sweep(out, "fig02,fig03", "--spawn", "2")
    sweep(out, "fig02", "--spawn", "2")
    if sorted(cases(out)) != ["fig02"]:
        problems.append("cgc_report --only fig02 --spawn 2 after "
                        f"fig02,fig03: merged cases {sorted(cases(out))}, "
                        "want fig02")
    sweep(out, "fig02,fig03", "--spawn", "2")
    if sorted(cases(out)) != ["fig02", "fig03"]:
        problems.append("cgc_report --only fig02,fig03 --spawn 2 after a "
                        f"narrower spawn: merged cases {sorted(cases(out))}")
    for shard in ("s0of2", "s1of2"):
        rerun = [i for i, c in cases(os.path.join(out, "shards", shard))
                 .items() if not c["resumed"]]
        if rerun:
            problems.append("cgc_report --only fig02,fig03 --spawn 2 after "
                            f"a narrower spawn: shard {shard} reran {rerun}")
    return problems


def main():
    if len(sys.argv) != 4:
        sys.stderr.write(__doc__)
        return EXIT_USAGE
    report, plan, perf = (os.path.abspath(exe) for exe in sys.argv[1:])
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
            # bench_perf makes CGC_BENCH_OUT only once a leg starts.
            work = out if exe == perf else os.path.join(out, "report.json")
            if code == EXIT_USAGE and os.path.exists(work):
                failures.append(f"{label}: a usage error still did work")
            shutil.rmtree(out, ignore_errors=True)
            return proc

        for exe in (report, plan, perf):
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
        expect(plan, ["--merge", "--shard", "0/2"], EXIT_USAGE, "--shard")
        expect(plan, ["--merge", "--resume"], EXIT_USAGE, "--resume")

        for args in ([], ["warp"], ["plan", "sim"], ["--out"]):
            expect(perf, args, EXIT_USAGE, args[-1] if args else None)
        record_path = os.path.join(tmp, "BENCH_plan.json")
        expect(perf, ["plan", "--out", record_path], EXIT_OK)
        failures.extend(check_plan_record(record_path))

        failures.extend(rebuilt_hostload_problems(report, env, tmp))

        failures.extend(ablation_thread_problems(report, env, tmp))

        failures.extend(torn_report_resume_problems(report, env, tmp))

        failures.extend(changed_set_resume_problems(report, env, tmp))

        for name, body in (("v1", V1_CHECKPOINT_BODY),
                           ("json", JSON_CHECKPOINT_BODY)):
            plan_out = os.path.join(tmp, "plan-" + name)
            os.makedirs(plan_out)
            shard = os.path.join(plan_out, "plan-shard-1-of-2.cgcp")
            with open(shard, "w") as f:
                f.write(body + "end %08x\n" % zlib.crc32(body.encode()))
            plan_args = ["--matrix", "small", "--out", plan_out]
            expect(plan, [*plan_args, "--merge"], EXIT_FAILURE,
                   "rerun that shard")
            expect(plan, [*plan_args, "--shard", "1/2", "--resume"], EXIT_OK)
            if not os.path.exists(shard + ".corrupt"):
                failures.append(f"cgc_plan --resume: {name}-format "
                                "checkpoint was not quarantined")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print("cgc_report/cgc_plan/bench_perf CLI contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
