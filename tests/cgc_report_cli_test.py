#!/usr/bin/env python3
"""CLI contract of the sweep, plan and perf drivers: cgc_report, cgc_plan
and bench_perf.

    cgc_report_cli_test.py <cgc_report> <cgc_plan> <bench_perf>

Usage: a bad flag value is exit 2 (util::kExitUsage) naming it, before
any work starts; --help exits 0, and `cgc_report --list` prints the 22
case ids in sorted_cases() order. bench_perf runs exactly one known leg;
its plan leg writes a record with the common frame whose thread runs
share one digest and fail no scenario, and its sim leg one TraceSet
digest at every thread count.

cgc_plan (DESIGN.md §16): plan.json is byte-identical at CGC_THREADS=1, 2
and 4, and a 2-way sharded run merges to the same bytes. A torn shard
checkpoint, or one in a retired format (the `cgcplan v1` lines, or the
JSON body without a ledger stamp), fails `--merge` with exit 1; `--resume`
quarantines it and reruns the shard.

cgc_report runs up to CGC_THREADS cases at once: sweeps at CGC_THREADS=1
and 4 write the same .dat files, report.json outputs and stdout (timing
lines aside), and the ablations that run their simulations concurrently
print the same table rows. A sweep killed in a mid-sweep case's
quarantine window keeps the stdout of every case it stamped, as does a
resume of it killed in turn, and resumes to the clean run's .dat files.
A sweep under CGC_TRACE and CGC_METRICS writes the same .dat files, a
Chrome trace-event JSON, a metrics snapshot and a perf block per case
(DESIGN.md §11). Injected faults degrade a sweep to exit 1 with an
accurate report.json (DESIGN.md §10): store corruption is counted,
transient case failures are retried, and the watchdog stops a stuck
case. A partial sweep resumes to the clean run's .dat files; a resume
over a torn report.json moves it to report.json.corrupt; a resume over a
narrower or different --only set keeps the other cases' records, also
under --spawn. The trace cache has one tier: rebuilt hostload_*.cgcs
entries give the same outputs. Out of memory in a case exits 3 naming
the case, so a supervisor does not respawn it.
"""

import glob
import os
import re
import resource
import signal
import sys
import threading
import zlib

from cli_contract import (EXIT_FAILURE, EXIT_FATAL, EXIT_OK, EXIT_USAGE,
                          Contract, dat_digests, tail)

# sorted_cases() order: figures, tables, ablations, extensions, each by id.
CASE_IDS = [
    "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12", "fig13",
    "tab01", "tab02", "tab03",
    "ablation_arrival", "ablation_constraints", "ablation_placement",
    "ablation_preemption", "ablation_tail",
    "ext_periodicity", "ext_prediction",
]

# Lines of cgc_report's stdout that vary run to run: the banner's thread
# count and the summary's per-case and total seconds.
TIMING_LINE = re.compile(r"worker threads|^\s+\S+\s+\d+\.\d+ s\b")

# A case's stdout block starts with its `[k/N] id` header.
CASE_HEADER = re.compile(r"^\[\d+/\d+\] ", re.MULTILINE)

# sweep.worker_kill of fig12 (case index 10) in phase 1, after its
# outputs are written and before its record is stamped: key = index << 1
# | phase.
KILLED_INDEX = 10
MID_SWEEP_KILL = f"sweep.worker_kill:once={KILLED_INDEX << 1 | 1}"

# Address-space cap for the out-of-memory leg: room to start, not to
# simulate the full-scale Google host-load month fig07 needs.
OOM_AS_LIMIT_BYTES = 250_000 * 1024

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

# cgc_plan flag values that are usage errors, with the flag each names.
PLAN_USAGE_ERRORS = (
    (["--shard", "4/4"], "4/4"),
    (["--merge", "--shard", "0/2"], "--shard"),
    (["--merge", "--resume"], "--resume"),
    (["--hours", "0"], "--hours"),
    (["--hours", "-1"], "--hours"),
    (["--days", "-2"], "--days"),
    (["--cost", "-1"], "--cost"),
    (["--slo", "-5"], "--slo"),
    (["--top", "-3"], "--top"),
)


def records(c, out):
    """report.json's case records in `out`, by id ({} if unreadable)."""
    report = c.json(os.path.join(out, "report.json"))
    return {r["id"]: r for r in report["cases"]} if report else {}


def check_plan_record(c, path):
    """bench_perf's plan record: the common frame, pass, one digest."""
    record = c.json(path)
    if record is None:
        return
    missing = [key for key in ("bench", "fast_mode", "hardware_concurrency",
                               "ram_gb", "runs") if key not in record]
    if not c.check(not missing, f"bench_perf plan: record lacks {missing}"):
        return
    runs = record["runs"]
    c.check(record["bench"] == "perf_plan" and record["fast_mode"],
            f"bench_perf plan: bad frame {record}")
    c.check(record.get("pass") and record.get("deterministic"),
            f"bench_perf plan: not pass+deterministic {record}")
    c.check(len(runs) >= 2 and len({r.get("digest") for r in runs}) == 1,
            f"bench_perf plan: want one digest, runs {runs}")
    c.check(all(r.get("failed") == 0 for r in runs),
            f"bench_perf plan: failed scenarios in {runs}")


def usage_errors(c, report, plan, perf):
    """--help, --list, and the bad flags and values of each driver."""
    for exe in (report, plan, perf):
        c.expect(exe, ["--help"], EXIT_OK)
    listed = c.expect(report, ["--list"], EXIT_OK)
    c.same("cgc_report --list: case ids", CASE_IDS,
           [line.split()[0] for line in listed.stdout.splitlines()
            if line.strip()])
    for args, named in ((["--spawn", "four"], "four"),
                        (["--spawn", "-2"], "-2"),
                        (["--only", "fig02,fig99"], "fig99"),
                        (["--shard", "4/4"], "4/4"),
                        (["--merge", c.path("s0"), "--shard", "0/2"], None),
                        (["--all"], "--all")):
        c.expect(report, args, EXIT_USAGE, named)
    for args, named in PLAN_USAGE_ERRORS:
        c.expect(plan, ["--matrix", "small", "--out", c.out, *args],
                 EXIT_USAGE, named)
    for args in ([], ["warp"], ["plan", "sim"], ["--out"]):
        c.expect(perf, args, EXIT_USAGE, args[-1] if args else None)


def perf_legs(c, perf):
    """bench_perf's plan and sim legs at fast scale."""
    record_path = c.path("BENCH_plan.json")
    c.expect(perf, ["plan", "--out", record_path], EXIT_OK)
    check_plan_record(c, record_path)

    record_path = c.path("BENCH_sim.json")
    if c.expect(perf, ["sim", "--out", record_path],
                EXIT_OK).returncode != EXIT_OK:
        return
    record = c.json(record_path)
    if record:
        runs = record["runs"]
        c.check(record["pass"], f"bench_perf sim: not pass {record}")
        c.check(record["deterministic"],
                "bench_perf sim: TraceSet digests differ across thread counts")
        c.check(len(runs) >= 3 and len({r["digest"] for r in runs}) == 1,
                f"bench_perf sim: want one digest over >= 3 runs, got {runs}")


def plan_runs(c, plan):
    """plan.json across thread counts, shards, a torn checkpoint and the
    retired checkpoint formats."""
    def plan_run(out, *args, code=EXIT_OK, named=None, **env):
        return c.expect(plan, ["--matrix", "small", "--out", out, *args],
                        code, named, **env)

    golden = c.path("plan-t1", "plan.json")
    for threads in (1, 2, 4):
        plan_run(c.path(f"plan-t{threads}"), CGC_THREADS=threads)
    for threads in (2, 4):
        c.same_file(golden, c.path(f"plan-t{threads}", "plan.json"))

    sharded = c.path("plan-sh")
    merged = os.path.join(sharded, "plan.json")
    plan_run(sharded, "--shard", "0/2")
    plan_run(sharded, "--shard", "1/2")
    plan_run(sharded, "--merge")
    c.same_file(golden, merged)

    ckpt = os.path.join(sharded, "plan-shard-1-of-2.cgcp")
    if os.path.exists(ckpt):
        os.truncate(ckpt, 200)
        # The last merge must write plan.json for the final cmp to pass.
        if os.path.exists(merged):
            os.remove(merged)
        plan_run(sharded, "--merge", code=EXIT_FAILURE,
                 named=f"torn checkpoint {ckpt}")
        plan_run(sharded, "--shard", "1/2", "--resume")
        c.check(os.path.exists(ckpt + ".corrupt"),
                f"cgc_plan --resume: torn {ckpt} was not quarantined")
        plan_run(sharded, "--merge")
        c.same_file(golden, merged)
    else:
        c.fail(f"cgc_plan --shard 1/2: no {ckpt}")

    for name, body in (("v1", V1_CHECKPOINT_BODY),
                       ("json", JSON_CHECKPOINT_BODY)):
        out = c.path("plan-" + name)
        os.makedirs(out)
        shard = os.path.join(out, "plan-shard-1-of-2.cgcp")
        with open(shard, "w") as f:
            f.write(body + "end %08x\n" % zlib.crc32(body.encode()))
        plan_run(out, "--merge", code=EXIT_FAILURE, named="rerun that shard")
        plan_run(out, "--shard", "1/2", "--resume")
        c.check(os.path.exists(shard + ".corrupt"),
                f"cgc_plan --resume: {name}-format checkpoint was not "
                "quarantined")


def rebuilt_hostload(c, report):
    """Runs the two host-load cases twice on one cache, deleting the
    hostload_*.cgcs entries in between; the outputs must not move."""
    cases = "fig13,ext_periodicity"
    cache = c.path("hostload_cache")
    outputs = []
    for attempt in range(2):
        if attempt == 1:
            built = glob.glob(os.path.join(cache, "hostload_*.cgcs"))
            if not c.check(built, f"cgc_report --only {cases}: no "
                                  f"hostload_*.cgcs in {cache}"):
                return
            for path in built:
                os.remove(path)
        out = c.path(f"hostload_out{attempt}")
        if c.expect(report, ["--only", cases], EXIT_OK, CGC_BENCH_OUT=out,
                    CGC_BENCH_CACHE=cache).returncode != EXIT_OK:
            return
        outputs.append({i: r["outputs"] for i, r in records(c, out).items()})
    c.same(f"cgc_report --only {cases}: outputs after rebuilding the "
           "host-load cache differ", outputs[0], outputs[1])


def ablation_threads(c, report):
    """The concurrent-sim ablations print the same table rows (stdout
    lines starting with '|') at CGC_THREADS=1 and 4."""
    cases = "ablation_constraints,ablation_placement,ablation_preemption"
    # Three tables: a header row each plus 5, 5 and 4 variant rows.
    want_rows = 3 + 5 + 5 + 4
    tables = {}
    for threads in ("1", "4"):
        proc = c.expect(report, ["--only", cases], EXIT_OK,
                        CGC_THREADS=threads,
                        CGC_BENCH_OUT=c.path("ablation_out" + threads))
        if proc.returncode != EXIT_OK:
            return
        tables[threads] = [line for line in proc.stdout.splitlines()
                           if line.startswith("|")]
    c.check(len(tables["1"]) == want_rows,
            f"cgc_report --only {cases}: {len(tables['1'])} table rows, "
            f"want {want_rows}")
    c.same(f"cgc_report --only {cases}: table rows differ between "
           "CGC_THREADS=1 and 4", tables["1"], tables["4"])


def concurrent_sweep(c, report):
    """Runs the fast sweep at CGC_THREADS=1 and 4 and compares them;
    returns the 4-thread sweep's out dir, or None if a sweep failed."""
    runs = {}
    for threads in ("1", "4"):
        out = c.path("threads_out" + threads)
        proc = c.expect(report, [], EXIT_OK, CGC_THREADS=threads,
                        CGC_BENCH_OUT=out)
        if proc.returncode != EXIT_OK:
            return None
        stdout = [line for line in proc.stdout.replace(out, "<out>")
                  .splitlines() if not TIMING_LINE.search(line)]
        runs[threads] = {
            ".dat sha256s": dat_digests(out),
            "report.json outputs": [(i, r["outputs"]) for i, r in
                                    records(c, out).items()],
            "stdout": stdout}
    for what, one in runs["1"].items():
        c.same(f"cgc_report: {what} differ between CGC_THREADS=1 and 4",
               one, runs["4"][what])
    written = set(runs["4"][".dat sha256s"])
    attributed = {o["file"] for _, outputs in runs["4"]["report.json outputs"]
                  for o in outputs}
    c.check(written and attributed == written,
            f"cgc_report: report.json outputs name {sorted(attributed)}, the "
            f"sweep wrote {sorted(written)}")
    return c.path("threads_out4")


def killed_sweep(c, report, clean):
    """Kills a sweep at CGC_THREADS=4 in a mid-sweep case's quarantine
    window, then a resume of it at the same case, then resumes it to the
    end. Each killed life keeps the stdout of every case it stamped."""
    out = c.path("killed_out")
    label = f"cgc_report at CGC_THREADS=4 under {MID_SWEEP_KILL}"
    for args in ([], ["--resume"]):
        proc = c.expect(report, args, -signal.SIGKILL, CGC_THREADS=4,
                        CGC_BENCH_OUT=out, CGC_FAULT_SPEC=MID_SWEEP_KILL)
        c.same(f"{' '.join([label, *args])}: [k/N] headers in stdout vs "
               "records in report.json", len(records(c, out)),
               len(CASE_HEADER.findall(proc.stdout)))
    for line in ("resume: quarantined ",
                 f"resume: {KILLED_INDEX} of {len(CASE_IDS)} cases already "
                 "satisfied"):
        c.check(line in proc.stdout, f"{label} --resume: stdout lacks "
                                     f"{line!r}\n{tail(proc.stdout)}")
    if c.expect(report, ["--resume"], EXIT_OK, CGC_THREADS=4,
                CGC_BENCH_OUT=out).returncode == EXIT_OK:
        c.same(f"{label}, then --resume: .dat files differ from the clean "
               "run's", dat_digests(clean), dat_digests(out))


def observability(c, report, clean):
    """A sweep under CGC_TRACE and CGC_METRICS is a pure observer."""
    out = c.path("traced_out")
    trace_path, metrics_path = c.path("trace.json"), c.path("metrics.json")
    if c.expect(report, [], EXIT_OK, CGC_THREADS=4, CGC_BENCH_OUT=out,
                CGC_TRACE=trace_path,
                CGC_METRICS=metrics_path).returncode != EXIT_OK:
        return
    c.same("cgc_report under CGC_TRACE and CGC_METRICS: .dat files differ "
           "from the uninstrumented run's", dat_digests(clean, True),
           dat_digests(out, True))
    trace = c.json(trace_path)
    if trace:
        events = trace["traceEvents"]
        c.check(events, "trace has no spans")
        for e in events:
            if not c.check(all(k in e for k in ("name", "ph", "ts", "dur",
                                                "pid", "tid")) and
                           e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0,
                           f"trace: malformed span {e}"):
                break
        names = {e["name"] for e in events}
        c.check(any(n.startswith("case:") for n in names),
                f"trace: no case: span in {sorted(names)}")
        c.check("trace.load" in names, f"trace: no trace.load in {names}")
    metrics = c.json(metrics_path)
    if metrics:
        counters = metrics["counters"]
        for name in ("exec.chunks", "store.chunks_decoded"):
            c.check(name in counters,
                    f"metrics: no {name} counter in {sorted(counters)}")
    traced = c.json(os.path.join(out, "report.json"))
    if traced:
        c.check(traced["complete"] and len(traced["cases"]) >= len(CASE_IDS),
                f"traced sweep: incomplete report.json {traced}")
        for r in traced["cases"]:
            perf = r["perf"]
            c.check(perf["wall_s"] >= 0 and perf["cpu_s"] >= 0 and
                    perf["max_rss_kb"] > 0, f"perf block of {r['id']}: {perf}")


def fault_matrix(c, report, clean):
    """Deterministic faults degrade a sweep to exit 1 with an accurate
    report.json, never a crash; resumes re-run only what is missing."""
    c.expect(report, ["--resume"], EXIT_OK, CGC_BENCH_OUT=clean)
    resumed = c.json(os.path.join(clean, "report.json"))
    if resumed:
        c.check(resumed["complete"], "resume run did not complete")
        c.check(all(r["ok"] for r in resumed["cases"]),
                "resume run: a case failed")
        c.check(all(r["resumed"] for r in resumed["cases"]),
                "a satisfied case was re-executed on --resume")

    def degraded(name, args, spec, **env):
        out = c.path(name)
        c.expect(report, args, EXIT_FAILURE, CGC_BENCH_OUT=out,
                 CGC_FAULT_SPEC=spec, **env)
        return c.json(os.path.join(out, "report.json"))

    r = degraded("corrupt_out", [], "store.chunk_crc:p=0.25,seed=9")
    if r:
        c.check(r["complete"], "degraded sweep did not run to completion")
        c.check(r["chunks_quarantined"] > 0,
                "no chunks quarantined despite injection")
        c.check(r["rows_lost"] + r["values_defaulted"] > 0,
                f"store corruption lost no rows or values: {r}")

    r = degraded("transient_out", [], "report.case:every=1,kind=transient",
                 CGC_RETRY_MAX=2, CGC_RETRY_BACKOFF_MS=1)
    if r:
        c.check(r["complete"], "transient-fault sweep did not complete")
        for case in r["cases"]:
            c.check(not case["ok"] and case["attempts"] == 2 and
                    "injected" in case["error"],
                    f"transient faults: want 2 failed attempts naming "
                    f"'injected', got {case}")

    # The stall sleeps twice the budget, so the watchdog must fire.
    r = degraded("stalled_out", ["--only", "tab01"],
                 "report.case_stall:once=0", CGC_CASE_TIMEOUT=1)
    if r:
        stuck = [case for case in r["cases"] if not case["ok"]]
        c.check(stuck and "watchdog" in stuck[0]["error"],
                f"watchdog case missing from checkpoint: {r['cases']}")

    out = c.path("partial_out")
    c.expect(report, ["--only", "tab01,fig04"], EXIT_OK, CGC_BENCH_OUT=out)
    c.expect(report, ["--resume"], EXIT_OK, CGC_BENCH_OUT=out)
    c.same("cgc_report --only tab01,fig04, then --resume: .dat files differ "
           "from a clean sweep's", dat_digests(clean, True),
           dat_digests(out, True))


def out_of_memory(c, report):
    """`--only fig07` at full scale on an empty cache, with the child's
    address space capped, exits 3 naming the case."""
    with open(report, "rb") as f:
        body = f.read()
    # A sanitizer build's shadow memory needs far more address space.
    if any(marker in body
           for marker in (b"__asan_init", b"__tsan_init", b"__msan_init")):
        print("cgc_report is a sanitizer build: out-of-memory leg not run")
        return

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS,
                           (OOM_AS_LIMIT_BYTES, OOM_AS_LIMIT_BYTES))

    c.expect(report, ["--only", "fig07"], EXIT_FATAL,
             named="fig07: out of memory", preexec_fn=cap_address_space,
             CGC_THREADS=1, CGC_BENCH_FAST=None,
             CGC_BENCH_OUT=c.path("oom_out"),
             CGC_BENCH_CACHE=c.path("oom_cache"))


def torn_report_resume(c, report):
    """`--only fig02` clean, then a resume over its torn report.json."""
    out = c.path("torn_report_out")
    if c.expect(report, ["--only", "fig02"], EXIT_OK,
                CGC_BENCH_OUT=out).returncode != EXIT_OK:
        return
    clean = records(c, out)
    path = os.path.join(out, "report.json")
    with open(path, "rb") as f:
        whole = f.read()
    torn = whole[:len(whole) // 2]
    with open(path, "wb") as f:
        f.write(torn)
    label = "cgc_report --only fig02 --resume over a torn report.json"
    c.expect(report, ["--only", "fig02", "--resume"], EXIT_OK,
             named=path + ".corrupt", CGC_BENCH_OUT=out)
    try:
        with open(path + ".corrupt", "rb") as f:
            c.check(f.read() == torn, f"{label}: .corrupt lacks the torn "
                                      "bytes")
    except OSError as e:
        c.fail(f"{label}: no report.json.corrupt: {e}")
    c.same(f"{label}: outputs differ from the clean run's",
           {i: r["outputs"] for i, r in clean.items()},
           {i: r["outputs"] for i, r in records(c, out).items()})


def changed_set_resume(c, report):
    """`--only fig02,fig03`, then resumes over other --only sets in the
    same dir."""
    def sweep(out, only, *extra):
        proc = c.expect(report, ["--only", only, *extra], EXIT_OK,
                        CGC_BENCH_OUT=out)
        c.check("quarantined" not in proc.stdout,
                f"cgc_report --only {only} {' '.join(extra)}: quarantined "
                f"intact outputs\n{tail(proc.stdout)}")
        return proc

    # (a) Narrow the set, then widen it again.
    out = c.path("narrowed_out")
    sweep(out, "fig02,fig03")
    proc = sweep(out, "fig02", "--resume")
    c.check("resume: 1 of 1 cases already satisfied" in proc.stdout,
            "cgc_report --only fig02 --resume: want \"1 of 1 cases already "
            f"satisfied\"\n{tail(proc.stdout)}")
    c.same("cgc_report --only fig02 --resume: report.json cases",
           ["fig02", "fig03"], sorted(records(c, out)))
    sweep(out, "fig02,fig03", "--resume")
    c.same("cgc_report --only fig02,fig03 --resume after a narrower "
           "resume: cases rerun", [],
           [i for i, r in records(c, out).items() if not r["resumed"]])

    # (b) Swap one case of the set for another.
    out = c.path("swapped_out")
    sweep(out, "fig02,fig03")
    sweep(out, "fig02,fig04", "--resume")
    c.same("cgc_report --only fig02,fig04 --resume after fig02,fig03: "
           "(ok, resumed)",
           {"fig02": (True, True), "fig03": (True, False),
            "fig04": (True, False)},
           {i: (r["ok"], r["resumed"]) for i, r in records(c, out).items()})

    # (c) Sharded: --spawn workers always resume in their shard dirs, so
    # the narrower merge must skip the records the workers kept.
    out = c.path("spawn_out")
    sweep(out, "fig02,fig03", "--spawn", "2")
    sweep(out, "fig02", "--spawn", "2")
    c.same("cgc_report --only fig02 --spawn 2 after fig02,fig03: merged "
           "cases", ["fig02"], sorted(records(c, out)))
    sweep(out, "fig02,fig03", "--spawn", "2")
    c.same("cgc_report --only fig02,fig03 --spawn 2 after a narrower spawn: "
           "merged cases", ["fig02", "fig03"], sorted(records(c, out)))
    for shard in ("s0of2", "s1of2"):
        c.same(f"cgc_report --only fig02,fig03 --spawn 2 after a narrower "
               f"spawn: cases shard {shard} reran", [],
               [i for i, r in records(c, os.path.join(out, "shards", shard))
                .items() if not r["resumed"]])


def main():
    if len(sys.argv) != 4:
        sys.stderr.write(__doc__)
        return EXIT_USAGE
    report, plan, perf = (os.path.abspath(exe) for exe in sys.argv[1:])
    c = Contract("cgc_report_cli_test")
    usage_errors(c, report, plan, perf)
    # bench_perf's legs share no file with the rest and run beside them.
    perf_runs = threading.Thread(target=perf_legs, args=(c, perf))
    perf_runs.start()
    plan_runs(c, plan)
    rebuilt_hostload(c, report)
    ablation_threads(c, report)
    clean = concurrent_sweep(c, report)
    if clean:
        killed_sweep(c, report, clean)
        observability(c, report, clean)
        fault_matrix(c, report, clean)
    out_of_memory(c, report)
    torn_report_resume(c, report)
    changed_set_resume(c, report)
    perf_runs.join()
    return c.finish("cgc_report/cgc_plan/bench_perf CLI contract holds")


if __name__ == "__main__":
    sys.exit(main())
