#!/usr/bin/env python3
"""Benchmark of the Cloud-versus-Grid reproduction, one workload per run.

    python3 perfbench/run.py --workload cell --seed 1 --seconds 20 --trace 0

Run from the repository root. On first use it builds the program and
perfbench_worker from source into $CARGO_TARGET_DIR (default
.bench_build). It then runs the workload in worker processes at
CGC_THREADS=4, checks every output, and prints as its last line

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones; README.md in this directory says which end-to-end metric
each per-layer metric should move. The line before the result records the
host (cores, RAM, compiler, build type) and the input sizes.

Exit codes: 0 all outputs correct, 1 an output check failed, 2 usage or
no program source in this directory, 3 the build or a worker failed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("report", "cell", "plan", "stream")
THREADS = 4
DEFAULT_SEED = 1  # the seed perfbench/reference.json was recorded at
MIN_REPS = 3
SETUP_REPS = 3
# Timed parts report their fastest repetition, set-up its median. On a
# shared multi-tenant host, phases of several seconds run at up to half
# speed and hit whole repetitions; the fastest of many repetitions is the
# estimate they disturb least.
PROCESS_TIMEOUT_S = 150

# Worker flags per scale. "full" is what the benchmark measures; "toy" is
# the self-test's quick pass through the same code.
SCALES = {
    "full": {
        "cell": ["--hosts", "1000", "--hours", "24"],
        "plan": ["--hours", "6"],
        "stream": ["--days", "10"],
    },
    "toy": {
        "cell": ["--hosts", "200", "--hours", "6"],
        "plan": ["--hours", "2", "--matrix", "small"],
        "stream": ["--days", "1"],
    },
}

# cgc_report's fast scale: the sweep's own smoke-test size knob.
REPORT_ENV = {"CGC_BENCH_FAST": "1"}

CASES = (
    "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "tab01", "tab02", "tab03",
    "ablation_arrival", "ablation_constraints", "ablation_placement",
    "ablation_preemption", "ablation_tail", "ext_periodicity",
    "ext_prediction",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}

PER_LAYER = {
    "gen.google_s": "s",
    "gen.grid_s": "s",
    "gen.specs": "count",
    "gen.rss_mb": "MB",
    "gen.spec_bytes": "bytes",
    "sim.run_s": "s",
    "sim.events_per_s": "1/s",
    "sim.digest_s": "s",
    "sim.hostload_off_s": "s",
    "sim.events": "count",
    "sim.scheduled_per_pass": "ratio",
    "sim.evicted": "count",
    "sim.max_pending_depth": "count",
    "sim.samples": "count",
    "sim.rss_mb": "MB",
    "store.write_s": "s",
    "store.write_mb": "MB",
    "store.read_s": "s",
    "store.read_mb_per_s": "MB/s",
    "store.chunks_decoded": "count",
    "trace.csv_write_s": "s",
    "sweep.cache_build_s": "s",
    **{f"analysis.{case}_s": "s" for case in CASES},
    "exec.speedup_4t": "ratio",
    "exec.regions": "count",
    "exec.chunks": "count",
    "stream.load_s": "s",
    "stream.ingest_s": "s",
    "stream.batch_p50_us": "us",
    "stream.batch_p99_us": "us",
    "stream.query_s": "s",
    "stream.windows_closed": "count",
    "stream.events_per_s": "1/s",
    "plan.scenario_p50_ms": "ms",
    "plan.scenario_p98_ms": "ms",
    "plan.efficiency": "ratio",
    "plan.render_s": "s",
    "plan.scenarios_per_s": "1/s",
    "obs.overhead": "ratio",
    "obs.unattributed_s": "s",
}


class Proc:
    """A child process that exited 0: wall, peak RSS, last stdout line."""

    def __init__(self, wall_s, rss_mb, out_dir):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.out_dir = out_dir
        self.result = {}
        with open(os.path.join(out_dir, "stdout.txt")) as f:
            lines = f.read().splitlines()
        if lines and lines[-1].startswith("{"):
            self.result = json.loads(lines[-1])

    def __getitem__(self, key):
        return self.result[key]

    def spans(self):
        with open(os.path.join(self.out_dir, "spans.json")) as f:
            return json.load(f)["spans"]

    def counters(self, name="metrics.json"):
        """The program's CGC_METRICS registry: counters and gauge maxima."""
        with open(os.path.join(self.out_dir, name)) as f:
            dump = json.load(f)
        values = dict(dump.get("counters", {}))
        for gauge, state in dump.get("gauges", {}).items():
            values[gauge + ".max"] = state["max"]
        return values


class Run:
    """One benchmark run: its settings, work directory and check tally."""

    def __init__(self, args, build_dir):
        self.seed = args.seed
        self.seconds = args.seconds
        # The untraced base leg of a traced run only feeds ratios.
        self.base_seconds = args.seconds / 2
        self.scale = args.scale
        self.build_dir = build_dir
        self.work = os.path.join(build_dir, "runs",
                                 f"{args.workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.reference = load_reference(args.references, args.scale,
                                        args.workload)
        self.record = args.record
        self.recorded = {}
        self.inputs = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what, count=1):
        """Tallies `count` checked operations; a failure marks them all."""
        self.attempted += count
        if not ok:
            self.failed += count
            print(f"check failed: {what}", file=sys.stderr)

    def matches_reference(self, key, value):
        """True unless a reference for this seed disagrees with `value`."""
        if self.record:
            self.recorded[key] = value
            return True
        if self.reference is None or key not in self.reference:
            return True
        return self.reference[key] == value

    def launch(self, argv, tag, env=None, threads=THREADS, traced=False,
               ok_codes=(0,)):
        out_dir = os.path.join(self.work, tag)
        os.makedirs(out_dir, exist_ok=True)
        child_env = dict(os.environ)
        for name in ("CGC_METRICS", "CGC_TRACE", "CGC_FAULT_SPEC",
                     "CGC_BENCH_FAST", "CGC_BENCH_CACHE", "CGC_BENCH_OUT"):
            child_env.pop(name, None)
        child_env.update(env or {})
        child_env["CGC_THREADS"] = str(threads)
        if traced:
            child_env["CGC_METRICS"] = os.path.join(out_dir,
                                                    "program-metrics.json")
            child_env["CGC_TRACE"] = os.path.join(out_dir,
                                                  "program-trace.json")
        with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, \
                open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=child_env)
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in ok_codes:
            raise WorkerError(f"{' '.join(argv[:2])} exited "
                              f"{proc.returncode}; see {out_dir}")
        return Proc(wall, usage.ru_maxrss / 1024.0, out_dir)

    def worker(self, command, tag, flags=(), threads=THREADS, traced=False,
               env=None):
        out_dir = os.path.join(self.work, tag)
        argv = [os.path.join(self.build_dir, "perfbench_worker"), command,
                "--seed", str(self.seed), "--out", out_dir, *flags]
        if traced:
            argv.append("--trace")
        return self.launch(argv, tag, env=env, threads=threads,
                           traced=traced)


class WorkerError(Exception):
    pass


def load_reference(path, scale, workload):
    if path is None or not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(scale, {}).get(workload)


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def self_times(spans):
    """(name, self seconds) per span: duration minus its children's."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end_s"] - span["start_s"]
    return [(s["name"], s["end_s"] - s["start_s"] - covered[i])
            for i, s in enumerate(spans)]


def layer_time(spans, prefix):
    """Self time of every span named `prefix` or `prefix.*`."""
    return sum(t for name, t in self_times(spans)
               if name == prefix or name.startswith(prefix + "."))


def timed_flags(seconds, setup_reps=SETUP_REPS):
    return ["--seconds", str(seconds), "--min-reps", str(MIN_REPS),
            "--setup-reps", str(setup_reps)]


ONCE = ["--seconds", "0", "--min-reps", "1", "--setup-reps", "1"]


# ---- report: the 22-case sweep against a prebuilt trace cache --------------

def report_setup(run, tag, traced=False):
    cache = os.path.join(run.work, tag + "-cache")
    proc = run.worker("report-setup", tag, traced=traced,
                      env={**REPORT_ENV, "CGC_BENCH_CACHE": cache})
    return cache, proc


def report_sweep(run, cache, tag, threads=THREADS, traced=False):
    """Runs cgc_report and checks its report.json and .dat outputs."""
    out = os.path.join(run.work, tag, "out")
    # Exit 1 is a failed case or a degraded read: report.json says which,
    # and the checks below count it.
    proc = run.launch(
        [os.path.join(run.build_dir, "cgc", "bench", "cgc_report")], tag,
        env={**REPORT_ENV, "CGC_BENCH_CACHE": cache, "CGC_BENCH_OUT": out},
        threads=threads, traced=traced, ok_codes=(0, 1))
    with open(os.path.join(out, "report.json")) as f:
        report = json.load(f)
    bad = [c["id"] for c in report["cases"] if not c["ok"]]
    run.check(not bad, f"{tag}: cases not ok: {bad}",
              count=len(report["cases"]))
    health = sum(report[k] for k in ("chunks_quarantined", "rows_lost",
                                     "values_defaulted", "parse_lines_bad"))
    dats = {f: sha256_file(os.path.join(out, f))
            for f in sorted(os.listdir(out)) if f.endswith(".dat")}
    run.check(report["complete"] and health == 0 and
              run.matches_reference("dat_sha256", dats),
              f"{tag}: incomplete, degraded, or .dat outputs differ from "
              f"the reference")
    proc.report = report
    proc.dats = dats
    shutil.rmtree(out)
    return proc


def report_sweeps(run, cache, seconds):
    sweeps = []
    start = time.perf_counter()
    while len(sweeps) < MIN_REPS or time.perf_counter() - start < seconds:
        sweeps.append(report_sweep(run, cache, f"sweep-{len(sweeps)}"))
    for s in sweeps[1:]:
        run.check(s.dats == sweeps[0].dats, "sweep outputs differ across "
                  "repetitions")
    return sweeps


def workload_report(run, traced):
    if not traced:
        setups = [report_setup(run, f"setup-{k}") for k in range(SETUP_REPS)]
        cache = setups[0][0]
        for other, _ in setups[1:]:
            shutil.rmtree(other)
        sweeps = report_sweeps(run, cache, run.seconds)
        wall = min(s.wall_s for s in sweeps)
        run.inputs = {"records": setups[0][1]["records"],
                      "cases": len(sweeps[0].report["cases"]),
                      "cache_mb": dir_mb(cache)}
        return {
            "wall_s": wall,
            "setup_s": statistics.median(p["setup_s"][0] for _, p in setups),
            "peak_rss_mb": statistics.median(s.rss_mb for s in sweeps),
            "items_per_s": len(sweeps[0].report["cases"]) / wall,
        }

    cache, setup = report_setup(run, "setup-traced", traced=True)
    sweeps = report_sweeps(run, cache, run.base_seconds)
    base = min(s.wall_s for s in sweeps)
    traced_sweep = report_sweep(run, cache, "sweep-traced", traced=True)
    one = report_sweep(run, cache, "sweep-1t", threads=1)
    for s in (traced_sweep, one):
        run.check(s.dats == sweeps[0].dats,
                  "traced or 1-thread sweep outputs differ")

    spans = setup.spans()
    probe = os.path.join(setup.out_dir, "probe")
    written_mb = sum(os.path.getsize(os.path.join(probe, f))
                     for f in os.listdir(probe) if f.endswith(".cgcs")) / 2**20
    layers = dict.fromkeys(PER_LAYER, 0.0)
    read_s = layer_time(spans, "store.read_cgcs")
    counters = traced_sweep.counters("program-metrics.json")
    case_s = {c["id"]: c["seconds"] for c in traced_sweep.report["cases"]}
    layers.update({
        "gen.google_s": layer_time(spans, "gen.google"),
        "gen.grid_s": layer_time(spans, "gen.grid"),
        "sim.run_s": layer_time(spans, "sim"),
        "store.write_s": layer_time(spans, "store.write_cgcs"),
        "store.write_mb": written_mb,
        "store.read_s": read_s,
        "store.read_mb_per_s": written_mb / read_s,
        "store.chunks_decoded": counters.get("store.chunks_decoded", 0),
        "trace.csv_write_s": layer_time(spans, "trace.write_google_trace"),
        "sweep.cache_build_s": layer_time(spans, "sweep.cache"),
        "exec.regions": counters.get("exec.regions", 0),
        "exec.chunks": counters.get("exec.chunks", 0),
        "exec.speedup_4t": one.wall_s / base,
        "obs.overhead": traced_sweep.wall_s / base,
        "obs.unattributed_s": (traced_sweep.wall_s - sum(case_s.values()) +
                               layer_time(spans, "phase")),
    })
    for case, seconds in case_s.items():
        layers[f"analysis.{case}_s"] = seconds
    return layers


def dir_mb(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files) / 2**20


# ---- cell: ClusterSim on the large-park placement path ---------------------

def cell_artifacts(run, proc, tag):
    artifacts = proc["artifacts"].split()
    for artifact in artifacts:
        run.check(artifact == artifacts[0] and
                  run.matches_reference("artifact", artifact),
                  f"{tag}: digest:events {artifact} differs from "
                  f"{artifacts[0]} or the reference")
    return artifacts[0]


def workload_cell(run, traced):
    scale = SCALES[run.scale]["cell"]
    if not traced:
        proc = run.worker("cell", "cell", scale + timed_flags(run.seconds))
        cell_artifacts(run, proc, "cell")
        wall = min(proc["rep_s"])
        run.inputs = {"specs": proc["specs"], "events": proc["events"]}
        return {
            "wall_s": wall,
            "setup_s": statistics.median(proc["setup_s"]),
            "peak_rss_mb": proc.rss_mb,
            "items_per_s": proc["events"] / wall,
        }

    base = run.worker("cell", "cell", scale + timed_flags(run.base_seconds, 1))
    traced_proc = run.worker("cell", "cell-traced", scale + ONCE,
                             traced=True)
    one = run.worker("cell", "cell-1t", scale + ONCE, threads=1)
    expected = cell_artifacts(run, base, "cell")
    for proc in (traced_proc, one):
        run.check(cell_artifacts(run, proc, proc.out_dir) == expected,
                  "traced or 1-thread cell digest differs")
    base_wall = min(base["rep_s"])
    spans = traced_proc.spans()
    counters = traced_proc.counters()
    run_s = layer_time(spans, "sim.ClusterSim.run")
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        "gen.google_s": layer_time(spans, "gen.google"),
        "gen.specs": traced_proc["specs"],
        "gen.rss_mb": traced_proc["gen_rss_mb"],
        "gen.spec_bytes": traced_proc["spec_bytes"],
        "sim.run_s": run_s,
        "sim.events_per_s": traced_proc["events"] / run_s,
        "sim.digest_s": layer_time(spans, "sim.content_digest"),
        "sim.hostload_off_s": layer_time(spans,
                                         "sim.ClusterSim.run_hostload_off"),
        "sim.events": traced_proc["events"],
        "sim.scheduled_per_pass": (traced_proc["scheduled"] /
                                   traced_proc["schedule_passes"]),
        "sim.evicted": traced_proc["evicted"],
        "sim.max_pending_depth": traced_proc["max_pending_depth"],
        "sim.samples": counters.get("sim.samples", 0),
        "sim.rss_mb": traced_proc["sim_rss_mb"],
        "store.write_s": layer_time(spans, "store.write_cgcs"),
        "store.write_mb": traced_proc["write_mb"],
        "exec.regions": counters.get("exec.regions", 0),
        "exec.chunks": counters.get("exec.chunks", 0),
        "exec.speedup_4t": one["rep_s"][0] / base_wall,
        "obs.overhead": traced_proc["rep_s"][0] / base_wall,
        "obs.unattributed_s": layer_time(spans, "phase"),
    })
    return layers


# ---- plan: the 576-scenario what-if matrix ---------------------------------

def plan_hashes(run, proc, tag):
    hashes = []
    rep = 0
    while os.path.isdir(os.path.join(proc.out_dir, f"rep-{rep}")):
        hashes.append(sha256_file(os.path.join(proc.out_dir, f"rep-{rep}",
                                               "plan.json")))
        rep += 1
    run.check(proc["failed"] == 0, f"{tag}: scenarios not ok",
              count=proc["scenarios"] * len(hashes))
    for h in hashes:
        run.check(h == hashes[0] and run.matches_reference("plan_sha256", h),
                  f"{tag}: plan.json differs across repetitions or from the "
                  f"reference")
    return hashes[0]


def workload_plan(run, traced):
    scale = SCALES[run.scale]["plan"]
    if not traced:
        # Matrix expansion takes microseconds: time up to 200 expansions.
        proc = run.worker("plan", "plan",
                          scale + timed_flags(run.seconds, setup_reps=200))
        plan_hashes(run, proc, "plan")
        wall = min(proc["rep_s"])
        run.inputs = {"scenarios": proc["scenarios"]}
        return {
            "wall_s": wall,
            "setup_s": statistics.median(proc["setup_s"]),
            "peak_rss_mb": proc.rss_mb,
            "items_per_s": proc["scenarios"] / wall,
        }

    base = run.worker("plan", "plan", scale + timed_flags(run.base_seconds, 1))
    traced_proc = run.worker("plan", "plan-traced", scale + ONCE,
                             traced=True)
    serial = run.worker("plan", "plan-1t", scale + ONCE + ["--serial"],
                        threads=1)
    expected = plan_hashes(run, base, "plan")
    for proc in (traced_proc, serial):
        run.check(plan_hashes(run, proc, proc.out_dir) == expected,
                  "traced or serial plan.json differs")
    base_wall = min(base["rep_s"])
    spans = traced_proc.spans()
    counters = traced_proc.counters()
    scenario_ms = serial["scenario_ms"]
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        "sim.events": counters.get("sim.events", 0),
        "sim.evicted": counters.get("sim.evictions", 0),
        "sim.max_pending_depth": counters.get("sim.pending_depth.max", 0),
        "sim.samples": counters.get("sim.samples", 0),
        "exec.regions": counters.get("exec.regions", 0),
        "exec.chunks": counters.get("exec.chunks", 0),
        "exec.speedup_4t": serial["rep_s"][0] / base_wall,
        "plan.scenario_p50_ms": statistics.median(scenario_ms),
        "plan.scenario_p98_ms": percentile(scenario_ms, 98),
        "plan.efficiency": sum(scenario_ms) / 1e3 / (THREADS * base_wall),
        "plan.render_s": layer_time(spans, "plan.render_plan_json"),
        "plan.scenarios_per_s": base["scenarios"] / base_wall,
        "obs.overhead": traced_proc["rep_s"][0] / base_wall,
        "obs.unattributed_s": layer_time(spans, "phase"),
    })
    return layers


# ---- stream: cgcd replay with sliding windows ------------------------------

def stream_answers(run, proc, tag):
    """Canonical (windows_closed, events, queries) of every repetition."""
    answers = []
    rep = 0
    while os.path.exists(os.path.join(proc.out_dir, f"daemon-{rep}.json")):
        with open(os.path.join(proc.out_dir, f"daemon-{rep}.json")) as f:
            doc = json.load(f)
        summary = doc["summary"]
        answer = [summary["windows_closed"], summary["events"],
                  hashlib.sha256(json.dumps(doc["queries"], sort_keys=True)
                                 .encode()).hexdigest()]
        run.check(not summary["health"]["lossy"] and
                  doc["queries"]["all"] is not None and
                  run.matches_reference("answer", answer),
                  f"{tag}: lossy stream or query answer differs from the "
                  f"reference")
        answers.append(answer)
        rep += 1
    for answer in answers:
        run.check(answer == answers[0], f"{tag}: answers differ across "
                  f"repetitions")
    return answers[0]


def workload_stream(run, traced):
    scale = SCALES[run.scale]["stream"]
    if not traced:
        proc = run.worker("stream", "stream", scale + timed_flags(run.seconds))
        answer = stream_answers(run, proc, "stream")
        wall = min(proc["rep_s"])
        run.inputs = {"events": proc["events"], "windows": answer[0],
                      "input_mb": proc["input_mb"]}
        return {
            "wall_s": wall,
            "setup_s": statistics.median(proc["setup_s"]),
            "peak_rss_mb": proc.rss_mb,
            "items_per_s": proc["events"] / wall,
        }

    base = run.worker("stream", "stream",
                      scale + timed_flags(run.base_seconds, 1))
    traced_proc = run.worker("stream", "stream-traced", scale + ONCE,
                             traced=True)
    one = run.worker("stream", "stream-1t", scale + ONCE, threads=1)
    expected = stream_answers(run, base, "stream")
    for proc in (traced_proc, one):
        run.check(stream_answers(run, proc, proc.out_dir) == expected,
                  "traced or 1-thread stream answer differs")
    base_wall = min(base["rep_s"])
    spans = traced_proc.spans()
    counters = traced_proc.counters()
    batch_us = traced_proc["batch_us"]
    read_s = layer_time(spans, "trace.load_trace")
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        "gen.google_s": layer_time(spans, "gen.google"),
        "store.write_s": layer_time(spans, "store.write_cgcs"),
        "store.write_mb": traced_proc["input_mb"],
        "store.read_s": read_s,
        "store.read_mb_per_s": traced_proc["input_mb"] / read_s,
        "store.chunks_decoded": counters.get("store.chunks_decoded", 0),
        "exec.regions": counters.get("exec.regions", 0),
        "exec.chunks": counters.get("exec.chunks", 0),
        "exec.speedup_4t": one["rep_s"][0] / base_wall,
        "stream.load_s": traced_proc["load_s"],
        "stream.ingest_s": traced_proc["ingest_s"],
        "stream.batch_p50_us": statistics.median(batch_us),
        "stream.batch_p99_us": percentile(batch_us, 99),
        "stream.query_s": traced_proc["query_s"],
        "stream.windows_closed": expected[0],
        "stream.events_per_s": base["events"] / base_wall,
        "obs.overhead": traced_proc["rep_s"][0] / base_wall,
        "obs.unattributed_s": layer_time(spans, "phase"),
    })
    return layers


RUNNERS = {
    "report": workload_report,
    "cell": workload_cell,
    "plan": workload_plan,
    "stream": workload_stream,
}


# ---- build and host ---------------------------------------------------------

def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.log"), "ab") as log:
        steps = [["cmake", "--build", build_dir, "-j", str(THREADS)]]
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=850)
            except subprocess.TimeoutExpired:
                return False
            if done.returncode != 0:
                return False
    return True


def host_record(build_dir):
    out = subprocess.run([os.path.join(build_dir, "perfbench_worker"),
                          "host"], capture_output=True, text=True,
                         check=True).stdout
    host = json.loads(out.splitlines()[-1])
    with open("/proc/meminfo") as f:
        kb = next(int(line.split()[1]) for line in f
                  if line.startswith("MemTotal:"))
    host["ram_gb"] = round(kb / 2**20, 1)
    host["threads"] = THREADS
    return host


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--references",
                        default=os.path.join(HERE, "reference.json"),
                        help="expected outputs at the default seed")
    parser.add_argument("--record", action="store_true",
                        help="write this run's outputs as the reference")
    args = parser.parse_args()

    # The report workload has no seed: cgc_report always runs the
    # calibration seed, so every run checks against its reference.
    if args.workload != "report" and args.seed != DEFAULT_SEED:
        args.references = None
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs --seed {DEFAULT_SEED}")
    if not all(os.path.exists(p) for p in ("CMakeLists.txt", "src", "bench")):
        print("run.py: no program source here; run it from the root of the "
              "repository", file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print(f"run.py: build failed; see {build_dir}/build.log",
              file=sys.stderr)
        return 3

    run = Run(args, build_dir)
    try:
        values = RUNNERS[args.workload](run, args.trace == 1)
    except WorkerError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 3
    shutil.rmtree(run.work, ignore_errors=True)

    if args.record:
        write_reference(args.references, args.scale, args.workload,
                        run.recorded)
    units = PER_LAYER if args.trace else END_TO_END
    print("host: " + json.dumps({**host_record(build_dir),
                                 "workload": args.workload,
                                 "scale": args.scale, "inputs": run.inputs}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if run.failed == 0 else 1


def write_reference(path, scale, workload, recorded):
    refs = {}
    if os.path.exists(path):
        with open(path) as f:
            refs = json.load(f)
    refs.setdefault(scale, {})[workload] = recorded
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
