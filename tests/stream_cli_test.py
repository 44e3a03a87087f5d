#!/usr/bin/env python3
"""CLI contract of the streaming daemon and the trace tools: cgcd,
trace_convert and cgc_fsck.

    stream_cli_test.py <cgcd> <trace_convert> <cgc_fsck>

--help exits 0, and a bad flag value is exit 2 naming it before any
work starts. cgcd answers every query over a generated day, and the
answers are bit-identical at CGC_THREADS=1 and 4, for tumbling and for
sliding windows and for a replayed CGCS trace (DESIGN.md §12). A trace
that trace_convert generates validates when read back from its CSV
tables, and converts to a CGCS file that cgc_fsck calls clean; writing
either to a full disk is exit 1, not an assertion. Bad piped lines (LF
or CRLF) and injected drops and duplicates degrade cgcd to exit 1 with
the damage counted in its summary, and the queries still answered.
"""

import json
import os
import sys

from cli_contract import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, Contract

# cgcd --generate flag values that are usage errors, with the flag each
# names.
CGCD_USAGE_ERRORS = (
    (["--width", "0"], "--width"),
    (["--slide", "7"], "--slide"),
    (["--lag", "-1"], "--lag"),
    (["--error", "0.7"], "--error"),
    (["--days", "0"], "--days"),
    (["--batch", "-1"], "--batch"),
    (["--rate-bins", "-1"], "--rate-bins"),
    (["--sampling", "0"], "--sampling"),
    (["--rate", "-1"], "--rate"),
)

# Google task_events rows: a submit, a schedule, a garbage line and a
# finish of one task.
PIPED_EVENTS = ("0,,1001,0,,0,,,1\n1000000,,1001,0,42,1,,,1\ngarbage\n"
                "5000000,,1001,0,42,4,,,1\n")


def main():
    if len(sys.argv) != 4:
        sys.stderr.write(__doc__)
        return EXIT_USAGE
    cgcd, convert, fsck = (os.path.abspath(exe) for exe in sys.argv[1:])
    c = Contract("stream_cli_test")

    for exe in (cgcd, convert, fsck):
        c.expect(exe, ["--help"], EXIT_OK)
    for args, named in CGCD_USAGE_ERRORS:
        c.expect(cgcd, ["--generate", "--spill", c.out, *args], EXIT_USAGE,
                 named)
    for days in (["abc"], ["0"], ["-3"], ["--days", "0"]):
        c.expect(convert, ["generate", "AuverGrid", c.path("out", "a.gwf"),
                           *days], EXIT_USAGE, "days")

    def answers(args, code=EXIT_OK, stdin=None, **env):
        """cgcd's output JSON, or None (a failure)."""
        proc = c.expect(cgcd, args, code, stdin=stdin, **env)
        try:
            return json.loads(proc.stdout)
        except ValueError as e:
            c.fail(f"cgcd {' '.join(args)}: stdout is not JSON: {e}")
            return None

    def thread_independent(label, args):
        """cgcd's output at CGC_THREADS=1, if 4 gives the same queries."""
        one, four = (answers(args, CGC_THREADS=t) for t in (1, 4))
        if one and four:
            c.same(f"cgcd {label}: queries differ between CGC_THREADS=1 "
                   "and 4", one["queries"], four["queries"])
            c.same(f"cgcd {label}: events differ between CGC_THREADS=1 "
                   "and 4", one["summary"]["events"],
                   four["summary"]["events"])
        return one

    generated = ["--generate", "--days", "1", "--sampling", "0.5"]
    day = [*generated, "--query", "all"]
    d = thread_independent("tumbling", [*day, "--window", "12"])
    if d:
        s, a = d["summary"], d["queries"]["all"]
        mix, jobs = a["priority_mix"], a["job_cdf"]
        c.check(s["events"] > 100000 and s["windows_closed"] >= 24 and
                not s["health"]["lossy"] and d["window_found"],
                f"cgcd smoke: summary {s}")
        c.check(mix["submits"] > 1000 and
                sum(mix["per_priority"]) == mix["submits"],
                f"cgcd smoke: priority_mix {mix}")
        c.check(jobs["count"] > 100 and
                jobs["p50"] <= jobs["p90"] <= jobs["p99"],
                f"cgcd smoke: job_cdf {jobs}")
        c.check(a["queue"]["running"] > 0, f"cgcd smoke: queue {a['queue']}")
        c.check(a["noise"]["dispersion"] > 0,
                f"cgcd smoke: noise {a['noise']}")

    # Sliding 1 h / 5 min windows: every window adds up 12 panes.
    d = thread_independent("sliding", [*day, "--width", "3600", "--slide",
                                       "300", "--window", "144"])
    if d:
        c.check(d["window_found"], "cgcd sliding: window 144 not retained")

    google, store = c.path("g"), c.path("g.cgcs")
    c.expect(convert, ["generate", "google", google, "1"], EXIT_OK)
    info = c.expect(convert, ["info", google], EXIT_OK)
    c.check("validation: OK" in info.stdout,
            f"trace_convert info: the trace read back from CSV does not "
            f"validate\n{info.stdout}")
    c.expect(convert, ["to-cgcs", google, store], EXIT_OK)
    c.expect(fsck, [store], EXIT_OK)
    d = thread_independent("replay", ["--input", store, "--query", "all",
                                      "--window", "12"])
    if d:
        c.check(d["summary"]["events"] > 0, f"cgcd replay: {d['summary']}")

    c.expect(convert, ["generate", "AuverGrid", "/dev/full", "1"],
             EXIT_FAILURE)
    c.expect(convert, ["to-cgcs", google, "/dev/full"], EXIT_FAILURE,
             absent="CGC_CHECK failed")

    for name, lines in (("LF", PIPED_EVENTS),
                        ("CRLF", PIPED_EVENTS.replace("\n", "\r\n"))):
        d = answers(["--input", "-", "--width", "10", "--query", "queue"],
                    EXIT_FAILURE, stdin=lines)
        if d:
            s, q = d["summary"], d["queries"]["queue"]["queue"]
            c.check(s["events"] == 3 and s["health"]["parse_bad_lines"] == 1
                    and s["health"]["lossy"],
                    f"cgcd piped {name} lines: summary {s}")
            c.check(q["submits"] == 1 and q["terminals"] == 1,
                    f"cgcd piped {name} lines: queue {q}")

    d = answers([*generated, "--query", "priority_mix", "--window", "12"],
                EXIT_FAILURE,
                CGC_FAULT_SPEC="stream.drop:p=0.05,seed=9;"
                               "stream.dup:p=0.02,seed=10")
    if d:
        h = d["summary"]["health"]
        c.check(h["faults_dropped"] > 0 and h["faults_duplicated"] > 0 and
                h["lossy"], f"cgcd under injected faults: health {h}")
        c.check(d["queries"]["priority_mix"] is not None,
                "cgcd under injected faults: no priority_mix answer")
    return c.finish("cgcd/trace_convert/cgc_fsck CLI contract holds")


if __name__ == "__main__":
    sys.exit(main())
