#!/usr/bin/env python3
"""Crash-tolerant sharding of cgc_report (DESIGN.md §14).

    sweep_shard_cli_test.py <cgc_report> <cgc_fsck>

A sweep split across processes must merge to the outputs of an
uninterrupted single-process run: the same top-level .dat sha256s and a
byte-identical report.json. That holds for a 4-way sharded run and for
a supervised --spawn 4 run whose workers are SIGKILLed at random by
fault injection, respawned and resumed. Shard sets that contradict each
other (overlap, digest disagreement) are exit 2 naming the conflict;
missing or torn inputs are resumable, exit 1, naming the shard or the
torn file. The trace cache the shards shared passes `cgc_fsck --cache`.
"""

import os
import shutil
import sys

from cli_contract import (EXIT_FAILURE, EXIT_OK, EXIT_USAGE, Contract,
                          dat_digests)

ONLY = "tab01,fig02,fig03,fig05"

# Hot enough that several lives die, cool enough that no shard exhausts
# CGC_SWEEP_RETRY=8: a life survives with (1 - p)^(2 * cases).
KILL_SPEC = "sweep.worker_kill:p=0.12,seed=42"


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return EXIT_USAGE
    report, fsck = (os.path.abspath(exe) for exe in sys.argv[1:])
    c = Contract("sweep_shard_cli_test")

    def sweep(out, *args, code=EXIT_OK, named=None, **env):
        return c.expect(report, ["--only", ONLY, *args], code, named,
                        CGC_BENCH_OUT=c.path(out), **env)

    def merge(out, *dirs, code=EXIT_OK, named=None):
        return sweep(out, "--merge", *(c.path(d) for d in dirs), code=code,
                     named=named)

    def same_as_golden(out):
        c.same(f"{out}: .dat files differ from the golden run's",
               dat_digests(c.path("golden_canon")), dat_digests(c.path(out)))
        c.same_file(c.path("golden_canon", "report.json"),
                    c.path(out, "report.json"))

    # The golden single-process run, canonicalized by a merge.
    sweep("golden")
    merge("golden_canon", "golden")

    shards = [f"shard{i}" for i in range(4)]
    for i, shard in enumerate(shards):
        sweep(shard, "--shard", f"{i}/4")
    merge("sharded", *shards)
    same_as_golden("sharded")

    sweep("killed", "--spawn", "4", CGC_SWEEP_RETRY=8,
          CGC_FAULT_SPEC=KILL_SPEC)
    supervisor = c.json(c.path("killed", "supervisor.json"))
    if supervisor:
        c.check(supervisor["respawns"] >= 1,
                "kill injection produced no crashes: the leg is vacuous")
        c.check(all(w["complete"] for w in supervisor["workers"]),
                f"a supervised shard did not complete: {supervisor}")
    same_as_golden("killed")

    # shard3 owns cases of this subset (shard0 may own none, which would
    # read as "missing", not "overlap").
    merge("dup", "shard3", "shard3", code=EXIT_USAGE,
          named="claimed by both")

    shutil.copytree(c.path("shard1"), c.path("shard1_bad"))
    tampered = dat_digests(c.path("shard1_bad"))
    if c.check(tampered, "shard1 owns no .dat file to tamper with"):
        with open(c.path("shard1_bad", min(tampered)), "ab") as f:
            f.write(b"x")
        merge("tampered", "shard0", "shard1_bad", "shard2", "shard3",
              code=EXIT_USAGE, named="digest disagreement")

    merge("torn", "shard0", "gone", code=EXIT_FAILURE, named="resumable")

    # The message names the missing shard under the stamped 4-way split,
    # not the 3 dirs passed.
    merge("three", "shard0", "shard1", "shard2", code=EXIT_FAILURE,
          named="(shard 3 of a 4-way split)")

    shutil.copytree(c.path("shard3"), c.path("shard3_torn"))
    torn = c.path("shard3_torn", "report.json")
    os.truncate(torn, os.path.getsize(torn) // 2)
    merge("torn_report", "shard0", "shard1", "shard2", "shard3_torn",
          code=EXIT_FAILURE, named=f"torn checkpoint {torn}")

    c.expect(fsck, ["--cache", c.path("cache")], EXIT_OK)
    return c.finish("sharded, killed and merged sweeps match the golden run")


if __name__ == "__main__":
    sys.exit(main())
