"""Shared harness of the CLI contract tests: cgc_report_cli_test,
sweep_shard_cli_test and stream_cli_test.

A Contract owns a throwaway work dir and the environment every command
runs in: CGC_BENCH_FAST=1 with throwaway CGC_BENCH_OUT and
CGC_BENCH_CACHE directories and no CGC_FAULT_SPEC, so a build that
wrongly starts a sweep stays at smoke-test scale and then fails its
exit-code check. Failed checks are collected, each with the command and
the first difference or the tail of stderr, and printed at the end.
"""

import difflib
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

# The exit taxonomy (util/check.hpp).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_FATAL = 3

# Bound of one command; the test's ctest TIMEOUT bounds the whole run.
COMMAND_TIMEOUT_S = 300


def tail(text):
    """The end of a command's output, as shown in a failure."""
    return text[-1500:]


def dat_digests(out, recursive=False):
    """sha256 of every .dat file in `out` (and its subdirectories when
    `recursive`), by path relative to `out`."""
    pattern = os.path.join(out, "**", "*.dat") if recursive else \
        os.path.join(out, "*.dat")
    digests = {}
    for path in sorted(glob.glob(pattern, recursive=recursive)):
        with open(path, "rb") as f:
            digests[os.path.relpath(path, out)] = hashlib.sha256(
                f.read()).hexdigest()
    return digests


def first_difference(want, got):
    """Where two values first differ: a unified diff of line lists, the
    differing keys of dicts, the first differing offset of bytes."""
    if isinstance(want, dict) and isinstance(got, dict):
        keys = sorted(set(want) | set(got))
        return "\n".join([f"  {k}: {want.get(k)} != {got.get(k)}"[:300]
                          for k in keys if want.get(k) != got.get(k)][:12])
    if isinstance(want, bytes) and isinstance(got, bytes):
        at = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                  min(len(want), len(got)))
        return f"  first difference at byte {at} ({len(want)} vs " \
               f"{len(got)} bytes)"
    if isinstance(want, list) and isinstance(got, list) and \
            all(isinstance(line, str) for line in want + got):
        return "\n".join(list(difflib.unified_diff(
            want, got, lineterm=""))[:12])
    return f"  want: {str(want)[:700]}\n  got:  {str(got)[:700]}"


class Contract:
    """The work dir, environment and failures of one contract test."""

    def __init__(self, name):
        self._dir = tempfile.TemporaryDirectory(prefix=name + "_")
        self.tmp = self._dir.name
        self.out = self.path("out")
        self.env = dict(os.environ, CGC_BENCH_FAST="1",
                        CGC_BENCH_OUT=self.out,
                        CGC_BENCH_CACHE=self.path("cache"))
        self.env.pop("CGC_FAULT_SPEC", None)
        self.failures = []

    def path(self, *parts):
        """A path in the work dir."""
        return os.path.join(self.tmp, *parts)

    def fail(self, message):
        """Records a failed check."""
        self.failures.append(message)

    def check(self, ok, message):
        """Records `message` as a failure unless `ok`; returns `ok`."""
        if not ok:
            self.fail(message)
        return bool(ok)

    def same(self, label, want, got):
        """Records `label` with the first difference unless want == got."""
        return self.check(want == got,
                          f"{label}\n{first_difference(want, got)}")

    def same_file(self, a, b):
        """The `cmp` of two files."""
        try:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                return self.same(f"{a} and {b} differ", fa.read(), fb.read())
        except OSError as e:
            return self.check(False, f"cmp {a} {b}: {e}")

    def json(self, path):
        """The parsed JSON file at `path`, or None (a failure) if it does
        not read."""
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, ValueError) as e:
            self.fail(f"{path}: no readable JSON: {e}")
            return None

    def expect(self, exe, args, code, named=None, absent=None, stdin=None,
               preexec_fn=None, **env):
        """Runs `exe` in the work dir under the contract environment, with
        `env` overriding it (a None value unsets a variable), and records
        a failure unless it exits `code` with `named` in its stderr and
        `absent` not. A usage error must do no work: it leaves
        $CGC_BENCH_OUT uncreated. Returns the process."""
        run_env = dict(self.env)
        for name, value in env.items():
            if value is None:
                run_env.pop(name, None)
            else:
                run_env[name] = str(value)
        label = " ".join([os.path.basename(exe), *args])
        if code == EXIT_USAGE:
            shutil.rmtree(self.out, ignore_errors=True)
        proc = subprocess.run([exe, *args], cwd=self.tmp, env=run_env,
                              input=stdin, preexec_fn=preexec_fn,
                              capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S, check=False)
        if proc.returncode != code:
            self.fail(f"{label}: exit {proc.returncode}, want {code}\n"
                      f"{tail(proc.stderr)}")
        elif named is not None and named not in proc.stderr:
            self.fail(f"{label}: stderr does not name {named!r}\n"
                      f"{tail(proc.stderr)}")
        elif absent is not None and absent in proc.stderr:
            self.fail(f"{label}: stderr has {absent!r}\n{tail(proc.stderr)}")
        elif code == EXIT_USAGE and os.path.exists(self.out):
            self.fail(f"{label}: a usage error still did work")
        return proc

    def finish(self, holds):
        """Prints every failure, removes the work dir and returns the exit
        code: 0 and the line `holds` when nothing failed."""
        self._dir.cleanup()
        for failure in self.failures:
            print(f"FAIL {failure}", file=sys.stderr)
        if self.failures:
            return 1
        print(holds)
        return 0
