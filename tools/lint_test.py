#!/usr/bin/env python3
"""Self-test for tools/cgc_lint.py against the seeded fixture trees.

Three legs, mirroring how the cgc_lint ctest target consumes the linter:

  1. tests/lint_fixtures/violations must produce EXACTLY the expected
     findings — every seeded violation reported at its pinned path:line
     with the right check name (proves each check fires), and nothing
     else (pins the finding count, so a regression that adds noise or
     swallows a finding fails either way). Exit code must be 1.
  2. tests/lint_fixtures/clean must produce zero findings and exit 0
     (proves the sorted-container idioms, taxonomy errors, documented
     headers, and a *justified* allow() are not false positives).
  3. Usage errors (unknown check, bad root) must exit 2.

Run from anywhere: paths resolve relative to this file's repo.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "cgc_lint.py"
FIXTURES = REPO / "tests" / "lint_fixtures"

# (relative path, line, check) — one entry per seeded violation.
EXPECTED_VIOLATIONS = {
    ("src/nondet.cpp", 9, "nondeterminism"),
    ("src/nondet.cpp", 14, "nondeterminism"),
    ("src/nondet.cpp", 18, "nondeterminism"),
    ("src/nondet.cpp", 23, "nondeterminism"),
    ("src/unordered.cpp", 9, "unordered-iteration"),
    ("src/sites.cpp", 8, "site-registry"),       # missing all three legs
    ("README.md", 8, "site-registry"),           # ghost site, table row
    ("DESIGN.md", 3, "site-registry"),           # ghost site, prose
    ("src/exit.cpp", 6, "exit-taxonomy"),        # throw std::
    ("src/exit.cpp", 10, "exit-taxonomy"),       # exit(64)
    ("src/exit.cpp", 15, "suppression"),         # allow() without reason
    ("src/exit.cpp", 16, "exit-taxonomy"),       # return 42 in main
    ("src/sim/bad_docs.hpp", 9, "doc-coverage"),
    ("bench/bench_perf.cpp", 2, "doc-coverage"),  # not in EXPERIMENTS.md
    ("src/store/reader.cpp", 6, "input-check"),
}


def run_lint(*args):
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, check=False)


def parse_findings(stdout):
    found = set()
    for line in stdout.splitlines():
        if line.startswith("cgc_lint"):
            continue
        loc, _, rest = line.partition(": [")
        check = rest.partition("]")[0]
        path, _, lineno = loc.rpartition(":")
        found.add((path, int(lineno), check))
    return found


def fail(message):
    print(f"lint_test: FAIL: {message}", file=sys.stderr)
    return 1


def main():
    # Leg 1: every seeded violation fires at its pinned location.
    proc = run_lint("--root", str(FIXTURES / "violations"), "src")
    if proc.returncode != 1:
        return fail(f"violations tree: expected exit 1, got "
                    f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    found = parse_findings(proc.stdout)
    missing = EXPECTED_VIOLATIONS - found
    extra = found - EXPECTED_VIOLATIONS
    if missing:
        return fail(f"checks did not fire: {sorted(missing)}\n{proc.stdout}")
    if extra:
        return fail(f"unexpected findings (false positives): "
                    f"{sorted(extra)}\n{proc.stdout}")

    # Leg 2: the clean tree has zero findings.
    proc = run_lint("--root", str(FIXTURES / "clean"), "src")
    if proc.returncode != 0:
        return fail(f"clean tree: expected exit 0, got {proc.returncode}\n"
                    f"{proc.stdout}{proc.stderr}")

    # Leg 3: usage errors exit 2.
    if run_lint("--check", "no-such-check").returncode != 2:
        return fail("unknown check should exit 2")
    if run_lint("--root", "/no/such/dir").returncode != 2:
        return fail("bad --root should exit 2")

    # Single-check runs stay scoped: nondeterminism alone must not
    # report the doc or site findings. Malformed allow() comments are
    # the one exception — they surface in every run by design.
    proc = run_lint("--root", str(FIXTURES / "violations"), "src",
                    "--check", "nondeterminism")
    checks_seen = {c for (_, _, c) in parse_findings(proc.stdout)}
    if not checks_seen <= {"nondeterminism", "suppression"} or \
            "nondeterminism" not in checks_seen:
        return fail(f"--check nondeterminism leaked other checks:\n"
                    f"{proc.stdout}")

    print("lint_test ok: all checks fire at pinned locations, "
          "clean tree is clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
