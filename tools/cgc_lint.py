#!/usr/bin/env python3
"""cgc_lint — project-specific static checks for the cgc codebase.

Generic tools cannot know this project's two load-bearing contracts:
outputs are bit-identical at any CGC_THREADS (the determinism contract,
DESIGN.md §15), and every process exit flows through the normalized
0/1/2/3 taxonomy (util/check.hpp). cgc_lint turns both, plus the
fault/metric site registry and the public-header docs gate, into
lint-time errors:

  nondeterminism       banned wall-clock/PRNG/pointer-order constructs
  unordered-iteration  range-for over std::unordered_{map,set} values
  site-registry        fault/metric site strings: code <-> README table
                       <-> DESIGN.md <-> at least one test, both ways
  exit-taxonomy        exit codes outside 0..3, raw `throw std::...`
  doc-coverage         public members of enforced headers documented;
                       every bench case and bench_perf leg named in
                       EXPERIMENTS.md
  input-check          CGC_CHECK in a trace/store input reader

Findings print as `path:line: [check] message` and exit 1; a clean run
exits 0; usage errors exit 2 (matching the repo's own taxonomy).

Any finding can be suppressed where it fires:

    ... flagged code ...  // cgc-lint: allow(<check>) <reason>

on the finding's line or the line above. The reason text is mandatory —
a bare allow() is itself reported — so every exception stays auditable
with `grep -rn cgc-lint:`.

`--root` rebases everything (code dirs, README.md, DESIGN.md, tests/)
onto another tree; the lint_test fixtures use this to prove each check
fires. See DESIGN.md §15 for the full catalog and rationale.
"""

import argparse
import re
import sys
from pathlib import Path

CPP_EXTS = {".cpp", ".hpp", ".h"}

ALL_CHECKS = (
    "nondeterminism",
    "unordered-iteration",
    "site-registry",
    "exit-taxonomy",
    "doc-coverage",
    "input-check",
)

# Directories whose code may register fault/metric sites. tools/ and
# tests/ are excluded: tests *reference* sites (that is the third leg of
# the registry), they do not define them.
SITE_CODE_DIRS = ("src", "bench", "examples")

# Subsystem prefixes a site string may use. A backticked `foo.bar` token
# in the docs with one of these prefixes is treated as a site claim and
# verified against the code (the "vice versa" leg).
SITE_PREFIXES = (
    "exec",
    "io",
    "plan",
    "report",
    "sim",
    "store",
    "stream",
    "sweep",
    "trace",
)

# Dotted doc tokens that are file names, not sites (`report.json`,
# `worker.lease`, ...).
NON_SITE_SUFFIXES = (
    ".json", ".jsonl", ".md", ".py", ".cpp", ".hpp", ".h", ".txt",
    ".dat", ".log", ".lock", ".cgcs", ".tmp", ".lease", ".yml",
    ".yaml", ".gz", ".csv", ".out", ".swf", ".gwf", ".sh",
)

# Headers whose public members must all carry doc comments when no
# explicit path is given. The gate grows subsystem by subsystem; sim was
# first (analyst-facing knobs), the concurrency/observability layers
# (exec, util, fault, obs) joined with the static-analysis contract.
DOC_ENFORCED_ROOTS = (
    "src/sim", "src/exec", "src/util", "src/fault", "src/obs", "src/plan")

SUPPRESS_RE = re.compile(r"//\s*cgc-lint:\s*allow\(([a-z-]+)\)\s*(.*)$")


class Finding:
    """One lint finding, printable as `path:line: [check] message`."""

    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def render(self, root):
        try:
            shown = self.path.relative_to(root)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: [{self.check}] {self.message}"


class FileCache:
    """Reads each file once; parses suppression comments alongside."""

    def __init__(self):
        self._lines = {}
        self._allows = {}   # path -> {lineno: set(check names)}
        self._bad_allows = {}  # path -> [(lineno, message)]

    def lines(self, path):
        if path not in self._lines:
            text = path.read_text(errors="replace")
            self._lines[path] = text.splitlines()
            self._parse_allows(path)
        return self._lines[path]

    def text(self, path):
        return "\n".join(self.lines(path))

    def _parse_allows(self, path):
        allows, bad = {}, []
        for lineno, line in enumerate(self._lines[path], 1):
            m = SUPPRESS_RE.search(line)
            if not m:
                continue
            check, reason = m.group(1), m.group(2).strip()
            if check not in ALL_CHECKS:
                bad.append((lineno, f"unknown check '{check}' in suppression"))
                continue
            if not reason:
                bad.append(
                    (lineno,
                     f"suppression of '{check}' without a reason — "
                     "write `// cgc-lint: allow(" + check + ") <why>`"))
                continue
            allows.setdefault(lineno, set()).add(check)
        self._allows[path] = allows
        self._bad_allows[path] = bad

    def suppressed(self, path, lineno, check):
        """allow(<check>) on the finding's line, or in the comment block
        immediately above it (a justification may span several comment
        lines)."""
        allows = self._allows.get(path, {})
        if check in allows.get(lineno, ()):
            return True
        lines = self._lines.get(path, [])
        probe = lineno - 1
        while probe >= 1 and lines[probe - 1].strip().startswith("//"):
            if check in allows.get(probe, ()):
                return True
            probe -= 1
        return False

    def bad_allows(self, path):
        self.lines(path)
        return self._bad_allows[path]


def iter_cpp_files(paths):
    for path in paths:
        if path.is_file() and path.suffix in CPP_EXTS:
            yield path
        elif path.is_dir():
            for f in sorted(path.rglob("*")):
                if f.suffix in CPP_EXTS and f.is_file():
                    yield f


# --------------------------------------------------------------------
# nondeterminism
# --------------------------------------------------------------------

# Constructs whose value depends on the machine, the wall clock, or the
# address-space layout. Any of them on an output path breaks the
# bit-identical contract; none has a legitimate use here that a seeded
# splitmix64 / CLOCK_MONOTONIC / value-keyed container cannot serve.
NONDET_PATTERNS = (
    (re.compile(r"\bstd::random_device\b|(?<!:)\brandom_device\b"),
     "std::random_device is machine entropy — seed splitmix64 from the "
     "run config instead (determinism contract, DESIGN.md §15)"),
    (re.compile(r"(?<![\w:])s?rand\s*\("),
     "rand()/srand() draw from hidden global state — use the seeded "
     "generators in cgc::gen"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr) is wall-clock — outputs must not depend on when "
     "they were produced (use CLOCK_MONOTONIC for intervals)"),
    (re.compile(r"\bsystem_clock\b"),
     "system_clock is wall-clock and can step backwards — use "
     "steady_clock for intervals; timestamps must come from the trace"),
    (re.compile(r"\bstd::(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"),
     "pointer-keyed ordered container — iteration order is the "
     "allocator's address order, different every run; key by a stable "
     "id instead"),
    (re.compile(r"\bstd::atomic\s*<\s*(?:float|double)\s*>"),
     "atomic float accumulation commits in scheduling order — route "
     "reductions through cgc::exec's deterministic chunk combiner"),
)


def check_nondeterminism(files, cache, findings):
    for path in files:
        for lineno, line in enumerate(cache.lines(path), 1):
            code = line.split("//", 1)[0]
            for pattern, why in NONDET_PATTERNS:
                if pattern.search(code):
                    findings.append(Finding(path, lineno, "nondeterminism", why))


# --------------------------------------------------------------------
# unordered-iteration
# --------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s*"
    r"(\w+)\s*(?:[;={(]|CGC_GUARDED_BY)")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[^;()]*?:\s*"
    r"((?:\w+(?:\.|->))*)(\w+)\s*\)")


def check_unordered_iteration(files, cache, findings):
    """Range-for over a name declared as an unordered container.

    Heuristic and file-local by design: it catches the pattern that has
    actually bitten this codebase (emitting rows straight out of an
    unordered_map), while sorted snapshots, sorted containers, or an
    explicit allow() express the fix.
    """
    for path in files:
        text = cache.text(path)
        unordered = set(UNORDERED_DECL_RE.findall(text))
        if not unordered:
            continue
        for lineno, line in enumerate(cache.lines(path), 1):
            code = line.split("//", 1)[0]
            for m in RANGE_FOR_RE.finditer(code):
                name = m.group(2)
                if name in unordered:
                    findings.append(Finding(
                        path, lineno, "unordered-iteration",
                        f"range-for over unordered container '{name}' — "
                        "iteration order is unspecified and can reach "
                        "output; sort first (std::map, sorted snapshot) "
                        "or justify with an allow()"))


# --------------------------------------------------------------------
# site-registry
# --------------------------------------------------------------------

FAULT_SITE_RE = re.compile(
    r"fault::(?:inject|maybe_throw)\(\s*\"([^\"]+)\"")
METRIC_SITE_RE = re.compile(
    r"obs::(?:counter|gauge|histogram)\(\s*\"([^\"]+)\"")
TIMER_SITE_RE = re.compile(
    r"obs::ScopedTimer\s+\w+\(\s*\"([^\"]+)\"")
DOC_TOKEN_RE = re.compile(r"`([a-z][a-z0-9_]*\.[a-z0-9_.]+)`")


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def _is_site_token(token):
    if token.endswith(NON_SITE_SUFFIXES):
        return False
    prefix = token.split(".", 1)[0]
    return prefix in SITE_PREFIXES


def check_site_registry(root, cache, findings):
    """Two-way fault/metric site consistency.

    Forward: every site literal the code can fire must be documented in
    the README table, mentioned in DESIGN.md, and exercised by at least
    one test — otherwise it is an undocumented knob or untested fault
    leg. Reverse: every site the docs claim must exist in code —
    otherwise the docs describe behavior the binaries no longer have.
    """
    readme = root / "README.md"
    design = root / "DESIGN.md"
    tests_dir = root / "tests"
    for required in (readme, design):
        if not required.is_file():
            findings.append(Finding(
                required, 1, "site-registry",
                f"missing {required.name} — site tables cannot be verified"))
            return

    # Code sites, with the first line each fires from.
    sites = {}  # name -> (path, line, kind)
    for code_dir in SITE_CODE_DIRS:
        base = root / code_dir
        if not base.is_dir():
            continue
        for path in iter_cpp_files([base]):
            if (root / "src" / "fault") in path.parents:
                continue  # the injection framework, not a site
            text = cache.text(path)
            for kind, pattern in (("fault", FAULT_SITE_RE),
                                  ("metric", METRIC_SITE_RE),
                                  ("metric", TIMER_SITE_RE)):
                for m in pattern.finditer(text):
                    sites.setdefault(
                        m.group(1), (path, _line_of(text, m.start()), kind))

    readme_tokens = set(DOC_TOKEN_RE.findall(cache.text(readme)))
    design_tokens = set(DOC_TOKEN_RE.findall(cache.text(design)))

    test_text = ""
    if tests_dir.is_dir():
        for path in sorted(tests_dir.rglob("*")):
            if path.suffix in CPP_EXTS | {".py"} and path.is_file():
                test_text += cache.text(path)

    for name in sorted(sites):
        path, line, kind = sites[name]
        legs = []
        if name not in readme_tokens:
            legs.append("README.md site table")
        if name not in design_tokens:
            legs.append("DESIGN.md")
        if name not in test_text:
            legs.append("any test under tests/")
        if legs:
            findings.append(Finding(
                path, line, "site-registry",
                f"{kind} site '{name}' is missing from: " + ", ".join(legs)))

    # Reverse: doc tokens that look like sites but match no code site.
    for doc in (readme, design):
        text = cache.text(doc)
        for m in DOC_TOKEN_RE.finditer(text):
            token = m.group(1)
            if _is_site_token(token) and token not in sites:
                findings.append(Finding(
                    doc, _line_of(text, m.start()), "site-registry",
                    f"documented site '{token}' does not exist in code "
                    "(stale docs, or the site was renamed)"))


# --------------------------------------------------------------------
# exit-taxonomy
# --------------------------------------------------------------------

THROW_STD_RE = re.compile(r"\bthrow\s+std::")
EXIT_CALL_RE = re.compile(r"(?:std::)?(?:_?exit|quick_exit)\s*\(\s*(\d+)\s*\)")
MAIN_RE = re.compile(r"\bint\s+main\s*\(")
RETURN_LIT_RE = re.compile(r"\breturn\s+(\d+)\s*;")


def check_exit_taxonomy(files, cache, findings):
    """Exit codes stay in the normalized 0/1/2/3 set; errors that cross
    layer boundaries are taxonomy types (cgc::util::{Transient,Data,
    Fatal}Error), not raw std exceptions — that is what lets the sweep
    driver classify a failed case as retryable without string-matching.
    """
    for path in files:
        lines = cache.lines(path)
        main_line = None
        for lineno, line in enumerate(lines, 1):
            code = line.split("//", 1)[0]
            if THROW_STD_RE.search(code):
                findings.append(Finding(
                    path, lineno, "exit-taxonomy",
                    "raw `throw std::...` — throw a taxonomy error "
                    "(cgc::util::TransientError/DataError/FatalError) so "
                    "callers can classify it (util/check.hpp)"))
            m = EXIT_CALL_RE.search(code)
            if m and int(m.group(1)) > 3:
                findings.append(Finding(
                    path, lineno, "exit-taxonomy",
                    f"exit({m.group(1)}) is outside the normalized exit "
                    "set 0/1/2/3 (kExitOk/kExitFailure/kExitUsage/"
                    "kExitFatal)"))
            if main_line is None and MAIN_RE.search(code):
                main_line = lineno
            if main_line is not None and lineno >= main_line:
                r = RETURN_LIT_RE.search(code)
                if r and int(r.group(1)) > 3:
                    findings.append(Finding(
                        path, lineno, "exit-taxonomy",
                        f"main() returns {r.group(1)} — exit codes are "
                        "normalized to 0/1/2/3 (util/check.hpp)"))


# --------------------------------------------------------------------
# input-check
# --------------------------------------------------------------------

# The files that read trace and store input (relative to --root).
INPUT_READER_GLOBS = (
    "src/store/reader.cpp",
    "src/store/encoding.cpp",
    "src/store/mmap_file.cpp",
    "src/trace/*_format.cpp",
    "src/trace/parse_report.cpp",
    "src/util/csv.cpp",
)
CGC_CHECK_RE = re.compile(r"\bCGC_CHECK(?:_MSG)?\s*\(")


def check_input_check(root, files, cache, findings):
    """A bad input file is a util::DataError carrying the reason and the
    path; CGC_CHECK would report it as an assertion with the expression
    and a source location. In the input readers every CGC_CHECK must be
    marked as a program invariant with an allow()."""
    readers = {p.resolve() for g in INPUT_READER_GLOBS for p in root.glob(g)}
    for path in files:
        if path.resolve() not in readers:
            continue
        for lineno, line in enumerate(cache.lines(path), 1):
            code = line.split("//", 1)[0]
            if CGC_CHECK_RE.search(code) and \
                    not code.lstrip().startswith("#"):
                findings.append(Finding(
                    path, lineno, "input-check",
                    "CGC_CHECK in an input reader — throw "
                    "util::DataError with the reason and the path for "
                    "bad input, or mark a program invariant with "
                    "`// cgc-lint: allow(input-check) <why>`"))


# --------------------------------------------------------------------
# doc-coverage (ported from the retired check_sim_doc_coverage.py, now
# generalized to any header directory)
# --------------------------------------------------------------------

DECL_SKIP = re.compile(
    r"^\s*(public:|private:|protected:|using\s|friend\s|template\s*<"
    r"|static_assert|#|\}|\{|$)")
AGGREGATE_OPEN = re.compile(r"^\s*(struct|class|enum(\s+class)?|union)\b")


def _doc_check_header(path, cache, findings):
    lines = cache.lines(path)
    # Stack of (kind, visible) per open brace scope. kind is
    # "aggregate", "enum", "namespace", or None (function body /
    # initializer — contents are never member declarations). `visible`
    # means: this scope's current access region AND every enclosing one
    # is public.
    scope = []
    prev_was_comment = False
    pending_decl = None  # first line of a multi-line declaration
    pending_doc = False

    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if not stripped:
            prev_was_comment = False
            continue
        if stripped.startswith("//"):
            prev_was_comment = True
            continue

        code = re.sub(r"\s*//.*$", "", stripped)
        in_enum = bool(scope) and scope[-1][0] == "enum"
        visible = bool(scope) and scope[-1][0] in ("aggregate", "enum") and \
            scope[-1][1]
        opens_aggregate = bool(AGGREGATE_OPEN.match(code)) and not \
            code.endswith(";")

        if code == "public:":
            if scope:
                enclosing = len(scope) < 2 or scope[-2][1]
                scope[-1] = (scope[-1][0], enclosing)
        elif code in ("private:", "protected:"):
            if scope:
                scope[-1] = (scope[-1][0], False)

        # Deleted members are not usable API — nothing to document.
        if code.endswith("= delete;"):
            prev_was_comment = False
            continue
        # A doc comment above `template <...>` documents the declaration
        # that follows it — carry the comment state through.
        if re.match(r"template\s*<[^;{}]*>$", code):
            continue
        member = visible and (
            pending_decl is not None or not DECL_SKIP.match(code))
        if member:
            first_line = pending_decl if pending_decl is not None else lineno
            complete = (
                in_enum
                or code.endswith((";", "{", "}"))
                or opens_aggregate)
            if complete:
                documented = "///<" in raw or (
                    pending_doc if pending_decl is not None
                    else prev_was_comment)
                if not documented:
                    findings.append(Finding(
                        path, first_line, "doc-coverage",
                        "undocumented public member: " +
                        lines[first_line - 1].strip()))
                pending_decl = None
            elif pending_decl is None:
                pending_decl = lineno
                pending_doc = prev_was_comment

        # Brace tracking on the comment-stripped code.
        for ch in code:
            if ch == "{":
                if opens_aggregate:
                    kind = "enum" if code.startswith("enum") else "aggregate"
                    default_public = not code.startswith("class")
                    parent_visible = not scope or (
                        scope[-1][0] in ("aggregate", "enum", "namespace")
                        and scope[-1][1])
                    scope.append((kind, default_public and parent_visible))
                    opens_aggregate = False
                elif code.startswith("namespace"):
                    scope.append(("namespace", True))
                else:
                    scope.append((None, False))
            elif ch == "}":
                if scope:
                    scope.pop()

        prev_was_comment = False


# A bench case registration, and a row of bench_perf's leg table.
BENCH_CASE_RE = re.compile(r'^CGC_BENCH\("([a-z0-9_]*)"', re.MULTILINE)
PERF_LEG_RE = re.compile(r'^ *\{"([a-z]*)", run_\1,', re.MULTILINE)


def _doc_check_experiments(root, cache, findings):
    """Every bench case id and every `bench_perf <leg>` appears in
    backticks in EXPERIMENTS.md."""
    bench = root / "bench"
    if not bench.is_dir():
        return
    experiments = root / "EXPERIMENTS.md"
    documented = cache.text(experiments) if experiments.is_file() else ""
    cases, legs = [], []  # (path, line, name)
    for path in sorted(bench.glob("*.cpp")):
        text = cache.text(path)
        cases += [(path, _line_of(text, m.start()), m.group(1))
                  for m in BENCH_CASE_RE.finditer(text)]
        if path.name == "bench_perf.cpp":
            legs += [(path, _line_of(text, m.start()), "bench_perf " +
                      m.group(1)) for m in PERF_LEG_RE.finditer(text)]
    if not cases or not legs:
        findings.append(Finding(
            bench, 1, "doc-coverage",
            "found no CGC_BENCH ids or no bench_perf legs in bench/*.cpp"))
    for path, line, name in cases + legs:
        if f"`{name}`" not in documented:
            findings.append(Finding(
                path, line, "doc-coverage",
                f"`{name}` is not referenced in EXPERIMENTS.md"))


def check_doc_coverage(root, paths, explicit, cache, findings):
    """Every public member (field, method, enumerator, nested type) of
    an enforced header needs a doc comment: `//`/`///` line(s) above the
    declaration or a trailing `///<`. Run as the standalone
    `--check doc-coverage <path>` subcommand it audits exactly the
    given paths (any src/* dir); in an all-checks run the gate covers
    DOC_ENFORCED_ROOTS and EXPERIMENTS.md's bench index.
    """
    if explicit:
        roots = paths
    else:
        roots = [root / r for r in DOC_ENFORCED_ROOTS]
        _doc_check_experiments(root, cache, findings)
    headers = []
    for r in roots:
        if r.is_file():
            headers.append(r)
        elif r.is_dir():
            headers.extend(sorted(r.rglob("*.hpp")))
            headers.extend(sorted(r.rglob("*.h")))
    for header in sorted(set(headers)):
        _doc_check_header(header, cache, findings)


# --------------------------------------------------------------------


def main(argv):
    parser = argparse.ArgumentParser(
        prog="cgc_lint",
        description="project-specific static checks (see DESIGN.md §15)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/dirs to lint (default: <root>/src)")
    parser.add_argument("--root", default=".",
                        help="repo (or fixture) root holding README.md, "
                             "DESIGN.md, tests/")
    parser.add_argument("--check", action="append", default=None,
                        metavar="NAME",
                        help="run only these checks (repeatable or "
                             "comma-separated); default: all")
    parser.add_argument("--list-checks", action="store_true",
                        help="print check names and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        for name in ALL_CHECKS:
            print(name)
        return 0

    checks = []
    for spec in args.check or []:
        checks.extend(c.strip() for c in spec.split(",") if c.strip())
    for c in checks:
        if c not in ALL_CHECKS:
            print(f"cgc_lint: unknown check '{c}' "
                  f"(known: {', '.join(ALL_CHECKS)})", file=sys.stderr)
            return 2
    if not checks:
        checks = list(ALL_CHECKS)

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"cgc_lint: --root {args.root} is not a directory",
              file=sys.stderr)
        return 2
    explicit_paths = bool(args.paths)
    paths = [Path(p) if Path(p).is_absolute() else root / p
             for p in (args.paths or ["src"])]
    for p in paths:
        if not p.exists():
            print(f"cgc_lint: no such path: {p}", file=sys.stderr)
            return 2

    cache = FileCache()
    findings = []
    files = list(iter_cpp_files(paths))

    if "nondeterminism" in checks:
        check_nondeterminism(files, cache, findings)
    if "unordered-iteration" in checks:
        check_unordered_iteration(files, cache, findings)
    if "site-registry" in checks:
        check_site_registry(root, cache, findings)
    if "exit-taxonomy" in checks:
        check_exit_taxonomy(files, cache, findings)
    if "input-check" in checks:
        check_input_check(root, files, cache, findings)
    if "doc-coverage" in checks:
        check_doc_coverage(root, paths, explicit_paths and checks == ["doc-coverage"],
                           cache, findings)

    kept = [f for f in findings
            if not cache.suppressed(f.path, f.line, f.check)]
    # Malformed suppressions are findings too — an allow() nobody can
    # audit is a hole in the contract.
    for path in files:
        for lineno, message in cache.bad_allows(path):
            kept.append(Finding(path, lineno, "suppression", message))

    kept.sort(key=lambda f: (str(f.path), f.line, f.check))
    for f in kept:
        print(f.render(root))
    if kept:
        print(f"cgc_lint: {len(kept)} finding(s) "
              f"[checks: {', '.join(checks)}]", file=sys.stderr)
        return 1
    print(f"cgc_lint ok: {len(files)} file(s), "
          f"checks: {', '.join(checks)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
