#!/usr/bin/env python3
"""Repo-invariant linter: module layering, wall-clock ban, isolation rules.

Run first in CI (scripts/ci.sh) so structural violations fail before any
compile time is spent. Two invariant families:

1. Module DAG. Every `#include "module/..."` in src/<module>/ must point at a
   module the owner is allowed to depend on. The allowed direct dependencies
   mirror the target_link_libraries graph in CMakeLists.txt:

       common <- {obs, rabin, gpusim}
       common, rabin <- chunking
       chunking <- dedup
       {common, dedup, obs} <- retention
       {rabin, chunking, gpusim, dedup, obs} <- core
       {core, retention} <- service
       {core, dedup, retention, service} <- backup
       {core, dedup} <- {inchdfs, redelim}

   The checker takes the transitive closure, so `backup` including
   "rabin/rabin.h" is fine (via core) but `common` including anything above
   itself — or any cycle — is flagged. The direct map itself is verified
   acyclic on every run.

2. Wall-clock ban. Virtual-time code (src/core, src/gpusim, src/backup,
   src/service, src/obs) must not read the host clock: simulated timestamps
   come from the GpuTimeline / transport event loops, and a stray
   steady_clock::now() silently corrupts virtual-time accounting in a way no
   unit test catches. Banned tokens: steady_clock, system_clock,
   high_resolution_clock, clock_gettime, gettimeofday, and word-boundary
   `time(` (so gpusim's stream_time(...) does not trip it). The only code
   allowed to touch the host clock is common/timer (the Stopwatch used for
   wall_seconds reporting) and common/logging (log line timestamps) — both
   outside the scanned directories, listed here as an explicit allowlist so
   moving them would still pass.

3. Retention isolation. src/retention/ is the storage control plane: it may
   see chunk stores and indexes (dedup) but never the layers that drive it.
   Any `#include "service/..."` or `#include "backup/..."` under
   src/retention/ is flagged by name — the module-DAG check would reject it
   too, but this failure reads as the design violation it is: a delete walk
   or GC sweep calling back up into a session or wire protocol inverts the
   subsystem's whole dependency story (docs/retention.md).

4. Sink isolation. src/core/sink.{h,cc} define the payload-view layer every
   consumer (service store threads, backup framing, user sinks) builds on;
   the zero-copy contract (docs/zero_copy.md) only holds if the sink layer
   never reaches up into its consumers. Any `#include "service/..."` or
   `#include "backup/..."` there is flagged, even though the module-DAG
   check would also reject it — this names the specific file and contract
   so the failure reads as a design violation, not a build-graph typo.

5. Single ingest decision. dedup::Deduplicator holds the one per-chunk
   dedup decision (probe the index, add_ref or put, self-heal a stale hit);
   every ingest frontend calls it instead of walking the index itself.
   Under src/, `lookup_or_insert(` may therefore appear only in src/dedup/
   and in src/backup/agent.cc — the backup site's receive-side catalog,
   which records what arrived rather than deciding what to ship. A new call
   anywhere else is a forked decision path, flagged by name.

6. Single cut. core::PipelineEngine's per-stream cutter is the only min/max
   cut over a pipeline stream: every batch carries final chunk ends, so no
   frontend filters raw boundaries itself. Under src/, `MinMaxFilter` may
   therefore appear (comments stripped) only in src/chunking/, which
   defines it, and src/core/pipeline.cc, which runs it. A use anywhere else
   is a second cut whose batch grouping can drift from the engine's,
   flagged by name.

Exit status: 0 = clean, 1 = violations (one line each on stderr),
2 = usage/internal error. `--self-test` runs the checker over the fixture
trees in tests/lint_fixtures/ and verifies each violation kind is caught.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Direct module dependencies, mirroring CMakeLists.txt.
DIRECT_DEPS: dict[str, set[str]] = {
    "common": set(),
    "obs": {"common"},
    "rabin": {"common"},
    "chunking": {"common", "rabin"},
    "gpusim": {"common"},
    "dedup": {"common", "chunking"},
    "retention": {"common", "dedup", "obs"},
    "core": {"common", "rabin", "chunking", "gpusim", "dedup", "obs"},
    "service": {"core", "retention"},
    "backup": {"core", "dedup", "retention", "service"},
    "inchdfs": {"core", "dedup"},
    "redelim": {"core", "dedup"},
}

# Directories under src/ whose code runs on virtual time.
VIRTUAL_TIME_MODULES = ("core", "gpusim", "backup", "service", "obs",
                        "retention")

# Files allowed to read the host clock (relative to src/).
WALL_CLOCK_ALLOWLIST = (
    "common/timer.h",
    "common/timer.cc",
    "common/logging.cc",
)

WALL_CLOCK_PATTERNS = [
    re.compile(r"\bsteady_clock\b"),
    re.compile(r"\bsystem_clock\b"),
    re.compile(r"\bhigh_resolution_clock\b"),
    re.compile(r"\bclock_gettime\b"),
    re.compile(r"\bgettimeofday\b"),
    # Word boundary: matches `time(...)` / `::time(0)` but not stream_time(.
    re.compile(r"(?<![A-Za-z0-9_])time\s*\("),
]

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")

# Files under src/ that must not include headers from these consumer modules
# (sink isolation; see docstring point 4).
SINK_ISOLATION_FILES = ("core/sink.h", "core/sink.cc")
SINK_FORBIDDEN_MODULES = ("service", "backup")

# The retention control plane must not reach up into the layers that drive
# it (retention isolation; see docstring point 3).
RETENTION_FORBIDDEN_MODULES = ("service", "backup")

# Where the index's per-chunk probe may be called (single ingest decision;
# see docstring point 5), relative to src/: a module directory or a file.
INGEST_DECISION_OWNERS = ("dedup/", "backup/agent.cc")
INGEST_DECISION_RE = re.compile(r"\blookup_or_insert\s*\(")

# Where the min/max filter may be used (single cut; see docstring point 6),
# relative to src/: a module directory or a file.
CUT_OWNERS = ("chunking/", "core/pipeline.cc")
CUT_RE = re.compile(r"\bMinMaxFilter\b")


def transitive_closure(direct: dict[str, set[str]]) -> dict[str, set[str]]:
    closure = {m: set(d) for m, d in direct.items()}
    changed = True
    while changed:
        changed = False
        for m in closure:
            extra = set()
            for dep in closure[m]:
                extra |= closure.get(dep, set())
            if not extra <= closure[m]:
                closure[m] |= extra
                changed = True
    return closure


def assert_acyclic(direct: dict[str, set[str]]) -> None:
    closure = transitive_closure(direct)
    for m, deps in closure.items():
        if m in deps:
            raise RuntimeError(f"dependency map has a cycle through '{m}'")


def strip_comments(line: str) -> str:
    # Good enough for token scanning: drop // comments. (Block comments in
    # this codebase never wrap banned tokens; a false negative there would
    # be caught in review, a false positive never fires.)
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def check_layering(src: Path) -> list[str]:
    errors = []
    allowed = transitive_closure(DIRECT_DEPS)
    for module in sorted(DIRECT_DEPS):
        mdir = src / module
        if not mdir.is_dir():
            continue
        ok = allowed[module] | {module}
        for path in sorted(mdir.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            for lineno, line in enumerate(
                    path.read_text(errors="replace").splitlines(), 1):
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                target = m.group(1).split("/")[0]
                if target in DIRECT_DEPS and target not in ok:
                    rel = path.relative_to(src.parent)
                    errors.append(
                        f"{rel}:{lineno}: layering violation: module "
                        f"'{module}' may not include \"{m.group(1)}\" "
                        f"(allowed: {', '.join(sorted(ok))})")
    return errors


def check_wall_clock(src: Path) -> list[str]:
    errors = []
    for module in VIRTUAL_TIME_MODULES:
        mdir = src / module
        if not mdir.is_dir():
            continue
        for path in sorted(mdir.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel_src = path.relative_to(src).as_posix()
            if rel_src in WALL_CLOCK_ALLOWLIST:
                continue
            for lineno, raw in enumerate(
                    path.read_text(errors="replace").splitlines(), 1):
                line = strip_comments(raw)
                for pat in WALL_CLOCK_PATTERNS:
                    if pat.search(line):
                        rel = path.relative_to(src.parent)
                        errors.append(
                            f"{rel}:{lineno}: wall-clock call "
                            f"('{pat.pattern}') in virtual-time code: "
                            f"{raw.strip()}")
                        break
    return errors


def check_retention_isolation(src: Path) -> list[str]:
    errors = []
    mdir = src / "retention"
    if not mdir.is_dir():
        return errors
    for path in sorted(mdir.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        for lineno, line in enumerate(
                path.read_text(errors="replace").splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1).split("/")[0]
            if target in RETENTION_FORBIDDEN_MODULES:
                rel = path.relative_to(src.parent)
                errors.append(
                    f"{rel}:{lineno}: retention isolation violation: the "
                    f"retention control plane may not include "
                    f"\"{m.group(1)}\" — it depends on dedup stores and "
                    f"indexes, never on the layers that drive it "
                    f"({', '.join(RETENTION_FORBIDDEN_MODULES)})")
    return errors


def check_sink_isolation(src: Path) -> list[str]:
    errors = []
    for rel_src in SINK_ISOLATION_FILES:
        path = src / rel_src
        if not path.is_file():
            continue
        for lineno, line in enumerate(
                path.read_text(errors="replace").splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1).split("/")[0]
            if target in SINK_FORBIDDEN_MODULES:
                rel = path.relative_to(src.parent)
                errors.append(
                    f"{rel}:{lineno}: sink isolation violation: the payload "
                    f"view layer may not include \"{m.group(1)}\" — sink.h/cc "
                    f"must stay independent of its consumers "
                    f"({', '.join(SINK_FORBIDDEN_MODULES)})")
    return errors


def owned_token_uses(src: Path, owners: tuple[str, ...],
                     token: re.Pattern[str]):
    """Yields (path, lineno, line) for every comment-stripped match of
    `token` under src/ outside `owners` (module dirs ending in / or files)."""
    for path in sorted(src.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel_src = path.relative_to(src).as_posix()
        if any(rel_src == owner or (owner.endswith("/") and
                                    rel_src.startswith(owner))
               for owner in owners):
            continue
        for lineno, raw in enumerate(
                path.read_text(errors="replace").splitlines(), 1):
            if token.search(strip_comments(raw)):
                yield path, lineno, raw


def check_ingest_decision(src: Path) -> list[str]:
    return [
        f"{path.relative_to(src.parent)}:{lineno}: single ingest decision "
        f"violation: lookup_or_insert( outside dedup::Deduplicator — call "
        f"Deduplicator::ingest_chunk instead of forking the "
        f"probe -> ref -> store walk: {raw.strip()}"
        for path, lineno, raw in owned_token_uses(
            src, INGEST_DECISION_OWNERS, INGEST_DECISION_RE)]


def check_single_cut(src: Path) -> list[str]:
    return [
        f"{path.relative_to(src.parent)}:{lineno}: single cut violation: "
        f"MinMaxFilter outside src/chunking/ and src/core/pipeline.cc — "
        f"consume the engine's BoundaryBatch::chunk_ends instead of "
        f"cutting raw boundaries a second time: {raw.strip()}"
        for path, lineno, raw in owned_token_uses(src, CUT_OWNERS, CUT_RE)]


def run_checks(root: Path) -> list[str]:
    src = root / "src"
    if not src.is_dir():
        raise RuntimeError(f"no src/ under {root}")
    assert_acyclic(DIRECT_DEPS)
    return (check_layering(src) + check_wall_clock(src)
            + check_retention_isolation(src) + check_sink_isolation(src)
            + check_ingest_decision(src) + check_single_cut(src))


def self_test(repo_root: Path) -> int:
    fixtures = repo_root / "tests" / "lint_fixtures"
    failures = []

    def expect(name: str, min_errors: int, needle: str = "") -> None:
        errors = run_checks(fixtures / name)
        if min_errors == 0 and errors:
            failures.append(f"{name}: expected clean, got: {errors}")
        elif min_errors > 0:
            if len(errors) < min_errors:
                failures.append(
                    f"{name}: expected >= {min_errors} errors, got {errors}")
            elif needle and not any(needle in e for e in errors):
                failures.append(f"{name}: no error mentions '{needle}': {errors}")

    expect("clean", 0)
    expect("bad_layering", 1, "layering violation")
    expect("bad_clock", 1, "wall-clock call")
    expect("bad_sink_dep", 1, "sink isolation")
    expect("bad_retention_dep", 2, "retention isolation")
    expect("bad_ingest_fork", 1, "single ingest decision")
    expect("bad_second_cut", 1, "single cut")

    # The word-boundary regex must not flag identifiers ending in `time`.
    clean_errors = run_checks(fixtures / "clean")
    if any("stream_time" in e for e in clean_errors):
        failures.append(f"clean: stream_time( false positive: {clean_errors}")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print("check_invariants.py self-test: all fixtures behave as expected")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=None,
                    help="repo root to scan (default: this script's repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checker over tests/lint_fixtures/")
    args = ap.parse_args()

    repo_root = Path(__file__).resolve().parent.parent
    if args.self_test:
        return self_test(repo_root)

    root = args.root if args.root is not None else repo_root
    try:
        errors = run_checks(root)
    except RuntimeError as e:
        print(f"check_invariants.py: {e}", file=sys.stderr)
        return 2
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check_invariants.py: {len(errors)} violation(s)",
              file=sys.stderr)
        return 1
    print("check_invariants.py: module DAG, wall-clock, isolation, "
          "single-ingest-decision and single-cut invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
