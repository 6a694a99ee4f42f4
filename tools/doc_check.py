#!/usr/bin/env python3
"""CI doc-lint gate: markdown link integrity, CLI flag/doc synchronization,
and test names that exist.

Three checks, all stdlib-only so CI runs this straight from the checkout:

  * every intra-repo markdown link in the scanned ``*.md`` files must
    resolve to an existing file or directory (external ``http(s)://``,
    ``mailto:`` and pure ``#anchor`` links are ignored; a ``#fragment``
    suffix on a file link is stripped before the existence check). Docs
    that point at deleted or renamed files are worse than no docs — the
    reader trusts them.
  * every flag the built ``ssbft_cli`` binary advertises in ``--help``
    must be documented somewhere in README.md or docs/ (pass the binary
    with ``--cli PATH``; the help run itself must exit 0). A flag that
    ships undocumented is invisible; a doc that drifts from the binary
    misleads. The same check runs for any extra binaries passed via
    repeated ``--cli``.
  * every backticked ``test_<name>`` in README.md or docs/ must name a
    test file ``tests/test_<name>.cpp``: an invariant pinned by a test
    that does not exist is pinned by nothing. Pages outside README.md and
    docs/ (the change log and the roadmap among them) are not scanned:
    they record history, names included.

Usage:
  tools/doc_check.py --root . --cli build/tools/ssbft_cli
  tools/doc_check.py --self-test
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile

# [text](target) — inline markdown links and images.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# --flag tokens as a CLI help screen or a doc page spells them.
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
# Link schemes that are not intra-repo paths.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")
# A backticked test name, optionally with its .cpp suffix.
TEST_NAME_RE = re.compile(r"`(test_[A-Za-z0-9_]+)(?:\.cpp)?`")
# Directory names never scanned for markdown (build trees, VCS internals).
SKIP_DIRS = {".git", ".github"}


def markdown_files(root):
    """All tracked-looking ``*.md`` files under root, skipping build/VCS
    trees and hidden directories."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith(".")
            and not d.startswith("build")
        )
        for name in sorted(filenames):
            if name.endswith(".md"):
                found.append(os.path.join(dirpath, name))
    return found


def check_links(root):
    """Return a list of 'file: broken link' problem strings."""
    problems = []
    for md in markdown_files(root):
        with open(md, encoding="utf-8") as f:
            text = f.read()
        base = os.path.dirname(md)
        for target in LINK_RE.findall(text):
            if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            if not os.path.exists(resolved):
                rel = os.path.relpath(md, root)
                problems.append(f"{rel}: broken link -> {target}")
    return problems


def help_flags(help_text):
    """The set of --flags a help screen advertises."""
    return set(FLAG_RE.findall(help_text))


def doc_pages(root):
    """README.md + docs/**.md: the pages flags and test names must be
    right in."""
    candidates = [os.path.join(root, "README.md")]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for dirpath, _, filenames in os.walk(docs_dir):
            for name in sorted(filenames):
                if name.endswith(".md"):
                    candidates.append(os.path.join(dirpath, name))
    return [path for path in candidates if os.path.exists(path)]


def docs_corpus(root):
    """The doc pages concatenated — where flags must be documented."""
    chunks = []
    for path in doc_pages(root):
        with open(path, encoding="utf-8") as f:
            chunks.append(f.read())
    return "\n".join(chunks)


def check_test_names(root):
    """Every backticked test_<name> on a doc page must be a tests/ file."""
    problems = []
    for path in doc_pages(root):
        with open(path, encoding="utf-8") as f:
            names = sorted(set(TEST_NAME_RE.findall(f.read())))
        for name in names:
            if not os.path.exists(os.path.join(root, "tests", name + ".cpp")):
                rel = os.path.relpath(path, root)
                problems.append(f"{rel}: `{name}` names no tests/{name}.cpp")
    return problems


def check_flag_sync(cli_name, help_text, corpus):
    """Every advertised flag must appear in the doc corpus."""
    documented = help_flags(corpus)
    problems = []
    for flag in sorted(help_flags(help_text)):
        if flag not in documented:
            problems.append(
                f"{cli_name}: flag {flag} advertised by --help but "
                f"documented nowhere in README.md or docs/")
    return problems


def run_help(cli_path):
    """Run ``<cli> --help``; return (exit_ok, combined output)."""
    try:
        proc = subprocess.run(
            [cli_path, "--help"], capture_output=True, text=True, timeout=60)
    except OSError as e:
        return False, f"cannot execute {cli_path}: {e}"
    if proc.returncode != 0:
        return False, (f"{cli_path} --help exited {proc.returncode} "
                       f"(must be 0)")
    return True, proc.stdout + proc.stderr


def run_gate(args):
    problems = check_links(args.root) + check_test_names(args.root)
    corpus = docs_corpus(args.root)
    for cli_path in args.cli:
        ok, text = run_help(cli_path)
        if not ok:
            problems.append(text)
            continue
        problems.extend(
            check_flag_sync(os.path.basename(cli_path), text, corpus))
    for p in problems:
        print(f"FAIL {p}")
    if problems:
        print(f"doc_check: {len(problems)} problem(s)")
        return 1
    print("doc_check: all links resolve, all CLI flags documented, "
          "all test names exist")
    return 0


# --- self-test ---------------------------------------------------------------

def self_test():
    """The gate must actually catch what it claims to catch."""
    checks = []

    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "docs"))
        with open(os.path.join(root, "docs", "guide.md"), "w") as f:
            f.write("See the [readme](../README.md#usage) and "
                    "[upstream](https://example.com/x) and `--depth`.\n")
        with open(os.path.join(root, "README.md"), "w") as f:
            f.write("# Demo\n[guide](docs/guide.md) documents --seed "
                    "and --verbose.\n")

        # 1. Resolving relative links (with fragments) and external links
        #    pass.
        checks.append(("clean tree passes", check_links(root) == []))

        # 2. A broken intra-repo link fails.
        with open(os.path.join(root, "README.md"), "a") as f:
            f.write("[gone](docs/missing.md)\n")
        problems = check_links(root)
        checks.append(("broken link caught",
                       len(problems) == 1 and "missing.md" in problems[0]))

        # 3. Flag sync: advertised + documented passes; undocumented fails.
        corpus = docs_corpus(root)
        help_text = "usage: demo [--seed S] [--verbose] [--depth D]\n"
        checks.append(("documented flags pass",
                       check_flag_sync("demo", help_text, corpus) == []))
        drifted = help_text.replace("[--depth D]", "[--quantum Q]")
        missing = check_flag_sync("demo", drifted, corpus)
        checks.append(("undocumented flag caught",
                       len(missing) == 1 and "--quantum" in missing[0]))

        # 4. Test names: an existing tests/ file passes (with or without
        #    .cpp); a missing one fails, on README.md and docs/ alike.
        os.makedirs(os.path.join(root, "tests"))
        with open(os.path.join(root, "tests", "test_real.cpp"), "w") as f:
            f.write("// a test\n")
        with open(os.path.join(root, "docs", "guide.md"), "a") as f:
            f.write("Pinned by `test_real` and `test_real.cpp`.\n")
        checks.append(("existing test names pass",
                       check_test_names(root) == []))
        with open(os.path.join(root, "docs", "guide.md"), "a") as f:
            f.write("Also by `test_gone`.\n")
        dead = check_test_names(root)
        checks.append(("missing test name caught",
                       len(dead) == 1 and "test_gone" in dead[0]))
        with open(os.path.join(root, "tests", "test_gone.cpp"), "w") as f:
            f.write("// restored\n")

        # 5. A help run that exits non-zero is itself a failure (the gate
        #    needs a --help that behaves).
        stub = os.path.join(root, "angry_cli.py")
        with open(stub, "w") as f:
            f.write("#!/usr/bin/env python3\nimport sys\nsys.exit(2)\n")
        os.chmod(stub, 0o755)
        ok, _ = run_help(stub)
        checks.append(("non-zero --help caught", not ok))

        # 6. End-to-end through the real CLI path: exit 1 on the broken
        #    link planted in step 2, exit 0 once it is repaired.
        checks.append(("gate exits non-zero on problems",
                       main(["--root", root]) == 1))
        with open(os.path.join(root, "docs", "missing.md"), "w") as f:
            f.write("restored\n")
        checks.append(("gate exits zero when clean",
                       main(["--root", root]) == 0))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL':>4} self-test: {name}")
    if failed:
        print(f"doc_check --self-test: {len(failed)} self-check(s) failed")
        return 1
    print("doc_check --self-test: all self-checks passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root to scan for markdown")
    parser.add_argument("--cli", action="append", default=[],
                        help="CLI binary whose --help flags must be "
                             "documented (repeatable)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in gate-behavior checks")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
