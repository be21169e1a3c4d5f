#!/usr/bin/env python3
"""Check that every listed mutant of the verdict path fails its named test.

    python3 tools/run_mutants.py [--list tests/mutants.json] [--work DIR] [--jobs N]

Each entry of the list names a source file, a 1-based line, the exact text
that line must hold ("was"), its replacement ("now"), a test binary and one
GoogleTest case in it. The script copies the checkout's tracked and
untracked-but-not-ignored files to a scratch directory (a fresh temporary
one unless --work names an empty or missing one), configures one build
there, and for each entry: checks the line, applies the replacement,
rebuilds the test binary, runs the named case and restores the line. It
exits 0 only if every named case passes on the unmutated copy and fails on
every mutant; a line that no longer holds "was" is an error too, so the
list follows the code.

Each mutant needs a rebuild, so this runs as its own CI job, not as a
ctest entry.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TEST_TIMEOUT_S = 600


def run(cmd, cwd=None, timeout=None):
    """Runs cmd with its output captured; returns (exit code, output)."""
    try:
        done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % timeout
    return done.returncode, done.stdout


def copy_checkout(work):
    """Copies the files git knows of (and untracked ones it does not ignore)."""
    code, out = run(["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
                    cwd=ROOT)
    if code != 0:
        sys.exit("run_mutants: git ls-files failed:\n" + out)
    for rel in filter(None, out.split("\0")):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        dst = os.path.join(work, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)


def build(build_dir, target, jobs):
    code, out = run(["cmake", "--build", build_dir, "--target", target, "-j", str(jobs)])
    if code != 0:
        sys.exit("run_mutants: building %s failed:\n%s" % (target, out[-4000:]))


def case_passes(build_dir, entry):
    binary = os.path.join(build_dir, "tests", entry["test"])
    code, out = run([binary, "--gtest_filter=" + entry["case"]], timeout=TEST_TIMEOUT_S)
    if code == 0 and "[  PASSED  ] 0 tests." in out:
        sys.exit("run_mutants: %s has no case %s" % (entry["test"], entry["case"]))
    return code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", default=os.path.join(ROOT, "tests", "mutants.json"))
    parser.add_argument("--work", default=None)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    with open(args.list) as f:
        entries = json.load(f)
    work = args.work or tempfile.mkdtemp(prefix="upn-mutants-")
    if os.path.exists(work) and os.listdir(work):
        sys.exit("run_mutants: --work %s is not empty" % work)
    os.makedirs(work, exist_ok=True)
    copy_checkout(work)
    build_dir = os.path.join(work, "build")
    code, out = run(["cmake", "-S", work, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    if code != 0:
        sys.exit("run_mutants: configure failed:\n" + out)

    for target in sorted({e["test"] for e in entries}):
        build(build_dir, target, args.jobs)
    for entry in entries:
        if not case_passes(build_dir, entry):
            sys.exit("run_mutants: %s %s fails without a mutant" % (entry["test"], entry["case"]))

    survived = 0
    for entry in entries:
        path = os.path.join(work, entry["file"])
        with open(path) as f:
            lines = f.read().split("\n")
        index = entry["line"] - 1
        where = "%s:%d" % (entry["file"], entry["line"])
        if index >= len(lines) or lines[index] != entry["was"]:
            sys.exit("run_mutants: %s does not hold %r" % (where, entry["was"]))
        original = "\n".join(lines)
        lines[index] = entry["now"]
        with open(path, "w") as f:
            f.write("\n".join(lines))
        try:
            build(build_dir, entry["test"], args.jobs)
            killed = not case_passes(build_dir, entry)
        finally:
            with open(path, "w") as f:
                f.write(original)
        print("%s %s -> %r: %s" % ("killed  " if killed else "SURVIVED", where, entry["now"].strip(),
                                   entry["case"]), flush=True)
        survived += 0 if killed else 1

    print("%d of %d mutants killed" % (len(entries) - survived, len(entries)))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
