#!/usr/bin/env python3
"""Build and run the CXL0 checker benchmark, one workload per call.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring_explore --seed 1 \\
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (the library sources
of the checkout plus the benchmark) in Release mode under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only rebuild what changed. Build output goes to
standard error. Standard output is the benchmark's own, whose last
line is the JSON result. The exit status is the benchmark's: nonzero
when an output was wrong, when the build failed, or when the checkout
has no sources to build.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ring_explore", "scenario_stream")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quietly(cmd):
    """Run a build step with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not (ROOT / "src" / "check" / "explorer.hh").is_file():
        fail(f"no CXL0 sources under {ROOT / 'src'}; run from a checkout")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quietly(cmd) != 0:
            fail("cmake configure failed")
    if run_quietly(["cmake", "--build", str(bdir), "-j", BUILD_JOBS]) != 0:
        fail("build failed")
    return bdir / "cxl0_perfbench"


def source_digest():
    """A digest of the sources the benchmark compiles."""
    digest = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR)
                   for p in d.rglob("*") if p.suffix in (".cc", ".hh"))
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def git(*args):
    out = subprocess.run(["git", "-C", str(ROOT), *args],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """The commit when the checkout is a clean git work tree; the
    commit plus the source digest when src/ or perfbench/ has changes
    git does not hold; the digest alone outside a work tree."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src", "perfbench")
        if head is not None and dirty == "":
            return head
        if head is not None:
            return head + "+" + source_digest()
    return source_digest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--corpus", str(ROOT / "corpus"),
           "--commit", source_id()]
    if args.trace == "1":
        cmd += ["--trace-out", str(build_dir() /
                f"trace-{args.workload}-seed{args.seed}.json")]

    # Its own session, so a time-out can stop the benchmark together
    # with any child it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
