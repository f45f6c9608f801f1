#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload eql-kg --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. The first run builds the
benchmark (an sbt build in this directory that compiles the program's
sources with the benchmark's) into the build directory, named by
CARGO_TARGET_DIR or else `.bench_build`; later runs reuse that build
until a source file changes. The workload then runs in a fresh JVM (for
ctp-synthetic, in three JVMs one after another, see FORKS). Each JVM
prints what it measured (the operation times, set-up time, heap peak and,
traced, the per-layer metrics); this script pools the JVMs and computes
the end-to-end metrics from that.

A run must end within TIMEOUT_BASE_S + TIMEOUT_PER_S * --seconds (170 s at
--seconds 10), else it is stopped and reported as failed: set-up and the
references take up to about 30 s, and the timed phase can run past
--seconds by part of a round.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

T0_NS = time.time_ns()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ["eql-kg", "eql-cdf", "ctp-synthetic", "ctp-kg-limit"]
TIMEOUT_BASE_S = 130
TIMEOUT_PER_S = 4
HEAP = "3g"
# Workloads measured in several JVMs one after another, their operations
# pooled: each JVM of ctp-synthetic runs all its searches in a fast or a
# slow mode (about 25% apart), so over six one-JVM runs ops_per_s spread
# by 0.35, against 0.18 with three JVMs per run.
FORKS = {"ctp-synthetic": 3}

# Spark on JDK 17 needs these packages opened to its serializers.
JDK17_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def fingerprint():
    """Hash of every file the build reads from the repository."""
    h = hashlib.sha256()
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src", "main"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        paths = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.isfile(repos) and "sbt.repository.config" not in opts:
            opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    env["SBT_OPTS"] = opts.strip()
    return env


def classpath(out):
    """Builds when the sources changed since the last build; returns the classpath."""
    stamp_file = os.path.join(out, "stamp")
    cp_file = os.path.join(out, "classpath")
    stamp = fingerprint()
    if os.path.isfile(stamp_file) and os.path.isfile(cp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as g:
                    return g.read().strip(), False
    os.makedirs(out, exist_ok=True)
    res = subprocess.run(
        ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
         "export Runtime/fullClasspath"],
        cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=840)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines or "perfbench" not in lines[-1]:
        sys.stderr.write(res.stdout[-4000:])
        fail("build failed")
    with open(cp_file, "w") as f:
        f.write(lines[-1].strip())
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return lines[-1].strip(), True


def p50(xs):
    """The 50th percentile by nearest rank: the smallest value with at least
    half of `xs` at or below it (for an even count, the lower of the two
    middle values). It is always a measured value, and in a mix of
    operation classes it stays inside one class instead of averaging
    across the gap between two."""
    return sorted(xs)[(len(xs) + 1) // 2 - 1]


def pool(runs, traced):
    """The result line from the JVMs' own lines: set-up time is the first
    JVM's (later JVMs' set-up is not reported), operation times are pooled."""
    op_ms = [x for r in runs for x in r["op_ms"]]
    if traced:
        metrics = runs[0]["layers"]
        print(f"perfbench: traced op_ms_p50 {p50(op_ms):.3f} ms", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": runs[0]["setup_s"], "unit": "s"},
            "op_ms_p50": {"value": p50(op_ms), "unit": "ms"},
            "ops_per_s": {"value": len(op_ms) / (sum(op_ms) / 1000), "unit": "1/s"},
            "heap_peak_mb": {"value": max(r["heap_peak_mb"] for r in runs), "unit": "MB"},
        }
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"no program sources at {os.path.relpath(PROGRAM_SOURCES)}; run from a full checkout")
    out = os.path.join(build_dir(), "perfbench")
    cp, built = classpath(out)
    t0 = time.time_ns() if built else T0_NS
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    timeout_s = TIMEOUT_BASE_S + TIMEOUT_PER_S * args.seconds
    deadline = time.time() + timeout_s

    def jvm(seconds, t0_ns):
        cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC",
                "-Dfile.encoding=UTF-8", "-Dstdout.encoding=UTF-8", "-Dstderr.encoding=UTF-8",
                f"-Djava.io.tmpdir={tmp}", "-Djdk.reflect.useDirectMethodHandle=false"]
               + [f"--add-opens={p}=ALL-UNNAMED" for p in JDK17_OPENS]
               + ["-cp", cp, "perfbench.Main",
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(seconds), "--trace", args.trace,
                  "--t0-ns", str(t0_ns), "--local-dir", os.path.join(out, "spark-local")])
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1, deadline - time.time()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run did not finish within {timeout_s:.0f} s")
        lines = [l for l in stdout.splitlines() if l.strip()]
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            sys.stderr.write(stdout[-4000:])
            fail(f"run failed (exit code {proc.returncode})")
        return json.loads(lines[-1])

    forks = FORKS.get(args.workload, 1) if args.trace == "0" else 1
    runs = [jvm(args.seconds / forks, t0 if i == 0 else time.time_ns()) for i in range(forks)]
    print(json.dumps(pool(runs, args.trace == "1")))


if __name__ == "__main__":
    main()
