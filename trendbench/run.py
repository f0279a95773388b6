#!/usr/bin/env python3
"""Run one trendbench workload against the program in this checkout.

    python3 trendbench/run.py --workload agg_hot --seed 1 --seconds 8 --trace 0

Run from the checkout root. The first run builds the program (the root sbt
build) and the benchmark (trendbench/build.sbt) with sbt; later runs reuse
the build until a source file changes. The last line of standard output is
the JSON result; build output and Spark's log go to standard error.
Everything the run writes stays under trendbench/work/.

A run is one JVM. --seconds is the timed region of agg_hot and
batch_sliding; stream_update times its whole stream.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "work")
CLASSPATH = os.path.join(BENCH, "target", "trendbench.classpath")
STAMP = os.path.join(WORK, "build.stamp")
WORKLOADS = ("agg_hot", "batch_sliding", "stream_update")
# Everything the build reads: a change to any of these triggers a rebuild.
SOURCES = ("build.sbt", "project", "src/main", "jobs",
           "trendbench/build.sbt", "trendbench/project", "trendbench/src/main")
HEAP = "2g"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840
# Spark on JDK 17 reaches into these JDK internals (as spark-submit allows).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"trendbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for rel in SOURCES:
        top = os.path.join(ROOT, rel)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(top)
            if os.sep + "target" not in d[len(ROOT):] for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build():
    """Build with sbt unless the last build saw the same sources."""
    digest = source_digest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
           "writeClasspath"]
    try:
        r = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed with exit code {r.returncode}")
    with open(STAMP, "w") as f:
        f.write(digest + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    declared = os.path.join(ROOT, "BENCHMARK.json")
    for need in (declared, os.path.join(ROOT, "build.sbt"),
                 os.path.join(ROOT, "src", "main", "scala", "repro", "core", "Cogra.scala")):
        if not os.path.exists(need):
            fail(f"{os.path.relpath(need, ROOT)} is missing: run from a full checkout")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    build()
    with open(CLASSPATH) as f:
        classpath = f.read().strip()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+IgnoreUnrecognizedVMOptions", *JVM_OPENS,
           f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}", "-cp", classpath,
           "repro.trendbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace, "--declared", declared, "--work", WORK]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"run failed with exit code {proc.returncode}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
