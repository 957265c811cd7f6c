#!/usr/bin/env python3
"""Build and run the sopbench wall-clock benchmark.

    python3 sopbench/run.py --workload steady-ckpt --seed 1 --seconds 10 --trace 0

Builds the benchmark (a Go module of its own next to this file, using the
repository's internal packages through a relative replace) into
.bench_build/ at the repository root, with the Go build cache and
temporary files kept there too (the go command's telemetry counters as
well, through XDG_CONFIG_HOME), then runs it with the given arguments.
A traced run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-seed<seed>.jsonl. The last line of standard
output is the benchmark's JSON result; the exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
RUN_LIMIT = 175  # seconds; a run must finish well within three minutes


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOTMPDIR=os.path.join(OUT, "tmp"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
    )
    return env


def arg(argv, name, default):
    for i, a in enumerate(argv):
        if a == name and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


def main(argv):
    env = go_env()
    for d in ("gocache", "tmp", "gopath"):
        os.makedirs(os.path.join(OUT, d), exist_ok=True)
    binary = os.path.join(OUT, "sopbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("sopbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = list(argv)
    if arg(argv, "--trace", "0") == "1":
        spans = os.path.join(OUT, "spans", "%s-seed%s.jsonl" % (
            arg(argv, "--workload", "none"), arg(argv, "--seed", "0")))
        args += ["--spans", spans]
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_LIMIT)
    except subprocess.TimeoutExpired:
        print("sopbench: run exceeded %d s" % RUN_LIMIT, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
