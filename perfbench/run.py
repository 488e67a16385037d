#!/usr/bin/env python3
"""Build and run the campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare BASE.out NEW.out

The first form builds perfbench/ (a Go module of its own that imports the
repository's packages through a replace directive) into .bench_build/ and
runs one workload; the last line of its output is the result JSON. Every
build file, cache and scratch file stays under .bench_build/ in the
checkout. The second form compares two saved outputs of the first form
against the bounds in BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "internal", "core")
    ):
        fail("no repository source next to perfbench/ (go.mod and internal/ are missing)")
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("GOTMPDIR", "tmp"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "home/.config"),
    ):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off")
    binary = os.path.join(BUILD, "perfbench")
    done = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env, stdout=sys.stderr
    )
    if done.returncode != 0:
        fail("go build failed")
    return binary


def load(path):
    """Return (host fingerprint, result) from a saved benchmark output."""
    host, res = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("host "):
                host = json.loads(line[5:])
            elif line.startswith("{"):
                res = json.loads(line)
    if res is None:
        fail(path + " holds no result line")
    return host, res


def compare(base_path, new_path):
    """Print each metric's change; pass/fail only when the hosts match."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base_host, base = load(base_path)
    new_host, new = load(new_path)
    advisory = base_host != new_host
    if advisory:
        print("host fingerprints differ; the comparison is advisory")
        print("  base:", json.dumps(base_host))
        print("  new: ", json.dumps(new_host))
    regressed = not new["correct"]
    for name, m in sorted(new["metrics"].items()):
        old = base["metrics"].get(name)
        if old is None or old["value"] == 0:
            continue
        change = m["value"] / old["value"] - 1
        verdict = ""
        b = bounds.get(name)
        if b:
            worse = change if b["better"] == "lower" else -change
            verdict = "ok" if worse <= b["bound"] else "WORSE"
            regressed = regressed or verdict == "WORSE"
        print(f"{name:34} {old['value']:14.6g} {m['value']:14.6g} {m['unit']:12} {change:+8.2%} {verdict}")
    print("correct:", new["correct"], "failed:", new["failed"], "of", new["attempted"])
    if regressed and not advisory:
        sys.exit(1)


def main():
    args = sys.argv[1:]
    if args[:1] == ["compare"]:
        if len(args) != 3:
            fail("usage: run.py compare BASE.out NEW.out")
        compare(args[1], args[2])
        return
    binary = build()
    sys.exit(subprocess.run([binary] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
