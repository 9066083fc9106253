#!/usr/bin/env python3
"""Check BENCHMARK.json against its contract and against what the benchmark emits.

Run from the repository root:  python3 benchmark/check_manifest.py

It checks the manifest's own shape (keys, counts, name and unit alphabets, bounds,
`setup_s`, `paths`), then asks the program for its tables (`--list`) and makes one
short gated and one short traced run, and fails unless every workload and metric
the manifest names is emitted, and the other way round. Standard library only.
"""

import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}

problems = []


def check(ok, what):
    if not ok:
        problems.append(what)


def names_of(entries, what, keys):
    for e in entries:
        check(set(e) == keys, f"{what} entry {e.get('name')!r} has keys {sorted(e)}, expected {sorted(keys)}")
        check(bool(NAME.match(str(e.get("name", "")))), f"{what} name {e.get('name')!r} is not a valid name")
    return [e.get("name") for e in entries]


def shape(m):
    check(set(m) == KEYS, f"top-level keys are {sorted(m)}, expected {sorted(KEYS)}")
    check(len(json.dumps(m)) <= 64 * 1024, "manifest is larger than 64 KiB")

    cmd = m.get("command", [])
    check(isinstance(cmd, list) and 1 <= len(cmd) <= 32, "command must be a list of 1 to 32 strings")
    for a in cmd:
        check(isinstance(a, str) and len(a) <= 200, f"command argument {a!r} is not a string of at most 200 characters")
        check(not str(a).startswith("/") and ".." not in str(a).split("/"), f"command argument {a!r} leaves the repository")

    paths = m.get("paths", [])
    check(1 <= len(paths) <= 16, "paths must list 1 to 16 directories")
    for p in paths:
        check(bool(PATH.match(p)) and not p.startswith("/") and ".." not in p.split("/"), f"path {p!r} is not a plain relative path")
        check(os.path.isdir(p), f"path {p!r} does not exist")
    for a in cmd[1:]:
        if "/" in a and os.path.exists(a):
            check(any(a == p or a.startswith(p.rstrip("/") + "/") for p in paths), f"command names {a!r}, which is outside paths")

    secs = m.get("run_seconds")
    check(isinstance(secs, int) and 1 <= secs <= 60, "run_seconds must be a whole number from 1 to 60")

    workloads = m.get("workloads", [])
    check(2 <= len(workloads) <= 8, "there must be 2 to 8 workloads")
    names = names_of(workloads, "workload", {"name", "why"})
    for w in workloads:
        why = w.get("why", "")
        check(0 < len(why) <= 200 and "\n" not in why, f"workload {w.get('name')!r}: why must be one line of at most 200 characters")

    e2e = m.get("end_to_end", [])
    check(1 <= len(e2e) <= 16, "there must be 1 to 16 end-to-end metrics")
    names += names_of(e2e, "end_to_end", {"name", "unit", "better", "bound"})
    for e in e2e:
        b = e.get("bound")
        check(isinstance(b, (int, float)) and 0 < b <= 0.25, f"{e.get('name')}: bound must be in (0, 0.25]")
    setup = [e for e in e2e if e.get("name") == "setup_s"]
    check(len(setup) == 1 and setup[0].get("unit") == "s" and setup[0].get("better") == "lower", "end_to_end must hold setup_s with unit s, better lower")

    layer = m.get("per_layer", [])
    check(1 <= len(layer) <= 128, "there must be 1 to 128 per-layer metrics")
    names += names_of(layer, "per_layer", {"name", "unit", "better"})
    for e in e2e + layer:
        check(bool(UNIT.match(str(e.get("unit", "")))), f"{e.get('name')}: unit {e.get('unit')!r} is not a valid unit")
        check(e.get("better") in ("higher", "lower"), f"{e.get('name')}: better must be higher or lower")
    check(len(names) == len(set(names)), "a name is used more than once")


def run(cmd, *args):
    p = subprocess.run(cmd + list(args), capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        # A run whose own checks fail still prints its result; names are all
        # this script compares.
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append(f"{' '.join(args)} exited with {p.returncode} and no result: {p.stderr.strip()[-300:]}")
        return None


def against_program(m):
    cmd = m["command"]
    listed = run(cmd, "--list")
    if listed is None:
        return
    for key in ("workloads", "end_to_end", "per_layer"):
        want = {e["name"]: e for e in m[key]}
        have = {e["name"]: e for e in listed[key]}
        for n in want.keys() - have.keys():
            problems.append(f"{key}: {n} is in the manifest but the program does not list it")
        for n in have.keys() - want.keys():
            problems.append(f"{key}: the program lists {n} but the manifest does not")
        for n in want.keys() & have.keys():
            check(want[n] == have[n], f"{key}: {n} differs: manifest {want[n]}, program {have[n]}")

    workload = m["workloads"][0]["name"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = run(cmd, "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", trace)
        if result is None:
            continue
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"--trace {trace}: result keys are {sorted(result)}")
        want = {e["name"]: e["unit"] for e in m[key]}
        have = {n: v.get("unit") for n, v in result.get("metrics", {}).items()}
        check(want == have, f"--trace {trace} on {workload}: emitted metrics differ from {key}: "
              f"missing {sorted(want.keys() - have.keys())}, extra {sorted(have.keys() - want.keys())}")


def main():
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    with open("BENCHMARK.json") as f:
        m = json.load(f)
    shape(m)
    if not problems:
        against_program(m)
    for p in problems:
        print("check_manifest:", p)
    print("check_manifest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
