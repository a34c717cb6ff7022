"""Check the benchmark against its output contract by running it.

    python3 perfbench/selfcheck.py [--seconds 15] [--seed 1]

Run from the repository root. It validates BENCHMARK.json, runs every
workload with ``--trace 0`` and ``--trace 1`` through the real command,
parses each run's stdout, and checks that the last line is the result
object BENCHMARK.json promises (exact keys, every metric with its unit
and a finite value, all output checks passing). It then runs the
command in a directory holding only BENCHMARK.json and the benchmark's
files, where it must fail without printing a result. Finally it prints
the nine named end-to-end metrics of the three workloads as one table.
Exits 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec: dict) -> list[str]:
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errs.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    cmd = spec.get("command", [])
    if not (1 <= len(cmd) <= 32) or any(len(c) > 200 or c.startswith("/")
                                        or ".." in c for c in cmd):
        errs.append(f"bad command {cmd}")
    paths = spec.get("paths", [])
    if not (1 <= len(paths) <= 16) or not all(PATH.match(p) and ".." not in p
                                              for p in paths):
        errs.append(f"bad paths {paths}")
    rs = spec.get("run_seconds")
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        errs.append(f"bad run_seconds {rs}")
    names = []
    wls = spec.get("workloads", [])
    if not 2 <= len(wls) <= 8:
        errs.append("need 2 to 8 workloads")
    for w in wls:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errs.append(f"bad workload {w}")
        names.append(w["name"])
    for group, keys, lo, hi in (("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
                                ("per_layer", {"name", "unit", "better"}, 1, 128)):
        ms = spec.get(group, [])
        if not lo <= len(ms) <= hi:
            errs.append(f"{group}: {len(ms)} metrics")
        for m in ms:
            if set(m) != keys or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("lower", "higher"):
                errs.append(f"bad metric {m}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                errs.append(f"bound out of range: {m}")
            names.append(m["name"])
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(names) != len(set(names)):
        errs.append(f"bad or repeated names: {bad or names}")
    setup = [m for m in spec.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("end_to_end needs setup_s (s, lower)")
    if len(json.dumps(spec)) > 64 * 1024:
        errs.append("BENCHMARK.json over 64 KiB")
    return errs


def check_result(stdout: str, metric_spec: list[dict]) -> tuple[dict, list[str]]:
    lines = stdout.strip().splitlines()
    if not lines:
        return {}, ["empty stdout"]
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return {}, [f"last line is not JSON: {e}: {lines[-1][:200]!r}"]
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(res)}")
        return res, errs
    if res["correct"] is not True:
        errs.append("correct is not true")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool):
            errs.append(f"{k} is not a whole number")
    if isinstance(res["attempted"], int) and res["attempted"] < 1:
        errs.append("attempted < 1")
    want = {m["name"]: m["unit"] for m in metric_spec}
    got = res["metrics"]
    if set(got) != set(want):
        errs.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}")
    for name, v in got.items():
        if set(v) != {"value", "unit"} or v.get("unit") != want.get(name):
            errs.append(f"metric {name}: {v}")
        x = v.get("value")
        if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
            errs.append(f"metric {name} value {x!r}")
    return res, errs


def named_metrics(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("named "):
            return json.loads(line[len("named "):])
    return {}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = [f"spec: {e}" for e in check_spec(spec)]
    seconds = args.seconds or spec["run_seconds"]

    table = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", str(args.seed),
                                     "--seconds", str(seconds), "--trace", str(trace)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=900)
            res, errs = check_result(p.stdout, spec[group])
            if p.returncode != 0:
                errs.append(f"exit code {p.returncode}: {p.stderr[-500:]}")
            problems += [f"{w['name']} trace={trace}: {e}" for e in errs]
            print(f"{w['name']:<8} trace={trace} exit={p.returncode} "
                  f"{'ok' if not errs else 'FAILED'}", flush=True)
            if trace == 0 and res.get("attempted"):
                for name, (value, unit) in named_metrics(p.stdout).items():
                    table.append((w["name"], name, value, unit))
                table.append((w["name"], "attempted/failed",
                              f"{res['attempted']}/{res['failed']}", "operations"))

    # without the engine source the command must fail and print no result
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    w0 = spec["workloads"][0]["name"]
    p = subprocess.run(spec["command"] + ["--workload", w0, "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    if p.returncode == 0 or p.stdout.strip().startswith("{") \
            or p.stdout.strip().endswith("}"):
        problems.append("bare directory: the command did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"bare dir exit={p.returncode}", flush=True)

    print(f"\n{'workload':<8} {'metric':<24} {'value':>16}  unit")
    for wl, name, value, unit in table:
        v = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        print(f"{wl:<8} {name:<24} {v:>16}  {unit}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
