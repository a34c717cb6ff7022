"""beamium_ray benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload ingest|watch|clean --seed N \\
        --seconds S --trace 0|1

Run from the repository root. ``--trace 0`` times the workload's
operation through the engine's public entry points on a Ray session
with ``num_cpus`` = the cores this process may use, checks every
output, and prints the end-to-end metrics. ``--trace 1`` also replays
each operation layer by layer in this process and prints the
per-layer table instead. Both end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``; everything before
it on stdout is the human-readable report. Metric names and units are
those of BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import time

T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_OPS = 3
SETUP_PROBES = 2  # + the run's own set-up = 3 set-up samples
DEADLINE_S = 140  # stop measuring by this process age, whatever --seconds says


def process_age_s() -> float:
    """Seconds since this process started (from /proc, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    """What coreutils ``nproc`` prints: the CPUs this process may run
    on, capped by OMP_NUM_THREADS / OMP_THREAD_LIMIT when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        try:
            n = min(n, max(1, int(os.environ.get(var, "").split(",")[0])))
        except ValueError:
            pass
    return n


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def host_probe() -> dict:
    """Fixed single-thread CPU and memory-bandwidth probe (as in
    bench.py, smaller): shared VMs throttle 10-20x at random, and a run
    taken in a throttle window shows here."""
    import numpy as np

    a = np.random.default_rng(0).random((400, 400))
    t0 = time.perf_counter()
    for _ in range(3):
        a = a @ a
        a /= np.max(a)
    alu_ms = (time.perf_counter() - t0) * 1000
    x = np.arange(8_000_000, dtype=np.int64)
    t0 = time.perf_counter()
    np.cumsum(x)
    membw = x.nbytes * 2 / (time.perf_counter() - t0) / 1e9
    return {"alu_ms": alu_ms, "membw_gbps": membw}


def start_ray(num_cpus: int) -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        # worker stdout/stderr stay in the session logs, so stdout
        # carries only this benchmark's report
        log_to_driver=False,
        logging_level="ERROR",
        object_store_memory=512 * 1024**2,
        _temp_dir=os.path.join(ROOT, ".bench_ray"),
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


def ray_cpus() -> float:
    import ray

    return ray.cluster_resources().get("CPU", 0.0)


def session_peak_rss_mb() -> float:
    """Sum of VmHWM over this process and the session's Ray workers
    (the raylet's children titled ``ray::…``)."""
    import ray

    node = ray._private.worker._global_node
    raylets = [p.process.pid for p in node.all_processes.get("raylet", [])]
    pids = [os.getpid()]
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            if ppid not in raylets:
                continue
            with open(f"/proc/{d}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    pids.append(int(d))
        except (OSError, ValueError):
            continue  # exited meanwhile
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def run_setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh process: interpreter start to Ray up and
    the warm-up operation done."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
        if p.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return elapsed


def median(xs):
    return float(statistics.median(xs))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(metrics: dict, spec_list: list[dict]) -> None:
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode, with their units and finite values."""
    want = {m["name"]: m["unit"] for m in spec_list}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        raise RuntimeError(f"metrics {sorted(got.items())} do not match "
                           f"BENCHMARK.json {sorted(want.items())}")
    for k, v in metrics.items():
        x = v["value"]
        if not isinstance(x, (int, float)) or x != x or x in (float("inf"), float("-inf")):
            raise RuntimeError(f"metric {k} has no finite value: {x!r}")


def measure(wl, args, trace: bool):
    """Operations until --seconds have passed and at least MIN_OPS were
    timed. The first operation runs the session's first shuffle, commit
    and so on; it is checked like the others but not timed. Returns
    (timed ops, attempted, failed, errors, tracer)."""
    from spans import NullTracer, Tracer

    tr, null = (Tracer(), NullTracer()) if trace else (None, None)
    ops, errors = [], []
    attempted = failed = streak = 0
    t0 = time.perf_counter()
    i = 0
    while wl.can_run(i):
        try:
            if trace:
                tr.op = i
                try:
                    res = wl.trace_cycle(i, tr, null)
                finally:
                    counts = tr.take_counts()
                res.update(counts=counts, op_id=i)
            else:
                res = wl.op(i)
            streak = 0
        except Exception:  # noqa: BLE001 — a failed operation is a result
            log(traceback.format_exc())
            res = {"attempted": 1, "failed": 1, "errors": ["operation raised"]}
            streak += 1
        attempted += res["attempted"]
        failed += res["failed"]
        errors += [f"op {i}: {e}" for e in res["errors"]]
        if "op_s" in res and i > 0:
            ops.append(res)
        i += 1
        done = time.perf_counter() - t0 >= args.seconds and len(ops) >= MIN_OPS
        if done or streak >= 3 or process_age_s() > DEADLINE_S:
            break
    return ops, attempted, failed, errors, tr


def layer_metrics(wl, ops: list[dict], tr) -> tuple[dict, list[str]]:
    """Per-layer values of each traced cycle, then their medians.
    Returns (result metrics, report lines)."""
    from spans import COUNTS, LAYERS, MINHASH_PHASES

    per_cycle = []
    for res in ops:
        selfs = tr.self_times(res["op_id"])
        wall_on, wall_off = res["walls"]["on"], res["walls"]["off"]
        c = res["counts"]
        layer_sum = sum(selfs.get(span, 0.0) for span in LAYERS)
        row = {
            "executor.overhead_s": res["op_s"] - layer_sum,
            "tracing.overhead_frac": (wall_on - wall_off) / wall_off,
            "replay_wall_s": wall_on,
            "op_s": res["op_s"],
        }
        for span, stem in LAYERS.items():
            row[f"{stem}_s"] = selfs.get(span, 0.0)
            row[f"{stem}_share"] = selfs.get(span, 0.0) / wall_on
        for ph in MINHASH_PHASES:
            secs = c.get(f"datapipe.dedup.minhash.{ph}_s", 0.0)
            row[f"datapipe.dedup.minhash.{ph}_s"] = secs
            row[f"datapipe.dedup.minhash.{ph}_share"] = secs / wall_on
        for k in COUNTS:
            row[k] = c.get(k, 0)
        points = c.get("stages.parse.points_out", 0)
        row["stages.rollup.combine_ratio"] = (
            c.get("stages.rollup.partial_rows", 0) / points if points else 0.0)
        pairs = c.get("datapipe.dedup.minhash.candidate_pairs", 0)
        row["datapipe.dedup.minhash.verified_frac"] = (
            c.get("datapipe.dedup.minhash.verified_edges", 0) / pairs if pairs else 0.0)
        row.update(res["extra"])
        per_cycle.append(row)
    med = {k: median([r[k] for r in per_cycle]) for k in per_cycle[0]}

    lines = [f"per-layer table ({wl.name}, traced replay, median of "
             f"{len(per_cycle)} cycles)",
             f"  {'layer metric':<48} {'value':>14}  unit"]

    def add(name, unit):
        lines.append(f"  {name:<48} {med[name]:>14.6g}  {unit}")

    for span, stem in LAYERS.items():
        add(f"{stem}_s", "s")
    for ph in MINHASH_PHASES:
        add(f"datapipe.dedup.minhash.{ph}_s", "s")
    add("executor.overhead_s", "s (timed op wall minus summed layer self times)")
    add("op_s", "s (timed op wall, spans off)")
    add("replay_wall_s", "s (replay wall, spans on)")
    add("tracing.overhead_frac", "ratio (replay wall spans on vs off - 1)")
    return med, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["ingest", "watch", "clean"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run still shuts its Ray session down (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(ROOT, "beamium_ray", "__init__.py")):
        log(f"no engine source at {ROOT}/beamium_ray: run from a full checkout")
        return 2

    # Ray workers import the engine from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, ROOT)
    interp_s = process_age_s() - (time.perf_counter() - T_SCRIPT)

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import pyarrow  # noqa: F401

    import beamium_ray  # noqa: F401
    import workloads

    import_s = time.perf_counter() - t0
    num_cpus = nproc()
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, num_cpus)

    if args.setup_probe:
        start_ray(num_cpus)
        try:
            wl.warm_up()
            print("ready", flush=True)
        finally:
            import ray

            ray.shutdown()
        return 0

    spec = load_spec()
    # session dirs of earlier runs (runs in one checkout never overlap)
    shutil.rmtree(os.path.join(ROOT, ".bench_ray"), ignore_errors=True)
    t0 = time.perf_counter()
    inputs_info = wl.prepare()
    gen_s = time.perf_counter() - t0
    # input generation must not count in peak_rss_mb: reset VmHWM
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    probe_before = host_probe()

    setups = []
    if not args.trace:
        setups = [run_setup_probe(args.workload, args.seed)
                  for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    import ray

    start_ray(num_cpus)
    try:
        wl.warm_up()
        setups.append(interp_s + import_s + time.perf_counter() - t0)
        meta = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": num_cpus, "affinity_cpus": len(os.sched_getaffinity(0)),
            "ray_num_cpus": ray_cpus(),
            "ray_version": ray.__version__,
            "pyarrow_version": pyarrow.__version__,
            "inputs": inputs_info, "input_generation_s": gen_s,
            "host_probe_before": probe_before,
        }
        wl.begin()
        ops, attempted, failed, errors, tr = measure(wl, args, bool(args.trace))
        if ops:
            try:
                final_errors = wl.finish()
            except Exception:  # noqa: BLE001
                log(traceback.format_exc())
                final_errors = ["final check raised"]
            if final_errors:
                errors += final_errors
                failed = min(attempted, failed + 1)
        rss_mb = session_peak_rss_mb()
    finally:
        ray.shutdown()
    meta["host_probe_after"] = host_probe()

    if not ops:
        log(f"no operation completed: {errors}")
        return 1

    out = []
    out.append(f"beamium_ray benchmark: workload={args.workload} seed={args.seed} "
               f"trace={args.trace}")
    out.append("meta " + json.dumps(meta, sort_keys=True))
    for e in errors:
        out.append(f"CHECK FAILED: {e}")
    if args.trace:
        med, lines = layer_metrics(wl, ops, tr)
        out += lines
        tr.dump(os.path.join(ROOT, ".bench_work",
                             f"spans-{args.workload}-{args.seed}.jsonl"))
        spec_list = spec["per_layer"]
        metrics = {m["name"]: {"value": med[m["name"]], "unit": m["unit"]}
                   for m in spec_list}
    else:
        values = {
            "setup_s": median(setups),
            "op_s_p50": median([o["op_s"] for o in ops]),
            "read_s_p50": median([o["read_s"] for o in ops]),
            # the first operation's: a pure function of the seed
            "stored_bytes_per_item": ops[0]["bytes_per_item"],
            "peak_rss_mb": rss_mb,
        }
        spec_list = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec_list}
        named = [("setup_s", values["setup_s"],
                  f"s (median of {len(setups)}: "
                  + ", ".join(f"{s:.3f}" for s in setups) + ")")]
        named += wl.named_metrics(ops)
        named += [("peak_rss_mb", rss_mb, "MB"),
                  ("failed_frac", failed / attempted,
                   f"ratio ({failed} of {attempted} operations)")]
        out.append(f"end-to-end ({args.workload}, {len(ops)} timed operations)")
        out.append("  op_s   " + " ".join(f"{o['op_s']:.3f}" for o in ops))
        out.append("  read_s " + " ".join(f"{o['read_s']:.3f}" for o in ops))
        for name, v, unit in named:
            out.append(f"  {name:<24} {v:>14.6g}  {unit}")
        out.append("named " + json.dumps(
            {n: [v if v == v else None, u] for n, v, u in named}))
    check_result(metrics, spec_list)
    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print("\n".join(out), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
