"""Watch-mode entry point: the reference's steady-state daemon loop
(`scan-period` directory re-scan + seen-file set) as a batch engine.

    python -m beamium_ray.run_watch --input /spool --output /out \
        [--config conf.yaml] [--scan-period 10] [--max-ticks N] \
        [--idle-exit K] [--num-cpus N]

Each tick folds newly arrived ``*.metrics`` files into the existing
rollup blocks via one incremental append (completed windows are never
re-rolled); the seen-file set persists in ``_run/watch.json`` so a
restart resumes where it left off. Prints one JSON line per tick that
applied data, and a final summary line.

``--relay-url`` switches to RELAY mode — the reference daemon's actual
steady-state job (scrape spool → HTTP sender, ``src/lib/asynch/
http.rs:49-243``): each tick POSTs the spool's files to the sink with
backoff and deletes them after their 2xx ack (delete-after-ack IS the
seen-set), so a crash re-ships exactly the unacked files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="beamium_ray.run_watch")
    ap.add_argument("--input", required=True, help="spool dir of *.metrics files")
    ap.add_argument("--output", help="block/manifest output dir "
                    "(required unless --relay-url)")
    ap.add_argument("--config", help="YAML/JSON EngineConfig file")
    ap.add_argument("--scan-period", type=float, default=10.0,
                    help="seconds between directory scans (ref scan-period)")
    ap.add_argument("--max-ticks", type=int, default=None)
    ap.add_argument("--idle-exit", type=int, default=None,
                    help="stop after K consecutive empty scans")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--metrics-addr", default=None,
                    help="serve live /metrics at HOST:PORT while the "
                    "loop runs (ref parameters.metrics, cmd.rs:78-106)")
    ap.add_argument("--relay-url", default=None,
                    help="RELAY mode: instead of rolling up, POST each "
                    "tick's new spool files to this sink url and delete "
                    "them after the 2xx ack — the reference daemon's "
                    "scrape-spool→sender loop (http.rs:49-243)")
    ap.add_argument("--relay-token", default="",
                    help="sink token header value for --relay-url")
    ap.add_argument("--log-file", default=None,
                    help="append-mode log file (ref parameters.log-file; "
                    "defaults under --output)")
    ap.add_argument("--log-level", type=int, default=4,
                    help="slog level 1-6 (ref parameters.log-level)")
    ap.add_argument("--syslog", action="store_true",
                    help="also log to syslog (ref parameters.syslog)")
    ap.add_argument("-v", "--verbose", action="count", default=0,
                    help="raise the CONSOLE log level (stacking -v)")
    args = ap.parse_args(argv)
    if not args.output and not args.relay_url:
        ap.error("--output is required (unless --relay-url)")

    from beamium_ray.state.logsetup import initialize_logging

    # default log placement: under the output root; relay mode has no
    # output dir and must NOT write into the watched spool (anything
    # there reads as undrained state), so it falls back to /tmp
    log_guard = initialize_logging(
        {
            "log-file": args.log_file
            or (
                f"{args.output}/_run/beamium.log"
                if args.output
                else "/tmp/beamium_ray_watch.log"
            ),
            "log-level": args.log_level,
            "syslog": args.syslog,
        },
        verbose=args.verbose,
    )

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from beamium_ray.config import EngineConfig
    from beamium_ray.pipelines.watch import DirectoryWatcher

    cfg = (
        EngineConfig.from_file(args.config) if args.config else EngineConfig()
    )
    if args.output:
        cfg.output_dir = args.output
    w = None
    relay = None
    if args.relay_url:
        from beamium_ray.sinks import HttpSinkConf

        # daemon semantics: retry forever with capped backoff (the
        # reference's sender loop never gives up, http.rs:93) — the
        # default max_attempts=10 is for one-shot CLI forwards and
        # would kill the daemon after a few minutes of sink outage.
        # Provably-permanent client errors (bad token → 401/403,
        # over-cap body → 413) still fail loudly instead of wedging
        # the first POST at the backoff cap forever; transient-able
        # statuses (404 during a deploy, 429, 5xx) keep retrying.
        relay = HttpSinkConf(
            url=args.relay_url,
            token=args.relay_token,
            max_attempts=None,
            giveup_on=(401, 403, 413),
        )
        totals = {"files": 0, "bytes": 0, "requests": 0, "retries": 0}
        status_totals: dict[str, int] = {}
    else:
        w = DirectoryWatcher(
            args.input, cfg, args.output, config_path=args.config
        )

    import time

    ticks = 0
    idle = 0
    last_run = None
    skip_totals = {"blocks_ttl_evicted": 0, "blocks_size_evicted": 0,
                   "windows_expired": 0}

    server = None
    if args.metrics_addr:
        from beamium_ray.state.metrics_server import (
            MetricsServer,
            escape_label_value,
            with_reference_aliases,
        )

        def provider():
            vals = {"watch_ticks": ticks}
            if relay is not None:
                vals.update(totals)  # the reference's push counters
                for st, n in status_totals.items():
                    # ref sink.rs push_http_status{sink,status}
                    vals[f'push_http_status{{status="{st}"}}'] = n
            else:
                vals["reload_count"] = w.reload_count  # ref main.rs:28-32
                for k, v in ((last_run or {}).get("counters") or {}).items():
                    vals[k] = v
                # cumulative eviction counters across ticks (the
                # reference's beamium_skip_ttl / beamium_skip_max_size
                # via REF_ALIASES)
                vals.update(skip_totals)
            # ref README.md:190 beamium_directory_files{directory}: live
            # gauge of spool files, computed per scrape
            try:
                n_files = sum(
                    1
                    for _r, _d, fs in os.walk(args.input)
                    for f in fs
                    if f.endswith(".metrics")
                )
                d = escape_label_value(args.input)
                vals[f'directory_files{{directory="{d}"}}'] = n_files
            except OSError:
                pass
            return with_reference_aliases(vals)

        host, _, port = args.metrics_addr.partition(":")
        server = MetricsServer(provider, host or "127.0.0.1",
                               int(port or 0)).start()
        print(json.dumps({"metrics_url":
                          f"http://{server.host}:{server.port}/metrics"}))
        sys.stdout.flush()

    while True:
        if relay is not None:
            from beamium_ray.sinks import forward_spool

            res = forward_spool(args.input, relay)
            ticks += 1
            if res["files"]:
                idle = 0
                for k in totals:
                    totals[k] += res[k]
                for st, n in (res.get("status") or {}).items():
                    status_totals[st] = status_totals.get(st, 0) + n
                last_run = res
                print(json.dumps({"tick": ticks, "relay": res}))
                sys.stdout.flush()
            else:
                idle += 1
        else:
            res = w.tick()
            ticks += 1
            if res["run"] is not None:
                last_run = res["run"]
                idle = 0
                for k, v in (res["run"].get("retention") or {}).items():
                    if k in skip_totals:
                        skip_totals[k] += v
                print(json.dumps({
                    "tick": ticks,
                    "applied": len(res["applied"]),
                    "replayed": len(res["replayed"]),
                    "reloaded": res["reloaded"],
                    "run": res["run"],
                }))
                sys.stdout.flush()
            else:
                idle += 1
        if args.max_ticks is not None and ticks >= args.max_ticks:
            break
        if args.idle_exit is not None and idle >= args.idle_exit:
            break
        time.sleep(args.scan_period)
    if server is not None:
        server.close()
    print(json.dumps({"ticks": ticks, "run": last_run}))
    log_guard.close()
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
