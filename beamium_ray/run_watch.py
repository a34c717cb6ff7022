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
import sys


def main(argv: list[str] | None = None) -> int:
    from beamium_ray.cli import add_daemon_args, run_daemon

    ap = argparse.ArgumentParser(prog="beamium_ray.run_watch")
    ap.add_argument("--input", required=True, help="spool dir of *.metrics files")
    ap.add_argument("--output", help="block/manifest output dir "
                    "(required unless --relay-url)")
    ap.add_argument("--config", help="YAML/JSON EngineConfig file")
    add_daemon_args(ap)
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

    from beamium_ray.config import EngineConfig
    from beamium_ray.pipelines.watch import DirectoryWatcher

    cfg = (
        EngineConfig.from_file(args.config) if args.config else EngineConfig()
    )
    if args.output:
        cfg.output_dir = args.output
    live = {"ticks": 0}
    if args.relay_url:
        from beamium_ray.sinks import HttpSinkConf, forward_spool

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

        def tick():
            res = forward_spool(args.input, relay)
            return {"run": res if res["files"] else None}

        def on_tick(res, ticks):
            live["ticks"] = ticks
            run = res["run"]
            if run is None:
                return
            for k in totals:
                totals[k] += run[k]
            for st, n in (run.get("status") or {}).items():
                status_totals[st] = status_totals.get(st, 0) + n
            print(json.dumps({"tick": ticks, "relay": run}), flush=True)

        def provider():
            vals = {"watch_ticks": live["ticks"], **totals}  # push counters
            for st, n in status_totals.items():
                # ref sink.rs push_http_status{sink,status}
                vals[f'push_http_status{{status="{st}"}}'] = n
            return vals
    else:
        w = DirectoryWatcher(
            args.input, cfg, args.output, config_path=args.config
        )
        tick = w.tick
        skip_totals = {"blocks_ttl_evicted": 0, "blocks_size_evicted": 0,
                       "windows_expired": 0}

        def on_tick(res, ticks):
            live["ticks"] = ticks
            if res["run"] is None:
                return
            live["run"] = res["run"]
            for k, v in (res["run"].get("retention") or {}).items():
                if k in skip_totals:
                    skip_totals[k] += v
            print(json.dumps({
                "tick": ticks,
                "applied": len(res["applied"]),
                "replayed": len(res["replayed"]),
                "reloaded": res["reloaded"],
                "run": res["run"],
            }), flush=True)

        def provider():
            vals = {"watch_ticks": live["ticks"],
                    "reload_count": w.reload_count}  # ref main.rs:28-32
            vals.update((live.get("run") or {}).get("counters") or {})
            # cumulative eviction counters across ticks (the reference's
            # beamium_skip_ttl / beamium_skip_max_size via REF_ALIASES)
            vals.update(skip_totals)
            return vals

    try:
        return run_daemon(args, tick, on_tick, provider, lambda res: res,
                          "metrics")
    finally:
        log_guard.close()


if __name__ == "__main__":
    sys.exit(main())
