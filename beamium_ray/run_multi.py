"""Multi-scraper batch-job entry point (the reference's `beamium -c
config.yaml` analog for the full scrapers→router→sinks topology).

    python -m beamium_ray.run_multi --config conf.yaml --output /out \
        [--num-cpus N]

The config is a full :class:`BeamiumConfig` file; each scraper entry
additionally carries ``input`` (a directory of ``*.metrics`` line
files — the scrape spool). Prints one JSON line: per-sink output dir
and row count.

Owns its Ray session (guarded init — safe under `ray job submit`).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="beamium_ray.run_multi")
    ap.add_argument("--config", required=True,
                    help="BeamiumConfig file (YAML/JSON/TOML)")
    ap.add_argument("--output", help="sink output root")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument(
        "--forward",
        action="store_true",
        help="after writing each sink, POST its datapoints to the "
        "sink's configured url (HTTP forwarder with backoff; sinks "
        "without a url are skipped)",
    )
    ap.add_argument(
        "-t", "--check",
        action="store_true",
        help="validate the configuration and exit WITHOUT starting Ray "
        "(the reference's `-t`, src/cmd.rs:40-42)",
    )
    ap.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise the CONSOLE log level (stacking, the reference's "
        "-v; file/syslog stay at parameters.log-level)",
    )
    args = ap.parse_args(argv)

    if args.check:
        import os

        from beamium_ray.config import (
            BeamiumConfig,
            load_raw_config,
            validate_beamium_config,
        )

        try:
            raw = load_raw_config(args.config)
            cfg = BeamiumConfig.from_dict(raw)
        except Exception as ex:
            print(f"configuration error: {ex}", file=sys.stderr)
            return 1
        errors = validate_beamium_config(cfg)
        for name, sub in (raw.get("scrapers") or {}).items():
            inp = (sub or {}).get("input") if isinstance(sub, dict) else None
            has_url = bool(cfg.scrapers.get(name) and cfg.scrapers[name].url)
            if not inp and not has_url:
                errors.append(
                    f"scraper {name!r}: needs an 'input' dir or a 'url'"
                )
            elif inp and not os.path.isdir(str(inp)):
                errors.append(
                    f"scraper {name!r}: input dir does not exist: {inp}"
                )
        for e in errors:
            print(f"configuration error: {e}", file=sys.stderr)
        if errors:
            return 1
        print("configuration is healthy")
        return 0

    if not args.output:
        ap.error("--output is required (unless --check)")

    from beamium_ray.cli import ray_session

    with ray_session(args.num_cpus):
        import pyarrow.parquet as pq

        from beamium_ray.config import BeamiumConfig
        from beamium_ray.pipelines.multi import run_beamium_config
        from beamium_ray.sources.lines import read_metric_lines_whole_files

        # ONE parse of the config file: the typed BeamiumConfig plus the
        # raw dict for the per-scraper `input` keys (not an EngineConfig
        # field). load_raw_config rejects INI (its flat sections cannot
        # express the scrapers/sinks maps) with a clear error.
        from beamium_ray.config import load_raw_config

        raw = load_raw_config(args.config)
        cfg = BeamiumConfig.from_dict(raw)

        # parameters.log-file / log-level / syslog (conf.rs:78-82, log.rs).
        # An unconfigured log-file defaults under the OUTPUT root (a batch
        # job's logs belong next to its artifacts, not in whatever cwd the
        # scheduler launched from — the one divergence from the reference's
        # ./beamium.log default).
        from beamium_ray.state.logsetup import initialize_logging

        log_params = dict(cfg.parameters or {})
        if "log-file" not in log_params and "log_file" not in log_params:
            log_params["log-file"] = f"{args.output}/_run/beamium.log"
        log_guard = initialize_logging(log_params, verbose=args.verbose)

        raw_inputs: dict[str, str] = {}
        for name, sub in (raw.get("scrapers") or {}).items():
            if isinstance(sub, dict) and sub.get("input"):
                raw_inputs[name] = str(sub["input"])
        # scrapers with a `url` and no `input` are fetched live (reference
        # S1): one scrape tick lands spool files under the output root, and
        # the lines source ingests them like any pre-existing spool
        for name, scfg in cfg.scrapers.items():
            if name not in raw_inputs and scfg.url:
                from beamium_ray.sources.scrape import scrape_scraper

                spool = f"{args.output}/_scrape/{name}"
                scrape_scraper(scfg, spool, parameters=cfg.parameters)
                raw_inputs[name] = spool
        missing = set(cfg.scrapers) - set(raw_inputs)
        if missing:
            raise SystemExit(
                f"scrapers without an 'input' dir or 'url': {sorted(missing)}"
            )

        inputs = {
            name: read_metric_lines_whole_files(path)
            for name, path in raw_inputs.items()
        }
        paths = run_beamium_config(cfg, inputs, args.output)
        summary = {}
        for sink, path in paths.items():
            try:
                n = pq.read_table(path, columns=["ts"]).num_rows
            except FileNotFoundError:
                n = 0  # selector matched nothing → no directory written
            except Exception as ex:  # corrupt/unreadable output is an ERROR
                summary[sink] = {"path": path, "rows": None,
                                 "error": f"{type(ex).__name__}: {ex}"}
                continue
            summary[sink] = {"path": path, "rows": n}
            sk = cfg.sinks.get(sink)
            if args.forward and sk is not None and sk.url and n:
                from beamium_ray.sinks import (
                    forward_parquet_sink,
                    http_conf_from_config,
                )

                # full parameter surface: timeout, batch caps, backoff.*,
                # keep-alive knobs and custom headers all flow from config
                summary[sink]["forwarded"] = forward_parquet_sink(
                    path, http_conf_from_config(sk, cfg.parameters)
                )
        print(json.dumps({"sinks": summary}))
        log_guard.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
