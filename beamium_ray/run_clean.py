"""Training-data cleaning job entry point (the `ray job submit`
target for the datapipe op set).

    python -m beamium_ray.run_clean --config clean.yaml [--num-cpus N]
    python -m beamium_ray.run_clean --config clean.yaml -t   # validate only

Composes the configured gate-verified stages (quality filter,
boilerplate removal, decontamination, exact dedup, sampling/mixing,
split assignment) into ONE streaming Dataset pipeline and writes
partitioned Parquet; prints a one-line JSON summary. Owns its Ray
session (guarded init — safe under `ray job submit`)."""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="beamium_ray.run_clean")
    ap.add_argument("--config", required=True, help="YAML/JSON CleanConfig")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument(
        "-t", "--check",
        action="store_true",
        help="validate the configuration and exit WITHOUT starting Ray",
    )
    ap.add_argument(
        "--shards", type=int, default=None, metavar="FILES_PER_SHARD",
        help="resumable sharded mode: run the pipeline per input-file "
             "shard, each committed by an atomic manifest; a rerun "
             "skips committed shards",
    )
    ap.add_argument(
        "--allow-within-shard", action="store_true",
        help="accept that cross-document stages (dedup/caps/shuffle/"
             "pack/...) apply WITHIN each shard under --shards",
    )
    args = ap.parse_args(argv)

    from beamium_ray.pipelines.clean import CleanConfig

    try:
        cfg = CleanConfig.from_file(args.config)
        cfg.validate()
    except Exception as ex:  # noqa: BLE001 — report ANY config problem
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    if args.check:
        print(json.dumps({"config_ok": True, "stages":
                          [next(iter(s)) for s in cfg.stages]}))
        return 0

    from beamium_ray.cli import ray_session

    with ray_session(args.num_cpus):
        from beamium_ray.pipelines.clean import run_clean, run_clean_sharded

        if args.shards is not None:
            res = run_clean_sharded(
                cfg,
                files_per_shard=args.shards,
                allow_within_shard=args.allow_within_shard,
            )
        else:
            res = run_clean(cfg)
        print(json.dumps(res))
        return 0


if __name__ == "__main__":
    sys.exit(main())
