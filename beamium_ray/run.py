"""Batch-job entry point (the `ray job submit` target, SURVEY.md M6).

    python -m beamium_ray.run --input /data/sequences --output /out \
        [--config conf.yaml] [--mode lines|columns] [--num-cpus N]

Runs the full persisting pipeline: read sequences → derive/parse/
relabel/filter → rollup → Gorilla blocks + lineage manifests, then
applies retention and prints the merged run manifest (with stage
metrics) as one JSON line. Re-running with the same input+config
resumes: committed buckets are skipped before the shuffle.

Owns its Ray session (guarded init — safe under `ray job submit`,
where the cluster is already up).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="beamium_ray.run")
    ap.add_argument("--input", help="dir/glob of sequence parquet")
    ap.add_argument("--output", help="block/manifest output dir")
    ap.add_argument("--config", help="YAML/JSON EngineConfig file")
    ap.add_argument("--mode", default="columns", choices=["lines", "columns"])
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--no-metrics", action="store_true")
    ap.add_argument(
        "--append",
        action="store_true",
        help="continuous-aggregate mode: fold this input into existing "
        "blocks (merge with prior state) instead of fingerprint-resume",
    )
    ap.add_argument(
        "-t", "--check",
        action="store_true",
        help="validate the configuration and exit WITHOUT starting Ray "
        "(the reference's `-t`, src/cmd.rs:40-42)",
    )
    args = ap.parse_args(argv)

    if args.check:
        # config test mode: parse + validate, never touch Ray
        # (ref src/main.rs:108-118 — load conf, report, quit)
        from beamium_ray.config import EngineConfig, validate_engine_config

        try:
            cfg = (
                EngineConfig.from_file(args.config)
                if args.config
                else EngineConfig()
            )
        except Exception as ex:
            print(f"configuration error: {ex}", file=sys.stderr)
            return 1
        errors = validate_engine_config(cfg)
        if args.input and not any(ch in args.input for ch in "*?[") \
                and not os.path.exists(args.input):
            errors.append(f"input path does not exist: {args.input}")
        for e in errors:
            print(f"configuration error: {e}", file=sys.stderr)
        if errors:
            return 1
        print("configuration is healthy")
        return 0

    if not args.input or not args.output:
        ap.error("--input and --output are required (unless --check)")

    from beamium_ray.cli import ray_session

    with ray_session(args.num_cpus):
        from beamium_ray.config import EngineConfig
        from beamium_ray.pipelines.persist import rollup_to_blocks
        from beamium_ray.pipelines.rollup_pipeline import datapoints
        from beamium_ray.sources.tokens import read_sequences
        from beamium_ray.state.retention import retain_after_commit

        cfg = (
            EngineConfig.from_file(args.config) if args.config else EngineConfig()
        )
        cfg.output_dir = args.output

        metrics_name = f"beamium-metrics-{os.getpid()}"
        metrics_handle = None
        if not args.no_metrics:
            from beamium_ray.state.metrics import get_or_create

            # driver-owned; the HANDLE must stay referenced or the named
            # actor is refcounted away before workers flush to it
            metrics_handle = get_or_create(metrics_name)
        seq = read_sequences(args.input, columns=["doc_id", "n_tok", "source"])
        dp = datapoints(
            seq, cfg, mode=args.mode,
            metrics_actor=None if args.no_metrics else metrics_name,
        )
        import glob

        if os.path.isdir(args.input):
            paths = sorted(
                glob.glob(
                    os.path.join(args.input, "**", "*.parquet"), recursive=True
                )
            )
        elif any(ch in args.input for ch in "*?["):
            # expand glob inputs to the CONCRETE file list: fingerprinting
            # the literal glob string would reuse a stale fingerprint when
            # the glob matches a different file set (ADVICE r1)
            paths = sorted(glob.glob(args.input, recursive=True))
        else:
            paths = [args.input]
        # recursive: read_parquet descends, so the fingerprint must too
        if args.append:
            from beamium_ray.pipelines.persist import append_rollup

            run, _rows = append_rollup(dp, cfg, paths, args.output)
        else:
            run, _rows = rollup_to_blocks(dp, cfg, paths, args.output)
        if not args.no_metrics:
            # counters were flushed in-pipeline by the parse stage actors
            from beamium_ray.state.metrics import read_and_drop

            run["stage_metrics"] = read_and_drop(metrics_name)
            del metrics_handle
        retain_after_commit(args.output, cfg, run)
        print(json.dumps(run))
        return 0


if __name__ == "__main__":
    sys.exit(main())
