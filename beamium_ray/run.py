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
import glob
import json
import os
import sys


def _input_files(inp: str) -> list[str]:
    """The concrete parquet files behind ``--input`` (a dir, a glob or
    one file; [] when none exist): the run reads and fingerprints this
    same list. A dir is searched recursively, as ``read_parquet``
    descends; a glob is expanded, so its fingerprint changes when it
    matches other files."""
    if os.path.isdir(inp):
        return sorted(
            glob.glob(os.path.join(inp, "**", "*.parquet"), recursive=True)
        )
    if any(ch in inp for ch in "*?["):
        return sorted(glob.glob(inp, recursive=True))
    return [inp] if os.path.exists(inp) else []


def _input_error(inp: str, paths: list[str]) -> str | None:
    """Why ``--input`` (expanded to ``paths``) cannot be read, in one
    line, or None."""
    if paths:
        return None
    if not any(ch in inp for ch in "*?[") and not os.path.exists(inp):
        return f"input path does not exist: {inp}"
    return f"input matches no parquet file: {inp}"


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
    paths = _input_files(args.input) if args.input else []
    input_err = args.input and _input_error(args.input, paths)

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
        if input_err:
            errors.append(input_err)
        for e in errors:
            print(f"configuration error: {e}", file=sys.stderr)
        if errors:
            return 1
        print("configuration is healthy")
        return 0

    if not args.input or not args.output:
        ap.error("--input and --output are required (unless --check)")
    if input_err:
        print(input_err, file=sys.stderr)
        return 1

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
        seq = read_sequences(paths, columns=["doc_id", "n_tok", "source"])
        dp = datapoints(
            seq, cfg, mode=args.mode,
            metrics_actor=None if args.no_metrics else metrics_name,
        )
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
