"""Query CLI over persisted rollup blocks (the engine's read side).

    python -m beamium_ray.query_cli --output /out --tier 1m \
        [--min-window X] [--max-window Y] [--series REGEX] [--limit N] \
        [--format table|csv|json]

Block-level pruning via manifests (window ranges), row-level filters
after decode. Streams through Ray Data — never materializes more than
the limited result on the driver.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="beamium_ray.query_cli")
    ap.add_argument("--output", required=True, help="block/manifest dir")
    ap.add_argument("--tier", required=True)
    ap.add_argument("--min-window", type=int, default=None)
    ap.add_argument("--max-window", type=int, default=None)
    ap.add_argument("--series", help="unanchored regex on series_key")
    ap.add_argument("--limit", type=int, default=50)
    ap.add_argument("--format", default="table", choices=["table", "csv", "json"])
    args = ap.parse_args(argv)

    from beamium_ray.cli import ray_session

    with ray_session():
        import pyarrow.compute as pc

        from beamium_ray.pipelines.persist import read_blocks_dataset

        ds = read_blocks_dataset(
            args.output, args.tier, args.min_window, args.max_window
        )
        if args.series:
            pat = args.series

            def filt(t):
                return t.filter(pc.match_substring_regex(t["series_key"], pat))

            ds = ds.map_batches(filt, batch_format="pyarrow", batch_size=None)
        out = ds.limit(args.limit).to_pandas()
        if args.format == "table":
            print(out.to_string(index=False))
        elif args.format == "csv":
            out.to_csv(sys.stdout, index=False)
        else:
            print(out.to_json(orient="records"))
        return 0


if __name__ == "__main__":
    sys.exit(main())
