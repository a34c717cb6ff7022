"""Dataset-card report entry point.

    python -m beamium_ray.run_report --input DIR [--strat-col source]
        [--text-col text] [--id-col doc_id] [--num-cpus N]

Prints the per-stratum summary (docs / whitespace tokens / chars /
Gopher-quality keeps) as ONE JSON line — the artifact a corpus release
ships next to the data. Owns its Ray session (guarded init)."""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="beamium_ray.run_report")
    ap.add_argument("--input", required=True, help="parquet dir/file")
    ap.add_argument("--strat-col", default="source")
    ap.add_argument("--text-col", default="text")
    ap.add_argument("--id-col", default="doc_id")
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args(argv)

    import ray

    from beamium_ray.cli import ray_session

    with ray_session(args.num_cpus):
        from beamium_ray.datapipe.textstats import dataset_report

        ds = ray.data.read_parquet(args.input)
        rows = sorted(
            dataset_report(
                ds, strat_col=args.strat_col,
                text_col=args.text_col, id_col=args.id_col,
            ).take_all(),
            key=lambda r: str(r[args.strat_col]),
        )
        total = {
            "n_docs": sum(r["n_docs"] for r in rows),
            "n_tok_ws": sum(r["n_tok_ws"] for r in rows),
            "n_chars": sum(r["n_chars"] for r in rows),
            "n_keep": sum(r["n_keep"] for r in rows),
        }
        print(json.dumps({"input": args.input, "strata": rows, "total": total}))
        return 0


if __name__ == "__main__":
    sys.exit(main())
