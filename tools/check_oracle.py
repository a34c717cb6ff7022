"""Local replica of the driver's correctness gate: run every queries()
entry and compare against oracle_sql() via DuckDB (row count + schema +
order-insensitive value hash). Usage:

    python tools/check_oracle.py [sf_dir] [--only name1,name2]
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

import duckdb
import pandas as pd


def to_pandas(res):
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    rows = [tuple(r) for r in df.itertuples(index=False)]
    rows.sort(key=repr)
    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
    return h.hexdigest()[:16]


def main():
    argv = list(sys.argv[1:])
    only: set[str] | None = None
    if "--only" in argv:
        i = argv.index("--only")
        only = set(argv[i + 1].split(","))
        del argv[i:i + 2]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.001"
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    # the checkout that holds this script, so a copy gates its own engine
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()

    con = duckdb.connect()
    for t in [
        "region", "nation", "customer", "supplier", "part", "orders",
        "lineitem", "events", "documents", "embeddings",
    ]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    if only is not None:
        unknown = only - set(qs)
        if unknown:
            # a typo'd --only must not report a vacuous "0 pass, 0 fail"
            print(f"FAIL --only names not in queries(): {sorted(unknown)}")
            sys.exit(2)
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only is not None and name not in only:
            continue
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as ex:  # noqa
            print(f"FAIL {name}: engine raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(got)} rows)")
            n_pass += 1
            continue
        try:
            want = con.execute(oracles[name]).df()
        except Exception as ex:  # noqa
            print(f"FAIL {name}: oracle SQL raised {ex}")
            n_fail += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(want.columns)}")
        elif value_hash(got) != value_hash(want):
            problems.append("value-hash mismatch")
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)}")
            if "value-hash mismatch" in problems and len(got) == len(want):
                g = got[sorted(got.columns)].sort_values(sorted(got.columns)).reset_index(drop=True)
                w = want[sorted(want.columns)].sort_values(sorted(want.columns)).reset_index(drop=True)
                diff = (g != w) & ~(g.isna() & w.isna())
                bad = diff.any(axis=1)
                if bad.any():
                    i = bad.idxmax()
                    print("  first diff row:")
                    print("  got ", g.loc[i].to_dict())
                    print("  want", w.loc[i].to_dict())
            n_fail += 1
        else:
            print(f"PASS {name} ({len(got)} rows)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
