"""The contract of the engine's one keyed shuffle,
``functions.cluster.bucket_apply``: ``fn`` runs once per distinct
``by`` value with all of that value's rows, and never with 0 rows.

Every UDF routed through it relies on this — none carries an
empty-group guard — so the input here holds what used to reach such
guards: blocks that a filter empties and a zero-row union branch. A
Ray upgrade that breaks the contract fails this file."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from beamium_ray.functions.cluster import bucket_apply


def _blocks() -> list[pa.Table]:
    """Six blocks; the filter below empties the odd ones."""
    rng = np.random.default_rng(7)
    out = []
    for i in range(6):
        n = 500
        out.append(
            pa.table(
                {
                    "bucket": pa.array(rng.integers(0, 9, n), pa.int32()),
                    "k2": pa.array(rng.choice(["a", "b"], n).tolist(), pa.string()),
                    # odd blocks hold only negative values
                    "v": pa.array(
                        rng.integers(1, 1000, n) * (-1 if i % 2 else 1), pa.int64()
                    ),
                }
            )
        )
    return out


@pytest.mark.parametrize(
    "by, shuffle_blocks", [("bucket", None), ("bucket", 3), (["bucket", "k2"], 2)]
)
def test_fn_sees_each_key_once_and_never_empty(ray_session, by, shuffle_blocks):
    import ray.data

    keys = [by] if isinstance(by, str) else by

    # defined here, not at module level: Ray pickles it by value
    def keep_positive(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["v"], 0))

    blocks = _blocks()
    empty_branch = ray.data.from_arrow(blocks[0].slice(0, 0))
    ds = ray.data.from_arrow(blocks).union(empty_branch)

    def fn(g: pa.Table) -> pa.Table:
        # one summary row per call; a 0-row call would read rows == 0
        n = g.num_rows
        row = {k: g[k][0].as_py() if n else None for k in keys}
        row["rows"] = n
        row["keys_seen"] = (
            g.group_by(keys, use_threads=False).aggregate([]).num_rows if n else 0
        )
        row["vsum"] = pc.sum(g["v"]).as_py() if n else 0
        return pa.Table.from_pylist([row])

    res = bucket_apply(
        ds, fn, by=by, prep=keep_positive, shuffle_blocks=shuffle_blocks
    )
    out = pa.concat_tables(
        list(res.iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default",
    )
    assert pc.min(out["rows"]).as_py() >= 1
    assert set(out["keys_seen"].to_pylist()) == {1}

    want = (
        pa.concat_tables([keep_positive(b) for b in blocks])
        .group_by(keys, use_threads=False)
        .aggregate([("v", "count"), ("v", "sum")])
    )

    def rows(t, n, s):
        return sorted(
            tuple(r[k] for k in keys) + (r[n], r[s]) for r in t.to_pylist()
        )

    # one call per distinct key, holding all of that key's rows
    assert rows(out, "rows", "vsum") == rows(want, "v_count", "v_sum")
