"""Source-level invariants of the package — one Ray start, one router
for the filters, one block store, one keyed shuffle, one tick store,
one pair verifier, one fold — checked by scanning its source text: no Ray,
milliseconds."""

from __future__ import annotations

import pathlib
import re

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "beamium_ray"


def _files_with(needle: str, *subdirs: str) -> list[str]:
    roots = [PKG / d for d in subdirs] if subdirs else [PKG]
    return sorted(
        str(p.relative_to(PKG))
        for root in roots
        for p in root.rglob("*.py")
        if needle in p.read_text()
    )


def test_only_cli_starts_ray():
    assert _files_with("ray.init(") == ["cli.py"]


@pytest.mark.parametrize("needle", ["whitelist_batch(", "relabel_batch("])
def test_filters_run_only_through_the_router(needle):
    assert set(_files_with(needle, "pipelines", "sources")) <= {
        "pipelines/route.py"
    }


@pytest.mark.parametrize("needle", ['get("blocks")', '["blocks"]', '"_manifests"'])
def test_block_lists_only_in_the_store(needle):
    assert _files_with(needle) == ["state/manifest.py"]


def test_one_sequence_source():
    # the tokenized-sequence table is read only by sources.tokens
    # .read_sequences, which sizes the read to fuse with the map
    call = re.compile(r'read_parquet\((?:[^()]|\([^()]*\))*"n_tok"')
    assert {
        str(p.relative_to(PKG))
        for p in PKG.rglob("*.py")
        if call.search(p.read_text())
    } <= {"sources/tokens.py"}


def test_one_bucket_shuffle():
    # every keyed shuffle goes through functions.cluster.bucket_apply,
    # whose no-empty-group contract tests/test_bucket_apply.py pins
    assert _files_with("map_groups(") == ["functions/cluster.py"]


@pytest.mark.parametrize(
    "needle", ['"MANIFEST.json"', "_committed_files(", "parse_ticks(", "tick-{"]
)
def test_one_tick_store(needle):
    # the incremental stores commit, read, sweep, expire and compact
    # through state.storegc.TickStore; none knows the file layout
    assert _files_with(needle) == ["state/storegc.py"]


def test_one_pair_verifier():
    # every near-dup family scores its candidate pairs through
    # datapipe.pairjoin.verify_pairs, one kernel per metric
    for needle in ("pair_metric_join(", "iter_rows_by_ids("):
        assert _files_with(needle) == ["datapipe/pairjoin.py"], needle
    for name in ("_jaccard_for_pairs", "shingle_sets_for",
                 "sigs_from_sig_ds", "_vectors_for",
                 "_verified_cosine_pairs"):
        assert _files_with(f"def {name}(") == [], name


def test_one_fold():
    # the sketches, the vocabulary histograms and both Lloyd trainers
    # merge their partial rows through functions.cluster.fold
    assert _files_with("repartition(1)") == ["functions/cluster.py"]
    for name in ("datapipe/stats.py", "datapipe/similarity.py"):
        text = (PKG / name).read_text()
        for needle in (".groupby(", "repartition("):
            assert needle not in text, (name, needle)
