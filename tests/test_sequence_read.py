"""The sequence read's block sizing: one block per file, split only to
give every CPU a block, so the read fuses with the derive/parse map —
and the sizing never changes what the rollup stores."""

from __future__ import annotations

import os

import pytest

from beamium_ray.config import EngineConfig

COLUMNS = ["doc_id", "n_tok", "source"]


@pytest.fixture(scope="module")
def files(ray_session, tmp_path_factory):
    from beamium_ray.sources.tokens import generate_dataset

    d = str(tmp_path_factory.mktemp("seq"))
    return generate_dataset(d, 6_000, rows_per_file=1_000)


def test_one_block_per_file_and_at_least_one_per_cpu(files):
    from beamium_ray.functions.cluster import cluster_cpus
    from beamium_ray.sources.tokens import read_sequences

    assert cluster_cpus() == 4
    # 2 files < 4 CPUs: each file's output is split in two
    assert read_sequences(files[:2], columns=COLUMNS).materialize().num_blocks() == 4
    assert read_sequences(files, columns=COLUMNS).materialize().num_blocks() == 6
    # a directory counts its files
    d = files[0].rsplit("/", 1)[0]
    assert read_sequences(d, columns=COLUMNS).materialize().num_blocks() == 6


def test_read_fuses_with_the_derive_parse_map(files):
    from beamium_ray.pipelines.rollup_pipeline import datapoints
    from beamium_ray.sources.tokens import read_sequences

    stats = datapoints(read_sequences(files, columns=COLUMNS), EngineConfig(),
                       mode="lines").materialize().stats()
    assert "ReadParquet->MapBatches(DeriveParseRelabel): 6 tasks executed" in stats
    assert "SplitBlocks" not in stats


def test_read_sizing_never_changes_the_store(files, tmp_path):
    """The rollup's float sums must not depend on how the read cut the
    input: the sized read and Ray's default-sized read store the same
    blocks, byte for byte."""
    import ray.data

    from beamium_ray.pipelines.persist import rollup_to_blocks
    from beamium_ray.pipelines.rollup_pipeline import datapoints
    from beamium_ray.sources.tokens import read_sequences
    from beamium_ray.state.manifest import plan

    cfg = EngineConfig(num_buckets=8)
    shas = []
    for name, seq in (
        ("sized", read_sequences(files, columns=COLUMNS)),
        ("default", ray.data.read_parquet(files, columns=COLUMNS)),
    ):
        out = str(tmp_path / name)
        rollup_to_blocks(datapoints(seq, cfg, mode="lines"), cfg, files, out)
        shas.append(sorted(b["sha256"] for b in plan(out)))
    assert shas[0] == shas[1] and shas[0]


def test_run_reads_the_files_a_glob_names(files, tmp_path, capsys):
    # `run` reads and fingerprints one concrete file list, so a glob
    # input stores what its directory stores
    from beamium_ray import run
    from beamium_ray.state.manifest import plan

    d = files[0].rsplit("/", 1)[0]
    shas = []
    for name, inp in (("dir", d), ("glob", f"{d}/*.parquet")):
        out = str(tmp_path / name)
        assert run.main(["--input", inp, "--output", out, "--no-metrics"]) == 0
        shas.append(sorted(b["sha256"] for b in plan(out)))
    assert shas[0] == shas[1] and shas[0]

    # a glob that matches no file fails with one line, check and run alike
    none = f"{d}/*.nope"
    assert run.main(["--check", "--input", none]) == 1
    assert "matches no parquet file" in capsys.readouterr().err
    assert run.main(["--input", none, "--output", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.strip() == f"input matches no parquet file: {none}"
    assert not os.path.exists(tmp_path / "x")
