"""Watch-mode incremental dedup daemon (run_dedup_watch): CLI e2e over
a parquet landing dir, the appender contract, span-mode output."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_cli(args, timeout=180):
    p = subprocess.run(
        [sys.executable, "-m", "beamium_ray.run_dedup_watch", *args],
        env={**os.environ, "PYTHONPATH": REPO},
        capture_output=True, text=True, timeout=timeout, cwd=REPO,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    return [json.loads(ln) for ln in p.stdout.strip().splitlines()]


@pytest.mark.slow
def test_dedup_watch_cli_exact_cross_tick(tmp_path):
    """Two daemon runs over a growing landing dir: the second run's
    batch dedups against the FIRST run's committed store (cross-tick,
    cross-process), the seen-set resumes, retention/compaction knobs
    execute in the loop."""
    landing = tmp_path / "landing"
    landing.mkdir()
    store = str(tmp_path / "store")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["alpha one", "beta two", "alpha one"]),
        }),
        landing / "b1.parquet",
    )
    base = ["--input", str(landing), "--store", store, "--mode", "exact",
            "--scan-period", "0.1", "--num-cpus", "4"]
    lines = _run_cli([*base, "--max-ticks", "2"])
    assert lines[0]["assignments"] == 3 and lines[0]["store_tick"] == 1

    pq.write_table(
        pa.table({
            "doc_id": pa.array([10, 11], pa.int64()),
            "text": pa.array(["alpha one", "fresh text"]),
        }),
        landing / "b2.parquet",
    )
    lines = _run_cli(
        [*base, "--max-ticks", "2", "--idle-exit", "2",
         "--store-ttl-ticks", "100", "--compact-every", "1"]
    )
    # only b2 applied (seen-set resumed across processes)
    assert lines[0]["applied_files"] == 1
    assert lines[0]["assignments"] == 5 and lines[0]["store_tick"] == 2
    assert lines[-1]["compacted"] >= 1  # compaction ran in the loop

    import ray

    from beamium_ray.datapipe.incdedup import IncrementalExactDedup

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    dd = IncrementalExactDedup(store)
    got = sorted(
        (r["doc_id"], r["cluster"]) for r in dd.assignments().take_all()
    )
    assert got == [(1, 1), (2, 2), (3, 1), (10, 1), (11, 11)]


def test_dedup_watch_appender_receives_files(ray_session, tmp_path):
    """An appender is called as ``appender(ds, files)``: ``files`` is the
    batch's file list, a FileBatch carrying the pending record's
    intent-time fingerprint (the idempotence-key hook)."""
    import ray.data

    from beamium_ray.config import EngineConfig
    from beamium_ray.pipelines.watch import DirectoryWatcher

    landing = tmp_path / "landing"
    landing.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["x"])}),
        landing / "a.parquet",
    )
    seen_calls = []

    def appender(ds, files):
        pending = w._load_state()["pending"]
        seen_calls.append((sorted(files), ds.count(), files.fingerprint,
                           pending["fingerprint"]))
        return {"ok": True}

    w = DirectoryWatcher(
        str(landing), EngineConfig(), str(tmp_path / "s1"),
        file_extension="parquet",
        loader=lambda files: ray.data.read_parquet(files),
        appender=appender,
    )
    res = w.tick()
    assert res["run"] == {"ok": True}
    [(files, n, fp, pending_fp)] = seen_calls
    assert files == [str(landing / "a.parquet")] and n == 1
    assert fp is not None and fp == pending_fp


def test_dedup_watch_cli_json_first_run_race(tmp_path, monkeypatch, capsys):
    """Two daemons starting on one fresh store: the one whose
    ``_cli.json`` create loses the race (the rival's file lands between
    its existence check and its create) re-reads the winner's
    parameters and gets the mismatch refusal, exit 2; the winner's
    file is untouched. Equal parameters pass the check."""
    import beamium_ray.cli
    from beamium_ray import run_dedup_watch

    class DaemonStarted(Exception):
        pass

    def no_daemon(*a, **kw):
        raise DaemonStarted

    monkeypatch.setattr(beamium_ray.cli, "run_daemon", no_daemon)
    real_link = os.link
    rival = {}

    def racing_link(src, dst):
        with open(dst, "w") as f:  # the other daemon's create lands first
            json.dump(rival, f)
        return real_link(src, dst)

    monkeypatch.setattr(os, "link", racing_link)
    store = tmp_path / "store"
    args = ["--input", str(tmp_path / "landing"), "--store", str(store),
            "--mode", "exact"]

    rival.update(mode="exact", text_col="body", id_col="doc_id")
    assert run_dedup_watch.main(args) == 2
    assert "was committed with" in capsys.readouterr().err
    assert json.load(open(store / "_cli.json")) == rival
    assert os.listdir(store) == ["_cli.json"]  # no tmp file left

    os.remove(store / "_cli.json")
    rival.update(text_col="text")
    with pytest.raises(DaemonStarted):  # past the check, on to the loop
        run_dedup_watch.main(args)


@pytest.mark.slow
def test_dedup_watch_guards_and_empty_first_batch(tmp_path):
    """CLI guards: nested store/output refused, restart with changed
    dedup params refused, semantic threshold defaults to the library's
    0.95; a ZERO-ROW first batch must not wedge the pending record."""
    landing = tmp_path / "landing"
    landing.mkdir()
    store = str(tmp_path / "store")

    def run_raw(extra, store_dir=store):
        return subprocess.run(
            [sys.executable, "-m", "beamium_ray.run_dedup_watch",
             "--input", str(landing), "--store", store_dir,
             "--scan-period", "0.1", "--num-cpus", "4", *extra],
            env={**os.environ, "PYTHONPATH": REPO},
            capture_output=True, text=True, timeout=180, cwd=REPO,
        )

    # store nested under the landing dir: self-ingestion loop refused
    p = run_raw(["--mode", "exact", "--max-ticks", "1"],
                store_dir=str(landing / "store"))
    assert p.returncode == 2 and "re-ingest" in p.stderr

    # empty (0-row, valid schema) FIRST batch: promoted, not a wedge
    pq.write_table(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())}),
        landing / "empty.parquet",
    )
    lines = _run_cli(["--input", str(landing), "--store", store,
                      "--mode", "exact", "--scan-period", "0.1",
                      "--max-ticks", "1", "--num-cpus", "4"])
    assert lines[0]["assignments"] == 0
    # and the next run ingests fresh data normally (no pending replay)
    pq.write_table(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["x"])}),
        landing / "b1.parquet",
    )
    lines = _run_cli(["--input", str(landing), "--store", store,
                      "--mode", "exact", "--scan-period", "0.1",
                      "--max-ticks", "1", "--num-cpus", "4"])
    assert lines[0]["assignments"] == 1
    assert lines[0]["replayed_files"] == 0

    # restart with a different id-col: refused before touching the store
    p = run_raw(["--mode", "exact", "--id-col", "other", "--max-ticks",
                 "1"])
    assert p.returncode == 2 and "different dedup semantics" in p.stderr

    # semantic mode records the library default threshold 0.95
    sem_store = str(tmp_path / "sem")
    run_raw(["--mode", "semantic", "--max-ticks", "1", "--idle-exit",
             "1"], store_dir=sem_store)
    rec = json.load(open(os.path.join(sem_store, "_cli.json")))
    assert rec["threshold"] == 0.95 and rec["mode"] == "semantic"


@pytest.mark.slow
def test_dedup_watch_sigkill_heals_exactly_once(tmp_path):
    """Kill the real daemon mid-tick (pending written, store writes
    possibly in flight), restart to heal, and assert the assignments
    equal a never-killed twin over the same landing dir — the
    batch_key no-op replay contract at process level."""
    import random
    import signal
    import time as _time

    rng = random.Random(0xDEDD)

    def spawn(landing, store):
        return subprocess.Popen(
            [sys.executable, "-m", "beamium_ray.run_dedup_watch",
             "--input", str(landing), "--store", store, "--mode", "exact",
             "--scan-period", "0.1", "--max-ticks", "2",
             "--num-cpus", "4"],
            env={**os.environ, "PYTHONPATH": REPO}, cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def batch(landing, i):
        pq.write_table(
            pa.table({
                "doc_id": pa.array(range(i * 10, i * 10 + 6), pa.int64()),
                "text": pa.array(
                    [f"doc {j % 3} of batch {i if j < 3 else 0}"
                     for j in range(6)]
                ),
            }),
            landing / f"b{i}.parquet",
        )

    landing_k = tmp_path / "lk"
    landing_c = tmp_path / "lc"
    landing_k.mkdir(), landing_c.mkdir()
    store_k = str(tmp_path / "sk")
    store_c = str(tmp_path / "sc")

    kills = 0
    for i in range(2):
        batch(landing_k, i), batch(landing_c, i)
        p = spawn(landing_k, store_k)
        state = os.path.join(store_k, "_run", "watch.json")
        deadline = _time.time() + 120
        while _time.time() < deadline and p.poll() is None:
            pending = False
            if os.path.exists(state):
                try:
                    pending = json.load(open(state)).get("pending") is not None
                except (json.JSONDecodeError, OSError):
                    pending = True
            if pending:
                _time.sleep(rng.uniform(0.0, 1.0))
                break
            _time.sleep(0.02)
        if p.poll() is None:
            p.send_signal(signal.SIGKILL)
            p.wait()
            kills += 1
        _run_cli(["--input", str(landing_k), "--store", store_k,
                  "--mode", "exact", "--scan-period", "0.1",
                  "--max-ticks", "2", "--num-cpus", "4"])  # heal
        _run_cli(["--input", str(landing_c), "--store", store_c,
                  "--mode", "exact", "--scan-period", "0.1",
                  "--max-ticks", "2", "--num-cpus", "4"])  # clean twin
    assert kills >= 1, "no kill landed mid-flight; widen the window"

    import ray

    from beamium_ray.datapipe.incdedup import IncrementalExactDedup

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")

    def asn(store):
        dd = IncrementalExactDedup(store)
        return sorted(
            (r["doc_id"], r["cluster"])
            for r in dd.assignments().take_all()
        )

    got, want = asn(store_k), asn(store_c)
    assert got == want and len(got) == 12


@pytest.mark.slow
def test_dedup_watch_metrics_endpoint(tmp_path):
    """--metrics-addr serves live counters (and the reference's
    directory_files gauge) while the daemon runs."""
    import time
    import urllib.request

    landing = tmp_path / "landing"
    landing.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["a doc", "a doc"])}),
        landing / "b1.parquet",
    )
    p = subprocess.Popen(
        [sys.executable, "-m", "beamium_ray.run_dedup_watch",
         "--input", str(landing), "--store", str(tmp_path / "store"),
         "--mode", "exact", "--scan-period", "0.5", "--max-ticks", "60",
         "--num-cpus", "4", "--metrics-addr", "127.0.0.1:0"],
        env={**os.environ, "PYTHONPATH": REPO}, cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        url = None
        deadline = time.time() + 120
        while time.time() < deadline:
            line = p.stdout.readline()
            if not line:
                time.sleep(0.1)
                continue
            d = json.loads(line)
            url = d.get("metrics_url", url)
            if d.get("tick"):
                break
        assert url, "daemon never announced its metrics url"
        body = urllib.request.urlopen(url, timeout=10).read().decode()
    finally:
        p.kill()
        p.wait()
    assert "beamium_dedup_files_applied 1" in body
    assert "beamium_watch_ticks" in body
    assert 'beamium_directory_files{directory=' in body  # ref gauge


@pytest.mark.slow
def test_dedup_watch_replay_not_counted_as_applied(tmp_path):
    """A crash-heal replay (the batch committed to the store but never
    promoted to 'seen') counts in dedup_files_replayed and leaves
    dedup_files_applied unchanged."""
    import time
    import urllib.request

    from beamium_ray.state.manifest import input_fingerprint

    landing = tmp_path / "landing"
    landing.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["a doc", "b doc"])}),
        landing / "b1.parquet",
    )
    store = str(tmp_path / "store")
    _run_cli(["--input", str(landing), "--store", store, "--mode", "exact",
              "--scan-period", "0.1", "--max-ticks", "1", "--num-cpus", "4"])
    # roll the watcher back to the crash window: pending, not seen
    state = os.path.join(store, "_run", "watch.json")
    st = json.load(open(state))
    files, st["seen"] = st["seen"], []
    st["pending"] = {"files": files, "fingerprint": input_fingerprint(files)}
    with open(state, "w") as f:
        json.dump(st, f)

    p = subprocess.Popen(
        [sys.executable, "-m", "beamium_ray.run_dedup_watch",
         "--input", str(landing), "--store", store,
         "--mode", "exact", "--scan-period", "0.5", "--max-ticks", "60",
         "--num-cpus", "4", "--metrics-addr", "127.0.0.1:0"],
        env={**os.environ, "PYTHONPATH": REPO}, cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        url, tick = None, None
        deadline = time.time() + 120
        while time.time() < deadline and tick is None:
            line = p.stdout.readline()
            if not line:
                time.sleep(0.1)
                continue
            d = json.loads(line)
            url = d.get("metrics_url", url)
            if d.get("tick"):
                tick = d
        assert url and tick, "daemon never reported its replay tick"
        body = urllib.request.urlopen(url, timeout=10).read().decode()
    finally:
        p.kill()
        p.wait()
    assert tick["replayed_files"] == 1 and tick["applied_files"] == 0
    assert "beamium_dedup_files_applied 0" in body
    assert "beamium_dedup_files_replayed 1" in body
    assert json.load(open(state))["pending"] is None


@pytest.mark.slow
def test_dedup_watch_cli_span_output(tmp_path):
    """Span mode lands the CLEANED batch under --output/shard=<fp>/;
    a duplicate window straddling two ticks is removed in tick 2."""
    landing = tmp_path / "landing"
    landing.mkdir()
    out = str(tmp_path / "clean")
    store = str(tmp_path / "store")
    rng = np.random.default_rng(7)
    copied = rng.integers(0, 1000, 60, dtype=np.int64).tolist()

    def toks(prefix, tail):
        return pa.array([prefix + tail], pa.list_(pa.int32()))

    pq.write_table(
        pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "tokens": toks(copied, rng.integers(
                1000, 2000, 40, dtype=np.int64).tolist()),
        }),
        landing / "b1.parquet",
    )
    base = ["--input", str(landing), "--store", store, "--mode", "span",
            "--output", out, "--window", "50",
            "--scan-period", "0.1", "--num-cpus", "4"]
    lines = _run_cli([*base, "--max-ticks", "1"])
    assert lines[0]["rows_out"] == 1

    # tick 2 carries the SAME leading 60 tokens → its windows are
    # committed duplicates and get removed
    pq.write_table(
        pa.table({
            "doc_id": pa.array([2], pa.int64()),
            "tokens": toks(copied, rng.integers(
                2000, 3000, 40, dtype=np.int64).tolist()),
        }),
        landing / "b2.parquet",
    )
    lines = _run_cli([*base, "--max-ticks", "1"])
    assert lines[0]["rows_out"] == 1
    shard = lines[0]["output"]
    t = pq.read_table(
        [os.path.join(shard, f) for f in os.listdir(shard)
         if f.endswith(".parquet")]
    )
    assert t.num_rows == 1
    assert t["n_removed"][0].as_py() > 0  # the straddling copy removed
    assert len(t["tokens"][0].as_py()) < 100
