"""Watch-mode ingest facade: tick ≡ one-shot, durable seen-set,
crash-replay exactly-once (VERDICT r2 item 2)."""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pytest

from beamium_ray.config import EngineConfig
from beamium_ray.pipelines.watch import DirectoryWatcher, metrics_datapoints

US_1M = 60_000_000
T0_MS = 1_700_000_000_000  # ms epoch base for prometheus lines


def _write_spool(spool, name: str, series: str, minute0: int, n: int):
    """One .metrics file: n points of `series`, one per minute."""
    lines = []
    for i in range(n):
        ts_ms = T0_MS + (minute0 + i) * 60_000
        lines.append(f'{series}{{env="prod"}} {minute0 + i}.5 {ts_ms}')
    p = spool / f"{name}.metrics"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def _blocks_table(out_dir: str) -> list[tuple]:
    from beamium_ray.pipelines.persist import read_blocks

    t = read_blocks(out_dir, "1m")
    cols = ["series_key", "window_start", "vmin", "vmax", "vsum", "n", "last"]
    rows = list(zip(*(t[c].to_pylist() for c in cols)))
    return sorted(rows)


def test_watch_ticks_equal_one_shot(ray_session, tmp_path):
    """Drop files across several ticks; the final committed blocks must
    equal a one-shot rollup over ALL files (same merge path as the
    flagship_incremental_append oracle)."""
    spool = tmp_path / "spool"
    spool.mkdir()
    cfg = EngineConfig(num_buckets=8, tiers={"1m": US_1M})
    out_watch = str(tmp_path / "watch_out")
    w = DirectoryWatcher(str(spool), cfg, out_watch)

    # tick 0: empty spool → no-op
    r0 = w.tick()
    assert r0["run"] is None and not r0["applied"]

    fa = _write_spool(spool, "a", "seq.alpha", 0, 5)
    fb = _write_spool(spool, "b", "seq.beta", 2, 5)
    r1 = w.tick()
    assert sorted(r1["applied"]) == sorted([fa, fb])
    assert r1["run"]["counters"]["points_rolled"] == 10

    # steady state: two more files arrive (one overlaps alpha's windows
    # so the incremental merge actually merges, not just appends)
    fc = _write_spool(spool, "c", "seq.alpha", 3, 4)
    fd = _write_spool(spool, "d", "seq.gamma", 0, 3)
    r2 = w.tick()
    assert sorted(r2["applied"]) == sorted([fc, fd])

    # idle tick: nothing new
    r3 = w.tick()
    assert r3["run"] is None and not r3["applied"] and not r3["replayed"]

    # non-.metrics files are ignored (ref fs.rs:83 extension gate)
    (spool / "junk.txt").write_text("ignored 1\n")
    assert w.tick()["run"] is None

    # one-shot over all files into a fresh dir
    from beamium_ray.pipelines.persist import rollup_to_blocks

    files = sorted(glob.glob(str(spool / "*.metrics")))
    out_full = str(tmp_path / "full_out")
    dp = metrics_datapoints(files, cfg)
    rollup_to_blocks(dp, cfg, files, out_full, order_col=None)

    watch_rows = _blocks_table(out_watch)
    full_rows = _blocks_table(out_full)
    assert watch_rows == full_rows and len(watch_rows) > 0


def test_watch_tick_applies_retention(ray_session, tmp_path):
    """The daemon loop prunes per scan (ref sink.rs:102-221 runs the
    TTL/size-cap sweep on every sink pass): a later tick whose
    watermark pushes old windows past the TTL horizon evicts their
    blocks, reports the counters on the run manifest, and the
    surviving store still reads fine. Eviction is BLOCK-granular (the
    reference's file-granular DFO): the two ticks use series that hash
    to different buckets (alpha→3, gamma→1 at nb=4), because a tick
    that touches a bucket rewrites it into a fresh-watermark block."""
    spool = tmp_path / "spool"
    spool.mkdir()
    cfg = EngineConfig(
        num_buckets=4, tiers={"1m": US_1M},
        ttl_us={"1m": 30 * US_1M},  # 30-minute horizon
    )
    w = DirectoryWatcher(str(spool), cfg, str(tmp_path / "out"))

    _write_spool(spool, "old", "seq.alpha", 0, 5)  # minutes 0-4
    r1 = w.tick()
    assert r1["run"]["retention"]["blocks_ttl_evicted"] == 0
    n_old = len(_blocks_table(str(tmp_path / "out")))
    assert n_old > 0

    # minutes 100-104 on an untouched bucket: watermark jumps ~100 min
    # ahead → the first tick's windows are > 30 min old and must be
    # evicted
    _write_spool(spool, "new", "seq.gamma", 100, 5)
    r2 = w.tick()
    ret = r2["run"]["retention"]
    assert ret["blocks_ttl_evicted"] > 0
    assert ret["windows_expired"] >= 5
    rows = _blocks_table(str(tmp_path / "out"))
    assert len(rows) == 5  # only the fresh minutes survive
    t0_us = T0_MS * 1000
    # windows are epoch-minute aligned; t0 sits 20 s into its minute
    assert min(r[1] for r in rows) >= t0_us + 100 * US_1M - US_1M

    # no knobs → no retention key on the run manifest
    spool2 = tmp_path / "spool2"
    spool2.mkdir()
    w2 = DirectoryWatcher(
        str(spool2), EngineConfig(num_buckets=4, tiers={"1m": US_1M}),
        str(tmp_path / "out2"),
    )
    _write_spool(spool2, "a", "seq.alpha", 0, 2)
    assert "retention" not in w2.tick()["run"]


def test_watch_crash_replay_is_exactly_once(ray_session, tmp_path):
    """Crash after the append but BEFORE the seen-promotion: the next
    tick replays the pending batch (same fingerprint → buckets no-op)
    and totals match a clean run."""
    spool = tmp_path / "spool"
    spool.mkdir()
    cfg = EngineConfig(num_buckets=8, tiers={"1m": US_1M})
    out = str(tmp_path / "out")
    w = DirectoryWatcher(str(spool), cfg, out)

    fa = _write_spool(spool, "a", "seq.alpha", 0, 4)
    w.tick()

    # new file arrives; simulate the crash window: intent recorded,
    # append executed, promotion to 'seen' never happened
    fb = _write_spool(spool, "b", "seq.beta", 1, 4)
    st = w._load_state()
    st["pending"] = {"files": [fb]}
    w._save_state(st)
    w._append([fb])  # the work that "crashed" after completing

    res = w.tick()
    assert res["replayed"] == [fb] and res["applied"] == []
    assert res["run"]["counters"]["points_rolled"] == 8  # not 12

    # clean reference run
    from beamium_ray.pipelines.persist import rollup_to_blocks

    out2 = str(tmp_path / "out2")
    files = sorted(glob.glob(str(spool / "*.metrics")))
    rollup_to_blocks(
        metrics_datapoints(files, cfg), cfg, files, out2, order_col=None
    )
    assert _blocks_table(out) == _blocks_table(out2)

    # state survives a restart: a NEW watcher instance sees both files
    w2 = DirectoryWatcher(str(spool), cfg, out)
    assert w2.scan() == []


def test_watch_missing_pending_file_aborts(ray_session, tmp_path):
    """A pending file deleted before its batch committed must abort
    loudly (a changed batch fingerprint could double-count survivors)."""
    spool = tmp_path / "spool"
    spool.mkdir()
    cfg = EngineConfig(num_buckets=8, tiers={"1m": US_1M})
    w = DirectoryWatcher(str(spool), cfg, str(tmp_path / "out"))
    st = w._load_state()
    st["pending"] = {"files": [str(spool / "gone.metrics")]}
    w._save_state(st)
    with pytest.raises(FileNotFoundError, match="pending batch"):
        w.tick()


def test_watch_modified_pending_file_aborts(ray_session, tmp_path):
    """A pending file MODIFIED (or just touched — the fingerprint
    hashes size+mtime_ns) in the crash window must abort the replay:
    the changed fingerprint would look like a fresh batch to every
    bucket that already committed the original, double-counting its
    rows."""
    import os

    from beamium_ray.state.manifest import input_fingerprint

    spool = tmp_path / "spool"
    spool.mkdir()
    cfg = EngineConfig(num_buckets=8, tiers={"1m": US_1M})
    w = DirectoryWatcher(str(spool), cfg, str(tmp_path / "out"))

    fa = _write_spool(spool, "a", "seq.alpha", 0, 4)
    w.tick()

    # crash window: intent + append done, promotion never happened …
    fb = _write_spool(spool, "b", "seq.beta", 1, 4)
    st = w._load_state()
    st["pending"] = {"files": [fb], "fingerprint": input_fingerprint([fb])}
    w._save_state(st)
    w._append([fb])
    # … and the spool file gets touched before the restart
    os.utime(fb, ns=(1, 1))

    with pytest.raises(RuntimeError, match="fingerprint"):
        w.tick()


def test_watch_seen_prune_bounds_state(ray_session, tmp_path):
    """seen_prune=True: entries whose spool files were deleted by the
    producer drop out of the durable seen-set at the next promotion,
    bounding state by the LIVE spool; surviving files stay excluded."""
    import os

    spool = tmp_path / "spool"
    spool.mkdir()
    cfg = EngineConfig(num_buckets=4, tiers={"1m": US_1M})
    w = DirectoryWatcher(
        str(spool), cfg, str(tmp_path / "out"), seen_prune=True
    )

    fa = _write_spool(spool, "a", "seq.alpha", 0, 3)
    fb = _write_spool(spool, "b", "seq.beta", 1, 3)
    w.tick()
    assert sorted(w._load_state()["seen"]) == sorted([fa, fb])

    # producer consumed fa; the next non-empty tick prunes it
    os.remove(fa)
    fc = _write_spool(spool, "c", "seq.gamma", 2, 3)
    res = w.tick()
    assert res["applied"] == [fc]
    assert sorted(w._load_state()["seen"]) == sorted([fb, fc])
    # still-present files stay excluded from the scan
    assert w.scan() == []


def test_watch_seen_prune_tombstones_restored_file(ray_session, tmp_path):
    """A consumed+pruned spool file RESTORED byte-identically (same
    size+mtime) must NOT re-ingest (the silent double-count path);
    genuinely new content reusing the pruned path must ingest."""
    import shutil

    spool = tmp_path / "spool"
    spool.mkdir()
    stash = tmp_path / "stash"
    stash.mkdir()
    cfg = EngineConfig(num_buckets=4, tiers={"1m": US_1M})
    w = DirectoryWatcher(
        str(spool), cfg, str(tmp_path / "out"), seen_prune=True
    )

    fa = _write_spool(spool, "a", "seq.alpha", 0, 3)
    w.tick()
    # producer consumes fa (preserve metadata for the restore)
    kept = str(stash / "a.metrics")
    shutil.copy2(fa, kept)
    os.remove(fa)
    fb = _write_spool(spool, "b", "seq.beta", 1, 3)
    w.tick()  # prunes fa into a tombstone
    st = w._load_state()
    assert fa not in st["seen"] and fa in st["tombstones"]

    # restore the identical file: fingerprint matches → skipped
    shutil.copy2(kept, fa)
    res = w.tick()
    assert res["applied"] == [] and w.scan() == []
    blocks_after_restore = _blocks_table(str(tmp_path / "out"))

    # overwrite the path with NEW content (different size) → fresh input
    fa2 = _write_spool(spool, "a", "seq.alpha", 10, 4)
    assert fa2 == fa
    res = w.tick()
    assert res["applied"] == [fa]
    assert len(_blocks_table(str(tmp_path / "out"))) > len(
        blocks_after_restore
    )
    st = w._load_state()
    assert fa in st["seen"] and fa not in st["tombstones"]


def test_watch_tombstone_fingerprint_taken_at_intent(ray_session, tmp_path):
    """seen_prune records each file's fingerprint at INTENT time: a
    producer appending to a spool file while its batch is applied must
    not leave a seen/tombstone fingerprint describing content that was
    never ingested."""
    from beamium_ray.state.manifest import file_fingerprint

    spool = tmp_path / "spool"
    spool.mkdir()
    cfg = EngineConfig(num_buckets=4, tiers={"1m": US_1M})
    fa = _write_spool(spool, "a", "seq.alpha", 0, 3)
    before = file_fingerprint(fa)

    def loader(files):
        ds = metrics_datapoints(files, cfg).materialize()
        with open(fa, "a") as f:  # the producer appends mid-tick
            f.write(f'seq.alpha{{env="prod"}} 9.5 {T0_MS + 9 * 60_000}\n')
        return ds

    w = DirectoryWatcher(str(spool), cfg, str(tmp_path / "out"),
                         loader=loader, seen_prune=True)
    res = w.tick()
    assert res["run"]["counters"]["points_rolled"] == 3
    after = file_fingerprint(fa)
    assert after != before
    assert w._load_state()["seen_fp"][fa] == before


@pytest.mark.slow
def test_watch_sigkill_chaos(tmp_path):
    """Randomized process-level crash battery for the watch daemon (the
    north rule's resumability claim): SIGKILL the daemon at random
    points across progressive ticks — inside the pending window, mid
    bucket commits — restart to heal, and assert the final persisted
    store is IDENTICAL to a clean never-killed daemon over the same
    spool. The in-process tests pin each crash window separately; this
    drives the real CLI through real kills."""
    import random
    import signal
    import subprocess
    import sys
    import time as _time

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    conf = tmp_path / "conf.yaml"
    conf.write_text(
        "num_buckets: 8\ntiers:\n  1m: 60000000\n  1h: 3600000000\n"
    )

    def run_daemon(spool, out, kill_after=None, commit_delay=None):
        env = dict(os.environ, RAY_DEDUP_LOGS="0")
        if commit_delay:
            env["BEAMIUM_TEST_COMMIT_DELAY"] = str(commit_delay)
        proc = subprocess.Popen(
            [sys.executable, "-m", "beamium_ray.run_watch",
             "--input", str(spool), "--output", str(out),
             "--config", str(conf), "--scan-period", "0.1",
             "--max-ticks", "2", "--num-cpus", "4"],
            env=env, cwd=repo,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if kill_after is None:
            assert proc.wait(timeout=240) == 0
            return False
        # arm the kill once the tick is in flight: pending intent
        # written or a first bucket manifest landed
        state = os.path.join(out, "_run", "watch.json")
        mdir = os.path.join(out, "_manifests")
        deadline = _time.time() + 120
        armed = False
        while _time.time() < deadline and proc.poll() is None:
            in_flight = False
            if os.path.isdir(mdir) and os.listdir(mdir):
                in_flight = True
            elif os.path.exists(state):
                try:
                    in_flight = json.load(open(state)).get("pending") is not None
                except (json.JSONDecodeError, OSError):
                    in_flight = True  # torn mid-write: definitely in flight
            if in_flight:
                armed = True
                _time.sleep(kill_after)
                break
            _time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            return armed
        return False  # finished before the kill landed

    def blocks_key(out):
        from beamium_ray.pipelines.persist import read_blocks

        rows = []
        for tier in ("1m", "1h"):
            t = read_blocks(str(out), tier)
            cols = ["series_key", "window_start", "vmin", "vmax", "vsum",
                    "n", "last", "last_ts"]
            rows.extend(
                (tier,) + tuple(r[c] for c in cols)
                for r in t.select(cols).to_pylist()
            )
        return sorted(rows)

    rng = random.Random(0xC4A05)
    spool_k = tmp_path / "spool_k"
    spool_c = tmp_path / "spool_c"
    spool_k.mkdir(), spool_c.mkdir()
    out_k = tmp_path / "out_k"
    out_c = tmp_path / "out_c"

    kills_landed = 0
    for i in range(3):  # progressive batches: overlapping series
        for sp in (spool_k, spool_c):
            _write_spool(sp, f"f{i}", "seq.alpha", i * 2, 4)
            _write_spool(sp, f"g{i}", f"seq.b{i}", i * 3, 3)
        kills_landed += run_daemon(
            spool_k, out_k,
            kill_after=rng.uniform(0.0, 1.2), commit_delay=0.3,
        )
        run_daemon(spool_k, out_k)  # heal: replay pending + catch up
        run_daemon(spool_c, out_c)  # clean twin, never killed
    assert kills_landed >= 1, "no kill landed mid-flight; widen the window"

    st = json.load(open(out_k / "_run" / "watch.json"))
    assert st["pending"] is None and len(st["seen"]) == 6
    assert blocks_key(out_k) == blocks_key(out_c)


def test_watch_import_is_inert():
    """Importing the watcher (perfbench does) registers no signal
    handler and starts no thread or child process: the drain's handlers
    exist only while run_ticks runs."""
    import subprocess
    import sys

    code = (
        "import os, signal, threading\n"
        "before = [signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)]\n"
        "import beamium_ray.pipelines.watch\n"
        "after = [signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)]\n"
        "kids = open(f'/proc/self/task/{os.getpid()}/children').read()\n"
        "assert before == after, (before, after)\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert not kids.split(), kids\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = subprocess.run([sys.executable, "-c", code], cwd=repo,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr[-2000:]


def _descendants(pid: int) -> set[int]:
    """Every live process below ``pid`` (read from /proc)."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(d))
    out: set[int] = set()
    todo = [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


@pytest.mark.slow
@pytest.mark.parametrize("when", ["sleep", "mid-tick"])
def test_watch_sigterm_drain(ray_session, tmp_path, when):
    """SIGTERM drains the daemon (ref src/main.rs:67-77). Sent during the
    scan-period sleep or mid-tick, the current tick finishes, the sleep
    wakes at once, and the process exits 0 with its summary line: the
    batch is promoted (no pending), the store is fsck-clean, and no
    process the daemon started is left."""
    import signal
    import subprocess
    import sys
    import time as _time

    from beamium_ray.state.fsck import fsck

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spool = tmp_path / "spool"
    spool.mkdir()
    out = tmp_path / "out"
    _write_spool(spool, "a", "seq.alpha", 0, 5)
    _write_spool(spool, "b", "seq.beta", 2, 5)
    env = dict(os.environ, RAY_DEDUP_LOGS="0")
    if when == "mid-tick":
        env["BEAMIUM_TEST_COMMIT_DELAY"] = "0.5"  # hold the tick open
    proc = subprocess.Popen(
        [sys.executable, "-m", "beamium_ray.run_watch",
         "--input", str(spool), "--output", str(out),
         "--scan-period", "60", "--num-cpus", "2"],
        env=env, cwd=repo, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        if when == "sleep":
            # the first tick's line is printed just before the sleep
            assert json.loads(proc.stdout.readline())["tick"] == 1
        else:
            state = out / "_run" / "watch.json"
            deadline = _time.time() + 120
            while _time.time() < deadline:
                try:
                    if json.load(open(state)).get("pending"):
                        break
                except (OSError, json.JSONDecodeError):
                    pass
                _time.sleep(0.02)
            else:
                pytest.fail("the tick never wrote its pending intent")
        started = _descendants(proc.pid)
        assert started, "no Ray processes under the daemon"
        t0 = _time.time()
        proc.send_signal(signal.SIGTERM)
        rest, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # well inside the 60 s scan period: the sleep woke on the signal
    assert _time.time() - t0 < 45
    assert proc.returncode == 0
    lines = [json.loads(ln) for ln in rest.strip().splitlines()]
    assert lines[-1]["ticks"] == 1
    assert lines[-1]["run"]["counters"]["points_rolled"] == 10
    st = json.load(open(out / "_run" / "watch.json"))
    assert st["pending"] is None and len(st["seen"]) == 2
    assert fsck(str(out))["ok"]
    deadline = _time.time() + 30
    while _time.time() < deadline and any(_alive(p) for p in started):
        _time.sleep(0.2)
    assert not [p for p in started if _alive(p)], "processes left running"


def test_watch_hot_config_reload(ray_session, tmp_path):
    """Editing the config file between ticks re-parses it (ref
    src/main.rs:158-187): operational knobs reload in place; a SEMANTIC
    change over committed state is refused (persist.py:101 rationale);
    an unparseable config aborts the tick (main.rs:180-186); an
    untouched file never reloads."""
    spool = tmp_path / "spool"
    spool.mkdir()
    base = "num_buckets: 8\nlabels: dc=gra\ntiers:\n  1m: 60000000\n"
    conf = tmp_path / "conf.yaml"
    conf.write_text(base)
    out = str(tmp_path / "out")
    cfg = EngineConfig.from_file(str(conf))
    w = DirectoryWatcher(str(spool), cfg, out, config_path=str(conf))

    _write_spool(spool, "a", "seq.alpha", 0, 3)
    r1 = w.tick()
    assert r1["reloaded"] is False and len(r1["applied"]) == 1

    # operational edit (retention horizon): reloads and keeps ingesting
    conf.write_text(base + "ttl_us:\n  1m: 86400000000\n")
    _write_spool(spool, "b", "seq.beta", 0, 3)
    r2 = w.tick()
    assert r2["reloaded"] is True and w.reload_count == 1
    assert w.cfg.ttl_us == {"1m": 86_400_000_000}
    keys = {k for (k, *_rest) in _blocks_table(out)}
    assert any(k.startswith("seq.alpha{") for k in keys)
    assert any(k.startswith("seq.beta{") for k in keys)

    # idle tick with unchanged file: no reload
    assert w.tick()["reloaded"] is False and w.reload_count == 1

    # SEMANTIC edit (new label ⇒ new config_hash) over committed state:
    # refused with remediation, and the old config stays active
    conf.write_text(base.replace("dc=gra", "dc=rbx"))
    with pytest.raises(ValueError, match="fresh --output"):
        w.tick()
    assert w.cfg.labels == "dc=gra" and w.reload_count == 1

    # the same semantic config pointed at a FRESH store is accepted
    w2 = DirectoryWatcher(
        str(spool), cfg, str(tmp_path / "out2"), config_path=str(conf)
    )
    _write_spool(spool, "c", "seq.gamma", 0, 2)
    r3 = w2.tick()
    assert r3["reloaded"] is True and w2.cfg.labels == "dc=rbx"

    # unhealthy config aborts the tick loudly (reference abort())
    conf.write_text("tiers: [this is not a mapping\n")
    with pytest.raises(Exception):
        w2.tick()


def test_watch_cli_idle_exit(tmp_path):
    """run_watch CLI: ticks until idle-exit, prints per-tick + summary
    JSON lines, and a rerun resumes from the durable seen-set."""
    import subprocess
    import sys

    spool = tmp_path / "spool"
    spool.mkdir()
    _write_spool(spool, "a", "seq.alpha", 0, 3)
    out = str(tmp_path / "out")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))}
    cmd = [
        sys.executable, "-m", "beamium_ray.run_watch",
        "--input", str(spool), "--output", out,
        "--scan-period", "0.1", "--idle-exit", "1", "--num-cpus", "4",
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                       timeout=300)
    assert p.returncode == 0, p.stderr[-2000:]
    out_lines = [json.loads(ln) for ln in p.stdout.strip().splitlines()]
    assert out_lines[0]["applied"] == 1
    assert out_lines[-1]["run"]["counters"]["points_rolled"] == 3
    # rerun with nothing new: resumes the seen-set, applies nothing
    p2 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                        timeout=300)
    assert p2.returncode == 0, p2.stderr[-2000:]
    final = json.loads(p2.stdout.strip().splitlines()[-1])
    assert final["run"] is None  # no new data this session
