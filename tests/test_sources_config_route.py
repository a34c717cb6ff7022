"""Text-line sources, YAML config surface, router multicast writes,
and true SIGKILL crash-resume."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from beamium_ray import oracle
from beamium_ray.config import EngineConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_read_metric_lines_and_parse(ray_session, tmp_path):
    from beamium_ray.pipelines.multi import scraper_pipeline
    from beamium_ray.sources.lines import read_metric_lines

    d = tmp_path / "src"
    d.mkdir()
    (d / "a-1.metrics").write_text(
        'f{job_id="123"} 10 1484828198557\n# comment\nf{} +Inf\nbare_metric 7\n'
    )
    (d / "b-2.metrics").write_text('g{x="1 3"} 2.5\n')
    (d / "ignored.txt").write_text("not_scanned 1\n")

    ds = read_metric_lines(str(d))
    parsed = scraper_pipeline(ds, EngineConfig(), now_us=99)
    lines = sorted(r["line"] for r in parsed.take_all())
    want = sorted(
        [
            oracle.format_prometheus('f{job_id="123"} 10 1484828198557', 99),
            oracle.format_prometheus("bare_metric 7", 99),
            oracle.format_prometheus('g{x="1 3"} 2.5', 99),
        ]
    )
    assert lines == want  # comments/Inf dropped, .txt not scanned

    # sensision lines are trimmed before the Warp10 decode
    w = tmp_path / "warp"
    w.mkdir()
    (w / "c-3.metrics").write_text("  1// a{k=v} 2 \t\n")
    sens = scraper_pipeline(
        read_metric_lines(str(w)), EngineConfig(format="sensision")
    ).take_all()
    assert [r["line"] for r in sens] == ["1// a{k=v} 2"]
    assert all("\n" not in r["line"] for r in sens)


def test_config_from_yaml_and_env_labels(tmp_path):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(
        json.dumps(
            {
                "labels": {"host": "env:TEST_HOSTNAME", "dc": "gra"},
                "filtered_labels": ["secret"],
                "num_buckets": 32,
                "ignored_unknown_key": 1,
            }
        )
    )
    env = {"TEST_HOSTNAME": "node-7", "BEAMIUM_LABEL_RACK": "r12"}
    cfg = EngineConfig.from_yaml(str(cfgfile), env=env)
    assert cfg.labels == "host=node-7,dc=gra,rack=r12"
    assert cfg.filtered_labels == ["secret"]
    assert cfg.num_buckets == 32
    # ref conf.rs:595-600: unset env:VAR removes the label (warn, not error)
    gone = EngineConfig.from_dict(
        {"labels": {"h": "env:UNSET_VAR_X", "keep": "1"}}, env={}
    )
    assert gone.labels == "keep=1"
    # string-form labels resolve env: too, and malformed items survive
    cfg2 = EngineConfig.from_dict(
        {"labels": "host=env:TEST_HOSTNAME,debug,dc=gra"},
        env={"TEST_HOSTNAME": "n1"},
    )
    assert cfg2.labels == "host=n1,debug,dc=gra"


def test_config_per_scraper_env_labels():
    """BEAMIUM_<NAME>_LABEL_* (name uppercased, '-'→'_') applies only to
    the named scraper, AFTER the global form, overriding same keys
    (ref src/conf.rs:246-265)."""
    env = {
        "BEAMIUM_LABEL_DC": "global-dc",
        "BEAMIUM_WEB_FRONT_LABEL_DC": "scraper-dc",
        "BEAMIUM_WEB_FRONT_LABEL_TEAM": "web",
        "BEAMIUM_OTHER_LABEL_TEAM": "other",
    }
    scoped = EngineConfig.from_dict(
        {"name": "web-front", "labels": {"env": "prod"}}, env=env
    )
    # global dc applied then overridden by the scraper-scoped value;
    # other scrapers' vars ignored
    assert scoped.labels == "env=prod,dc=scraper-dc,team=web"
    unscoped = EngineConfig.from_dict({"labels": {"env": "prod"}}, env=env)
    assert unscoped.labels == "env=prod,dc=global-dc"
    # env-label overriding a config-file label happens in place
    override = EngineConfig.from_dict(
        {"name": "web-front", "labels": {"dc": "from-file", "env": "prod"}},
        env=env,
    )
    assert override.labels == "dc=scraper-dc,env=prod,team=web"


def test_route_sinks_multicast_and_write(ray_session, tmp_path):
    import ray.data

    from beamium_ray.pipelines.route import route_sinks, write_routed

    t = pa.table(
        {
            "ts": pa.array([1, 2, 3], pa.int64()),
            "class": pa.array(["evt.click", "evt.view", "other.x"]),
            "labels": pa.array(["a=1", "a=2", "a=3"]),
            "value_str": pa.array(["1", "2", "3"]),
            "value": pa.array([1.0, 2.0, 3.0]),
        }
    )
    dp = ray.data.from_arrow(t)
    sinks = {"clicks": r"evt\.click", "all_evt": r"evt\.", "everything": None}
    branches = route_sinks(dp, sinks, global_labels="dc=gra")
    assert branches["clicks"].count() == 1
    assert branches["all_evt"].count() == 2
    assert branches["everything"].count() == 3
    # global labels prepended on every branch (router P9)
    row = branches["clicks"].take_all()[0]
    assert row["labels"] == "dc=gra,a=1"

    out = tmp_path / "routed"
    paths = write_routed(dp, str(out), sinks, global_labels="dc=gra")
    back = pq.read_table(paths["all_evt"])
    assert back.num_rows == 2
    assert set(back["class"].to_pylist()) == {"evt.click", "evt.view"}


@pytest.mark.slow
def test_sigkill_resume(tmp_path):
    """Kill a persisting run mid-flight (FIXTURES.md §3 resume): rerun
    must keep committed buckets and produce identical final content."""
    out = str(tmp_path / "run")
    clean = str(tmp_path / "clean")
    env = dict(
        os.environ,
        BEAMIUM_TEST_COMMIT_DELAY="0.4",
        RAY_DEDUP_LOGS="0",
    )
    proc = subprocess.Popen(
        [sys.executable, os.path.join(REPO, "tools", "run_persist.py"), out],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    mdir = os.path.join(out, "_manifests")
    deadline = time.time() + 120
    while time.time() < deadline:
        n = len(os.listdir(mdir)) if os.path.isdir(mdir) else 0
        if 1 <= n <= 12:
            break
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    committed_before = sorted(os.listdir(mdir)) if os.path.isdir(mdir) else []
    assert committed_before, "no bucket committed before the kill"
    mtimes = {
        f: os.path.getmtime(os.path.join(mdir, f)) for f in committed_before
    }

    env2 = dict(os.environ)
    env2.pop("BEAMIUM_TEST_COMMIT_DELAY", None)
    r2 = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "run_persist.py"), out],
        env=env2,
        capture_output=True,
        text=True,
        check=True,
    )
    run2 = json.loads(r2.stdout.strip().splitlines()[-1])
    # every NON-EMPTY bucket commits (a bucket owning no series never
    # reaches the merge stage and legitimately has no manifest)
    assert len(run2["buckets_committed"]) >= 15
    # buckets committed before the kill were NOT re-rolled
    for f, m in mtimes.items():
        try:
            json.load(open(os.path.join(mdir, f)))
        except json.JSONDecodeError:
            continue  # torn manifest: legitimately rewritten
        assert os.path.getmtime(os.path.join(mdir, f)) == m, f

    # content identical to a clean run
    r3 = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "run_persist.py"), clean],
        env=env2,
        capture_output=True,
        text=True,
        check=True,
    )
    run3 = json.loads(r3.stdout.strip().splitlines()[-1])
    assert run2["counters"] == run3["counters"]
    assert run2["watermark"] == run3["watermark"]

    sys.path.insert(0, REPO)
    from beamium_ray.pipelines.persist import read_blocks

    a = read_blocks(out, "1m").sort_by(
        [("series_key", "ascending"), ("window_start", "ascending")]
    )
    b = read_blocks(clean, "1m").sort_by(
        [("series_key", "ascending"), ("window_start", "ascending")]
    )
    assert a.num_rows == b.num_rows
    for col in ["series_key", "window_start", "vmin", "vmax", "n", "last"]:
        assert a[col].to_pylist() == b[col].to_pylist(), col
    shutil.rmtree(out, ignore_errors=True)


def test_config_toml_and_ini(tmp_path):
    """TOML and INI configs load with typed fields (ref conf.rs:101-184
    accepts YAML/JSON/TOML/INI through the config crate)."""
    t = tmp_path / "c.toml"
    t.write_text(
        'name = "web"\nnum_buckets = 16\ngapfill = false\n'
        'filtered_labels = ["secret"]\n[labels]\ndc = "gra"\n'
    )
    cfg = EngineConfig.from_file(str(t), env={})
    assert (cfg.name, cfg.num_buckets, cfg.gapfill) == ("web", 16, False)
    assert cfg.labels == "dc=gra" and cfg.filtered_labels == ["secret"]

    i = tmp_path / "c.ini"
    i.write_text(
        "[scraper]\nname = web\nnum_buckets = 16\ngapfill = false\n"
        "filtered_labels = secret, internal\n[labels]\ndc = gra\n"
    )
    cfg2 = EngineConfig.from_file(str(i), env={})
    assert (cfg2.name, cfg2.num_buckets, cfg2.gapfill) == ("web", 16, False)
    assert cfg2.labels == "dc=gra"
    assert cfg2.filtered_labels == ["secret", "internal"]


def test_multi_scraper_multi_sink_topology(ray_session, tmp_path):
    """The reference's full wiring: two named scrapers (one Prometheus,
    one Sensision) with scraper-SCOPED env labels, one router with
    global labels, two sinks with selectors (multicast)."""
    import ray.data

    from beamium_ray.config import BeamiumConfig
    from beamium_ray.pipelines.multi import run_beamium_config

    cfg = BeamiumConfig.from_dict(
        {
            "scrapers": {
                "web-front": {
                    "format": "prometheus",
                    "labels": {"tier": "front"},
                },
                "warp-agent": {"format": "sensision"},
            },
            "sinks": {
                "clicks": {"selector": r"evt\.click"},
                "all": {},
            },
            "labels": {"dc": "gra1"},
        },
        env={"BEAMIUM_WEB_FRONT_LABEL_POOL": "p1"},
    )
    # scraper-scoped env label landed only on web-front
    assert cfg.scrapers["web-front"].labels == "tier=front,pool=p1"
    assert cfg.scrapers["warp-agent"].labels == ""
    assert cfg.labels == "dc=gra1"

    prom = ray.data.from_arrow(
        pa.table(
            {
                "line": pa.array(
                    [
                        'evt.click{user="1"} 5 1000',
                        'evt.view{user="2"} 6 2000',
                    ]
                )
            }
        )
    )
    sens = ray.data.from_arrow(
        pa.table(
            {
                "line": pa.array(
                    ["3000000// evt.click{user=3} 7", "=3000001// 8"]
                )
            }
        )
    )
    out = tmp_path / "sinks"
    paths = run_beamium_config(
        cfg, {"web-front": prom, "warp-agent": sens}, str(out)
    )
    clicks = pq.read_table(paths["clicks"])
    everything = pq.read_table(paths["all"])
    # clicks sink: the prometheus click + the sensision click + its
    # continuation (inherited class) = 3 rows; 'all' gets all 4
    assert clicks.num_rows == 3
    assert everything.num_rows == 4
    # global label prepended everywhere; scraper label only on web-front
    labs = sorted(clicks["labels"].to_pylist())
    assert labs == [
        "dc=gra1,tier=front,pool=p1,user=1",
        "dc=gra1,user=3",
        "dc=gra1,user=3",
    ]


def test_multi_sink_dir_and_ttl(ray_session, tmp_path):
    """Per-sink knobs: `dir` overrides the output path; `ttl_us` drops
    datapoints older than max-ts − ttl (the DFO age bound analog);
    `max_bytes` is rejected (no batch analog). Global BEAMIUM_LABEL_*
    env labels land on the ROUTER only — never doubled per scraper."""
    import ray.data

    from beamium_ray.config import BeamiumConfig
    from beamium_ray.pipelines.multi import run_beamium_config

    cfg = BeamiumConfig.from_dict(
        {
            "scrapers": {"s1": {"format": "prometheus"}},
            "sinks": {
                "fresh": {"ttl_us": 1_000_000},
                "archive": {"dir": str(tmp_path / "custom" / "archive")},
            },
        },
        env={"BEAMIUM_LABEL_DC": "gra1"},
    )
    assert cfg.scrapers["s1"].labels == ""  # global env label NOT doubled
    assert cfg.labels == "dc=gra1"
    lines = ray.data.from_arrow(
        pa.table(
            {
                "line": pa.array(
                    [
                        'm.old{a="1"} 1 1000',      # ts = 1_000_000 µs
                        'm.new{a="2"} 2 5000',      # ts = 5_000_000 µs (max)
                    ]
                )
            }
        )
    )
    paths = run_beamium_config(cfg, {"s1": lines}, str(tmp_path / "out"))
    fresh = pq.read_table(paths["fresh"])
    # cutoff = 5_000_000 - 1_000_000 → only the newer point survives
    assert fresh["class"].to_pylist() == ["m.new"]
    assert fresh["labels"].to_pylist() == ["dc=gra1,a=2"]
    archive = pq.read_table(paths["archive"])
    assert paths["archive"] == str(tmp_path / "custom" / "archive")
    assert archive.num_rows == 2

    import pytest as _pytest

    bad = BeamiumConfig.from_dict(
        {"scrapers": {"s1": {}}, "sinks": {"x": {"max_bytes": 10}}}, env={}
    )
    with _pytest.raises(ValueError, match="max_bytes"):
        run_beamium_config(bad, {"s1": lines}, str(tmp_path / "out2"))


def test_check_mode_validates_without_ray(tmp_path, capsys):
    """`--check` (the reference's `-t`, src/cmd.rs:40-42): parse +
    validate the config and exit 0/1 with a clear message, never
    touching Ray. Regexes are compiled through the SAME engine the
    filter stages use (Arrow/re2), so what check accepts, run accepts."""
    from beamium_ray import run as run_mod
    from beamium_ray import run_multi as run_multi_mod

    good = tmp_path / "good.yaml"
    good.write_text("format: sensision\nmetrics_whitelist: ['^seq[.]']\n")
    assert run_mod.main(["--check", "--config", str(good)]) == 0
    assert "configuration is healthy" in capsys.readouterr().out

    # a file that still sets the deleted target_rows_per_block loads:
    # unknown keys are dropped
    legacy = tmp_path / "legacy.yaml"
    legacy.write_text("labels: dc=gra\ntarget_rows_per_block: 500000\n")
    assert EngineConfig.from_file(str(legacy)).labels == "dc=gra"
    assert run_mod.main(["--check", "--config", str(legacy)]) == 0
    assert "configuration is healthy" in capsys.readouterr().out

    # invalid regex (re2 rejects backreferences that Python re accepts)
    bad = tmp_path / "bad.yaml"
    bad.write_text("metrics_whitelist: ['(a)\\1']\n")
    assert run_mod.main(["--check", "--config", str(bad)]) == 1
    assert "invalid regex" in capsys.readouterr().err

    # semantic errors: unknown format, bad tier, unknown ttl tier
    bad2 = tmp_path / "bad2.yaml"
    bad2.write_text(
        "format: graphite\ntiers: {1m: -5}\nttl_us: {7d: 100}\n"
    )
    assert run_mod.main(["--check", "--config", str(bad2)]) == 1
    err = capsys.readouterr().err
    assert "format" in err and "tier" in err and "7d" in err

    # nonexistent input path is a check error too
    assert (
        run_mod.main(
            ["--check", "--config", str(good), "--input", "/nope/missing"]
        )
        == 1
    )
    assert "does not exist" in capsys.readouterr().err

    # multi topology: healthy config needs scrapers with existing inputs
    spool = tmp_path / "spool"
    spool.mkdir()
    mt = tmp_path / "multi.yaml"
    mt.write_text(
        "scrapers:\n  s1:\n    format: prometheus\n    input: %s\n"
        "sinks:\n  all: {}\n" % spool
    )
    assert run_multi_mod.main(["--check", "--config", str(mt)]) == 0
    assert "configuration is healthy" in capsys.readouterr().out

    # bad sink selector + missing input dir + sink max_bytes
    mt_bad = tmp_path / "multi_bad.yaml"
    mt_bad.write_text(
        "scrapers:\n  s1:\n    input: /nope/spool\n"
        "sinks:\n  x:\n    selector: '([unclosed'\n    max_bytes: 5\n"
    )
    assert run_multi_mod.main(["--check", "--config", str(mt_bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid regex" in err and "input dir" in err and "max_bytes" in err

    # no scrapers at all
    mt_empty = tmp_path / "multi_empty.yaml"
    mt_empty.write_text("sinks: {}\n")
    assert run_multi_mod.main(["--check", "--config", str(mt_empty)]) == 1
    assert "no scrapers" in capsys.readouterr().err


def test_check_mode_validates_forwarder_knobs(tmp_path, capsys):
    """-t catches bad durations/backoff in the forwarder parameter
    surface (conf.rs:120-138) and bad sink keep-alive knobs, and
    accepts a url-scraper with headers (conf.rs:27-31)."""
    from beamium_ray import run_multi as run_multi_mod

    spool = tmp_path / "sp"
    spool.mkdir()
    good = tmp_path / "g.yaml"
    good.write_text(
        "scrapers:\n"
        "  s1:\n"
        "    url: http://127.0.0.1:1/metrics\n"
        "    headers: {X-A: '1'}\n"
        "    period: 10s\n"
        "sinks:\n"
        "  w:\n"
        "    keep-alive: false\n"
        "    keep-alive-timeout: 2s\n"
        "    headers: {X-B: '2'}\n"
        "parameters:\n"
        "  timeout: 5s\n"
        "  backoff: {initial: 10ms, max: 1s, multiplier: 2.0}\n"
    )
    assert run_multi_mod.main(["--check", "--config", str(good)]) == 0
    assert "configuration is healthy" in capsys.readouterr().out

    bad = tmp_path / "b.yaml"
    bad.write_text(
        "scrapers:\n"
        f"  s1: {{input: {spool}, period: bogus}}\n"
        "sinks:\n"
        "  w: {keep-alive-timeout: nope}\n"
        "parameters:\n"
        "  timeout: huh\n"
        "  backoff: {initial: '-3x', multiplier: many}\n"
    )
    assert run_multi_mod.main(["--check", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "period" in err and "keep-alive-timeout" in err
    assert "parameters.timeout" in err and "backoff" in err


def test_logging_parameters(tmp_path, capsys):
    """parameters.log-file / log-level / -v: console gates at
    log-level+verbose, the file at log-level (conf.rs:78-82, log.rs)."""
    import logging
    import os

    from beamium_ray.state.logsetup import initialize_logging

    logf = tmp_path / "logs" / "b.log"
    g = initialize_logging(
        {"log-file": str(logf), "log-level": 3}, verbose=1
    )
    try:
        lg = logging.getLogger("beamium_ray.test")
        lg.warning("warn-line")
        lg.info("info-line")      # console yes (3+1=info), file no
        lg.debug("debug-line")    # neither
        for h in g.handlers:
            h.flush()
        body = logf.read_text()
        assert "warn-line" in body
        assert "info-line" not in body and "debug-line" not in body
        # parent dir auto-created, file mode 0o640 (log.rs:34-42,53)
        assert (os.stat(logf).st_mode & 0o777) == 0o640
    finally:
        g.close()

    # syslog without /dev/log errors loudly like the reference
    if not os.path.exists("/dev/log"):
        import pytest

        with pytest.raises(ValueError, match="syslog"):
            initialize_logging(
                {"log-file": str(tmp_path / "x.log"), "syslog": True}
            )


def test_check_mode_rejects_non_mapping_headers(tmp_path, capsys):
    """A headers TYPO (scalar or list instead of a mapping) must come
    back as a -t validation message, not a Python traceback."""
    from beamium_ray import run_multi as run_multi_mod

    spool = tmp_path / "sp"
    spool.mkdir()
    bad = tmp_path / "b.yaml"
    bad.write_text(
        "scrapers:\n"
        "  s1:\n"
        "    url: http://127.0.0.1:1/metrics\n"
        "    headers: oops\n"
        "sinks:\n"
        "  w:\n"
        "    headers: [a, b]\n"
    )
    assert run_multi_mod.main(["--check", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("headers must map string names to string values") == 2


def test_sink_parallel_wired_into_forwarder_conf():
    """SinkConfig.parallel (conf.rs:374-377) reaches HttpSinkConf and
    the sender-pool sizing — not a silent no-op."""
    from beamium_ray.config import SinkConfig
    from beamium_ray.sinks.http_forward import http_conf_from_config

    sk = SinkConfig(url="http://h:1/api", parallel=7)
    conf = http_conf_from_config(sk, {})
    assert conf.parallel == 7
    # default stays at the reference's 1 sender per sink
    assert http_conf_from_config(SinkConfig(url="http://h:1/"), {}).parallel == 1
