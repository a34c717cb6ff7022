"""Live /metrics endpoint (ref cmd.rs:78-106): exposition format,
live provider values, 404/500 paths, watch-CLI integration."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from beamium_ray.state.metrics_server import (
    MetricsServer,
    render_prometheus,
    with_reference_aliases,
)


def test_render_prometheus_format():
    txt = render_prometheus({
        "watch_ticks": 3,
        "beamium_reload_count": 1,
        "push_http_status{sink=\"w10\",status=\"200\"}": 7,
        "bad name!": 2.5,
    })
    assert '# TYPE beamium_watch_ticks counter\nbeamium_watch_ticks 3' in txt
    assert "beamium_reload_count 1" in txt  # prefix not doubled
    assert 'beamium_push_http_status{sink="w10",status="200"} 7' in txt
    assert "beamium_bad_name_ 2.5" in txt


def test_reference_aliases_and_gauge_type():
    """Engine counters re-emit under the reference daemon's metric
    names (README.md:190-198) without dropping the engine series, and
    beamium_directory_files is typed as a gauge."""
    vals = with_reference_aliases({
        "points_rolled": 12,
        "windows": 4,
        'retries{sink="w10"}': 2,
        "blocks_ttl_evicted": 1,
        "blocks_size_evicted": 3,
        "beamium_fetch_datapoints": 99,  # pre-existing ref name wins
    })
    assert vals["beamium_fetch_datapoints"] == 99  # setdefault, no clobber
    assert vals["beamium_push_datapoints"] == 4
    assert vals['beamium_push_errors{sink="w10"}'] == 2
    assert vals["beamium_skip_ttl"] == 1
    assert vals["beamium_skip_max_size"] == 3
    assert vals["points_rolled"] == 12  # engine series kept
    txt = render_prometheus({
        'directory_files{directory="/spool"}': 7, "windows": 4,
    })
    assert "# TYPE beamium_directory_files gauge" in txt
    assert 'beamium_directory_files{directory="/spool"} 7' in txt
    assert "# TYPE beamium_windows counter" in txt


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=10) as r:
        return r.status, r.read().decode()


def test_metrics_server_serves_live_values():
    state = {"ticks": 0}
    with MetricsServer(lambda: {"watch_ticks": state["ticks"]}) as srv:
        base = f"http://{srv.host}:{srv.port}"
        code, body = _get(f"{base}/metrics")
        assert code == 200 and "beamium_watch_ticks 0" in body
        state["ticks"] = 5  # provider runs per scrape → live
        assert "beamium_watch_ticks 5" in _get(f"{base}/metrics")[1]
        with pytest.raises(urllib.error.HTTPError) as e:
            _get(f"{base}/other")
        assert e.value.code == 404
    # closed: connection refused
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(f"{base}/metrics", timeout=2)


def test_metrics_server_provider_failure_is_500():
    def boom():
        raise RuntimeError("registry gone")

    with MetricsServer(boom) as srv:
        with pytest.raises(urllib.error.HTTPError) as e:
            _get(f"http://{srv.host}:{srv.port}/metrics")
        assert e.value.code == 500


def test_watch_cli_serves_metrics(tmp_path):
    """run_watch --metrics-addr: scrape tick/reload counters while the
    loop runs (the reference daemon's parameters.metrics surface)."""
    import os
    import subprocess
    import sys
    import time

    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "a.metrics").write_text(
        'seq.m{env="prod"} 1.5 1700000000000\n')
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))}
    p = subprocess.Popen(
        [sys.executable, "-m", "beamium_ray.run_watch",
         "--input", str(spool), "--output", str(tmp_path / "out"),
         "--scan-period", "0.3", "--max-ticks", "60",
         "--num-cpus", "4", "--metrics-addr", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        first = json.loads(p.stdout.readline())
        url = first["metrics_url"]
        deadline = time.monotonic() + 120
        body = ""
        while time.monotonic() < deadline:
            try:
                body = _get(url)[1]
                if "beamium_points_rolled 1" in body:
                    break
            except OSError:
                pass
            time.sleep(0.5)
        assert "beamium_watch_ticks" in body
        assert "beamium_points_rolled 1" in body  # first file folded in
        assert "beamium_reload_count 0" in body
        # reference-name parity (README.md:190-198): the same series
        # under the daemon's metric names, live from the same provider
        assert "beamium_fetch_datapoints 1" in body
        assert "beamium_push_datapoints" in body
        assert "# TYPE beamium_directory_files gauge" in body
        assert 'beamium_directory_files{directory="' in body
    finally:
        p.terminate()
        p.wait(timeout=60)


def test_label_value_escaping(tmp_path):
    r"""A spool path containing '"' and '\' still yields a valid
    directory_files line: the label value is escaped, and unescaping
    it gives the path back."""
    import os
    import re
    import subprocess
    import sys
    import time

    from beamium_ray.state.metrics_server import escape_label_value

    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    spool = tmp_path / 'sp"o\\ol'
    spool.mkdir()
    (spool / "a.metrics").write_text(
        'seq.m{env="prod"} 1.5 1700000000000\n')
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))}
    p = subprocess.Popen(
        [sys.executable, "-m", "beamium_ray.run_watch",
         "--input", str(spool), "--output", str(tmp_path / "out"),
         "--scan-period", "0.3", "--max-ticks", "60",
         "--num-cpus", "4", "--metrics-addr", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        url = json.loads(p.stdout.readline())["metrics_url"]
        deadline = time.monotonic() + 120
        lines: list[str] = []
        while time.monotonic() < deadline and not lines:
            try:
                body = _get(url)[1]
                lines = [ln for ln in body.splitlines()
                         if ln.startswith("beamium_directory_files{")]
            except OSError:
                pass
            time.sleep(0.5)
    finally:
        p.terminate()
        p.wait(timeout=60)
    assert len(lines) == 1, lines
    m = re.fullmatch(r'beamium_directory_files\{directory="((?:[^"\\\n]|\\.)*)"\} 1',
                     lines[0])
    assert m, lines[0]
    unescaped = re.sub(r"\\(.)", lambda g: {"n": "\n"}.get(g[1], g[1]), m[1])
    assert unescaped == str(spool)
