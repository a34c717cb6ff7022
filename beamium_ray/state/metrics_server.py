"""Live ``/metrics`` HTTP endpoint (the reference's self-metrics
server, ``src/cmd.rs:78-106``: a 1-thread runtime serving the gathered
Prometheus registry at ``http://<addr>/metrics``).

Here the registry is a ``provider() -> dict[str, number]`` callable —
typically a closure over the watch loop's tick/reload counters plus a
:mod:`beamium_ray.state.metrics` counter-actor read — rendered in the
Prometheus text exposition format. The server is a stdlib
``ThreadingHTTPServer`` on a daemon thread: zero deps, loopback by
default, and the provider runs per scrape so the numbers are live.
Same accuracy contract as the counter actor: observability series,
at-least-once; the exact accounting is in the manifests.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping

PREFIX = "beamium"  # the reference's metric namespace (main.rs:23-37)

# Engine counter key → the reference's metric name (README.md:190-198,
# scraper.rs:36-45, sink.rs:23-40, main.rs:28-32). The engine keeps its
# own names (they describe the rollup engine's stages); these aliases
# re-emit each series under the reference daemon's name so a dashboard
# built against beamium scrapes this /metrics unchanged.
REF_ALIASES = {
    "points_rolled": "beamium_fetch_datapoints",  # datapoints ingested
    "windows": "beamium_push_datapoints",  # datapoints written out
    "retries": "beamium_push_errors",  # each retry follows a failed push
    "blocks_ttl_evicted": "beamium_skip_ttl",
    "blocks_size_evicted": "beamium_skip_max_size",
    "fetch_errors": "beamium_fetch_errors",
}

# Reference metric names that are gauges, not counters (README.md:190).
GAUGES = {"beamium_directory_files"}


def with_reference_aliases(
    values: Mapping[str, float],
) -> dict[str, float]:
    """Return ``values`` plus a duplicate series under the reference's
    metric name for every engine key in :data:`REF_ALIASES`. Label
    suffixes (``{k="v"}``) are preserved; existing reference-named keys
    are never clobbered."""
    out = dict(values)
    for key, v in values.items():
        base, brace, rest = key.partition("{")
        ref = REF_ALIASES.get(base)
        if ref is not None:
            ref_key = f"{ref}{brace}{rest}"
            out.setdefault(ref_key, v)
    return out


def escape_label_value(v: str) -> str:
    """Escape a label value for the text exposition format: backslash,
    double quote and newline."""
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(values: Mapping[str, float]) -> str:
    """Render counters in the text exposition format. Keys may carry
    labels already (``name{k="v"}``); invalid chars in bare names are
    sanitized to '_'."""
    out = []
    typed: set[str] = set()  # one TYPE line per base name — labeled keys
    # sharing a name would otherwise emit duplicates, which strict
    # parsers (promtool/OpenMetrics) reject
    for key in sorted(values):
        v = values[key]
        name, brace, rest = key.partition("{")
        name = "".join(
            c if (c.isalnum() or c in "_:") else "_" for c in name
        )
        if not name.startswith(PREFIX):
            name = f"{PREFIX}_{name}"
        if name not in typed:
            typed.add(name)
            kind = "gauge" if name in GAUGES else "counter"
            out.append(f"# TYPE {name} {kind}")
        out.append(f"{name}{brace}{rest} {float(v):g}")
    return "\n".join(out) + "\n"


class MetricsServer:
    """``MetricsServer(provider, port=0).start()`` → scrape
    ``http://127.0.0.1:<srv.port>/metrics``; ``close()`` to stop.

    ``port=0`` binds an ephemeral port (tests); the watch CLI passes
    the reference's configured ``parameters.metrics`` address."""

    def __init__(
        self,
        provider: Callable[[], Mapping[str, float]],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.provider = provider
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib API name)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                try:
                    body = render_prometheus(outer.provider()).encode()
                except Exception as e:  # provider failure ≠ server death
                    self.send_error(500, explain=str(e))
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):  # quiet: metrics scrapes spam
                pass

        self._srv = ThreadingHTTPServer((host, port), Handler)
        self._srv.daemon_threads = True
        self.host = host
        self.port = self._srv.server_address[1]
        self._thread: threading.Thread | None = None

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._srv.serve_forever, name="metrics-", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._srv.shutdown()
        self._srv.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
