"""The CLIs' shared process setup: one Ray start, and one daemon shell
for the watch CLIs — their loop flags, the /metrics endpoint (the
reference daemon's self-metrics server, ``src/cmd.rs:78-106``) and the
tick loop with its SIGTERM drain (``src/main.rs:67-77``).

Every entry point gets its Ray session through :func:`ray_session` — a
guarded init, safe under ``ray job submit`` where the cluster is
already up, that shuts down only a session it started.
"""

from __future__ import annotations

import contextlib
import json


def start_ray(num_cpus: int | None = None) -> bool:
    """Start a local Ray session unless one is already up, with
    Ray Data's progress bars off (stdout carries each CLI's JSON).
    Returns whether this call started the session."""
    import ray

    started = not ray.is_initialized()
    if started:
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return started


@contextlib.contextmanager
def ray_session(num_cpus: int | None = None):
    """:func:`start_ray` for the ``with`` block; on every exit path,
    shut Ray down only if the block started it, so a CLI's ``main()``
    called in-process leaves its caller's session up."""
    import ray

    started = start_ray(num_cpus)
    try:
        yield
    finally:
        if started:
            ray.shutdown()


def serve_metrics(addr: str | None, provider, input_dir: str, ext: str):
    """Serve ``provider()``'s counters at ``http://<addr>/metrics`` (no
    server when ``addr`` is None), print the ``metrics_url`` JSON line,
    and add the reference's ``directory_files{directory}`` gauge
    (README.md:190): the ``*.<ext>`` files the watcher's scan sees,
    counted per scrape. Returns the started server or None."""
    if not addr:
        return None
    from beamium_ray.pipelines.watch import spool_files
    from beamium_ray.state.metrics_server import (
        MetricsServer,
        escape_label_value,
        with_reference_aliases,
    )

    gauge = f'directory_files{{directory="{escape_label_value(input_dir)}"}}'

    def scrape():
        vals = dict(provider())
        vals[gauge] = len(spool_files(input_dir, ext))
        return with_reference_aliases(vals)

    host, _, port = addr.partition(":")
    server = MetricsServer(scrape, host or "127.0.0.1", int(port or 0)).start()
    url = f"http://{server.host}:{server.port}/metrics"
    print(json.dumps({"metrics_url": url}), flush=True)
    return server


def add_daemon_args(ap) -> None:
    """The watch daemons' loop, Ray and /metrics flags."""
    ap.add_argument("--scan-period", type=float, default=10.0,
                    help="seconds between directory scans (ref scan-period)")
    ap.add_argument("--max-ticks", type=int, default=None)
    ap.add_argument("--idle-exit", type=int, default=None,
                    help="exit 0 after K consecutive empty scans")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--metrics-addr", default=None,
                    help="serve live /metrics at HOST:PORT while the "
                    "loop runs (ref parameters.metrics, cmd.rs:78-106)")


def run_daemon(args, tick, on_tick, provider, summary, ext: str) -> int:
    """Run a watch daemon: start Ray, serve ``provider()`` at
    ``--metrics-addr``, call ``tick()`` on the shared loop
    (:func:`~beamium_ray.pipelines.watch.run_ticks`) until
    ``--max-ticks``, ``--idle-exit`` or SIGTERM/SIGINT, close /metrics,
    print ``summary(loop result)`` as the last JSON line and return 0.
    Ray, when this call started it, is shut down on every exit path."""
    from beamium_ray.pipelines.watch import run_ticks

    with ray_session(args.num_cpus):
        server = serve_metrics(args.metrics_addr, provider, args.input, ext)
        try:
            res = run_ticks(
                tick,
                scan_period_s=args.scan_period,
                max_ticks=args.max_ticks,
                idle_exit=args.idle_exit,
                on_tick=on_tick,
            )
        finally:
            if server is not None:
                server.close()
        print(json.dumps(summary(res)))
        return 0
