"""HTTP forwarder sink: POST Warp10 lines with exponential backoff.

Re-expresses the reference's sender loop (``src/lib/asynch/http.rs:
49-243``): a queue of sink spool files is drained into POST bodies of
at most ``batch-count`` files / ``batch-size`` bytes (the S7 chunker,
``http.rs:250-351``, defaults ``src/conf.rs:125-126``), each request
carries the sink token header (``http.rs:141``), a 2xx ack deletes the
shipped files (S8 delete-after-ack, ``http.rs:168-176,239-243``), and
a failure puts the files back and waits out an exponential backoff
(``http.rs:182-208``).

Ray-Data shape: the queue is a Dataset of POST *jobs* (one row = one
planned body), pushed through an actor-pool ``map_batches`` stage — a
persistent HTTP session and RNG live per actor (stateful stage), jobs
post in parallel across the pool, and ack/error/status counters come
back as the stage's output rows (the reference's
``beamium_push_http_status`` / ``beamium_push_errors`` series,
``http.rs:158-160,192-194``). Files are only deleted AFTER their ack,
so a crashed or killed run leaves every unacked file in place and a
rerun re-plans exactly the leftovers — at-least-once delivery, the
same contract as the reference daemon.

One deliberate divergence: the reference retries forever
(``max_elapsed_time = None``, ``http.rs:93``) because it is a daemon;
a batch job that retries forever against a dead sink never terminates,
so ``max_attempts`` (default 10) fails the job loudly with the files
intact instead. Set ``max_attempts=None`` for the daemon behavior
(watch-mode loops want it).
"""

from __future__ import annotations

import logging
import os
import random
import time
from dataclasses import dataclass, field

import pyarrow as pa


@dataclass
class BackoffPolicy:
    """Exponential backoff, reference defaults (the ``backoff`` crate's
    ``ExponentialBackoff::default()`` wired in at ``http.rs:87-93``)."""

    initial_s: float = 0.5
    max_s: float = 60.0
    multiplier: float = 1.5
    randomization: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry ``attempt`` (0-based), jittered
        ±randomization like the reference's randomization_factor.
        Clamped non-negative: a user-set randomization ≥ 1 (flows in
        unvalidated via parameters.backoff.randomization) must jitter
        down to zero, not hand ``time.sleep`` a negative number."""
        base = min(self.max_s, self.initial_s * self.multiplier**attempt)
        lo = max(0.0, base * (1.0 - self.randomization))
        hi = base * (1.0 + self.randomization)
        return rng.uniform(lo, max(lo, min(hi, self.max_s)))


@dataclass
class HttpSinkConf:
    url: str
    token: str = ""
    token_header: str = "X-Warp10-Token"  # ref conf.rs sink token-header
    batch_count: int = 250        # max files per POST (conf.rs:126)
    batch_size: int = 200_000     # max body bytes per POST (conf.rs:125)
    timeout_s: float = 30.0
    # POST concurrency: actor-pool size for the sender stage
    # (conf.rs:374-377 spawns `parallel` sender tasks per sink,
    # default 1). None = let the pool autoscale (library callers).
    parallel: int | None = None
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    max_attempts: int | None = 10  # None = retry forever (daemon mode)
    # statuses that raise IMMEDIATELY even under retry-forever: the
    # reference retries every non-2xx with loud error!/warn! logs
    # (http.rs:183,201); with max_attempts=None a provably-permanent
    # client error (bad token → 401/403, oversized body → 413) would
    # otherwise wedge the daemon at the backoff cap. Default () keeps
    # full reference parity; run_watch relay mode opts in.
    giveup_on: tuple = ()
    content_type: str = "text/plain"
    # connection reuse (ref sink keep-alive knobs, conf.rs:318-319,
    # wired into hyper's pool at http.rs:83-84)
    keep_alive: bool = True
    keep_alive_timeout_s: float = 3600.0  # conf.rs:339 default
    # arbitrary extra request headers (the scraper form is
    # conf.rs:31 applied at scraper.rs:100-105; the token header and
    # Content-Type always win on conflict)
    headers: dict = field(default_factory=dict)


class HttpSession:
    """Minimal keep-alive HTTP session over stdlib ``http.client``: one
    cached connection per (scheme, host, port), reused while keep-alive
    is on and the idle gap stays under ``keep_alive_timeout_s``; with
    keep-alive off every request sends ``Connection: close`` and tears
    the socket down (the reference manages hyper's connection pool with
    the same two knobs, ``conf.rs:318-319`` via ``http.rs:83-84``).

    A stale kept-alive socket (server closed it during the idle gap)
    fails on first reuse — that one case transparently retries on a
    fresh connection before counting as a transport failure."""

    def __init__(
        self,
        keep_alive: bool = True,
        keep_alive_timeout_s: float = 3600.0,
    ):
        self.keep_alive = keep_alive
        self.idle_s = keep_alive_timeout_s
        self._conns: dict[tuple, tuple[object, float]] = {}

    @staticmethod
    def _connect(scheme: str, host: str, port: int, timeout_s: float):
        import http.client

        cls = (
            http.client.HTTPSConnection
            if scheme == "https"
            else http.client.HTTPConnection
        )
        return cls(host, port, timeout=timeout_s)

    def request(
        self,
        method: str,
        url: str,
        body: bytes | None,
        headers: dict,
        timeout_s: float,
    ) -> tuple[int, bytes]:
        """Issue one request; returns (status, body) with status 0 on
        transport failure (connect/timeout/reset) — the same value the
        backoff loop treats as retryable."""
        import http.client
        from urllib.parse import urlsplit

        u = urlsplit(url)
        if u.scheme not in ("http", "https") or not u.hostname:
            # 'localhost:8080/api' parses as scheme='localhost',
            # hostname=None — fail with a configuration error instead
            # of a cryptic http.client crash from inside the actor
            raise ValueError(
                f"invalid sink url {url!r}: need http(s)://host[:port]/path"
            )
        port = u.port or (443 if u.scheme == "https" else 80)
        key = (u.scheme, u.hostname, port)
        path = u.path or "/"
        if u.query:
            path += "?" + u.query
        hdrs = dict(headers)
        if not self.keep_alive:
            hdrs["Connection"] = "close"
        conn, last = self._conns.pop(key, (None, 0.0))
        reused = (
            conn is not None
            and self.keep_alive
            and (time.monotonic() - last) <= self.idle_s
        )
        if conn is not None and not reused:
            try:
                conn.close()
            except Exception:
                pass
            conn = None
        while True:
            if conn is None:
                conn = self._connect(u.scheme, u.hostname, port, timeout_s)
            try:
                conn.request(method, path, body=body, headers=hdrs)
                resp = conn.getresponse()
                payload = resp.read()
                if self.keep_alive and not resp.will_close:
                    self._conns[key] = (conn, time.monotonic())
                else:
                    conn.close()
                return resp.status, payload
            except (http.client.HTTPException, OSError):
                try:
                    conn.close()
                except Exception:
                    pass
                if reused:  # stale pooled socket: one fresh-conn retry
                    conn, reused = None, False
                    continue
                return 0, b""

    def close(self):
        for conn, _ in self._conns.values():
            try:
                conn.close()
            except Exception:
                pass
        self._conns.clear()


def http_conf_from_config(sink, parameters: dict | None) -> HttpSinkConf:
    """Build an :class:`HttpSinkConf` from a ``SinkConfig`` row plus the
    config ``parameters`` map, honoring the reference's parameter
    surface and defaults (``conf.rs:120-138``): ``timeout`` (default
    500s), ``batch-size``/``batch-count``, ``backoff.{initial,max,
    multiplier,randomization}`` (defaults 500ms/1m/1.5/0.3), and the
    sink's ``keep-alive``/``keep-alive-timeout``/``headers``."""
    from beamium_ray.config import parse_duration_s

    p = dict(parameters or {})

    def get(k: str, d):
        return p.get(k, p.get(k.replace("-", "_"), d))

    bo = dict(get("backoff", {}) or {})
    backoff = BackoffPolicy(
        initial_s=parse_duration_s(bo.get("initial", "500ms")),
        max_s=parse_duration_s(bo.get("max", "1m")),
        multiplier=float(bo.get("multiplier", 1.5)),
        randomization=float(bo.get("randomization", 0.3)),
    )
    ka_timeout = getattr(sink, "keep_alive_timeout", None)
    return HttpSinkConf(
        url=sink.url,
        token=sink.token,
        token_header=sink.token_header,
        batch_count=int(get("batch-count", 250)),
        batch_size=int(get("batch-size", 200_000)),
        timeout_s=parse_duration_s(get("timeout", "500s")),
        parallel=int(getattr(sink, "parallel", 1)),
        backoff=backoff,
        keep_alive=getattr(sink, "keep_alive", True),
        keep_alive_timeout_s=(
            3600.0 if ka_timeout is None else parse_duration_s(ka_timeout)
        ),
        headers=dict(getattr(sink, "headers", None) or {}),
    )


def plan_post_batches(
    files: list[tuple[str, int]], batch_count: int, batch_size: int
) -> list[list[str]]:
    """Greedily pack (path, size) into POST jobs honoring BOTH caps —
    the reference's Body chunker closes a batch when either file count
    or byte budget is reached (``http.rs:288-295``). A single file
    larger than ``batch_size`` still ships alone (the reference streams
    it; we keep the whole-file-per-request invariant so a 2xx always
    acks whole files)."""
    jobs: list[list[str]] = []
    cur: list[str] = []
    cur_bytes = 0
    for path, size in files:
        if cur and (len(cur) >= batch_count or cur_bytes + size > batch_size):
            jobs.append(cur)
            cur, cur_bytes = [], 0
        cur.append(path)
        cur_bytes += size
    if cur:
        jobs.append(cur)
    return jobs


def _post_with_backoff(
    body: bytes, conf: HttpSinkConf, rng: random.Random, session: HttpSession
) -> tuple[int, int, list[int]]:
    """POST one body; returns (final_status, attempts, statuses). A
    non-2xx response or transport error backs off and retries
    (``http.rs:182-208``); raises after ``max_attempts`` with a
    remediation message (files stay on disk, rerun re-ships)."""
    # custom sink headers first; the token header and Content-Type
    # always win on conflict (http.rs:141 sets them last)
    headers = {
        **conf.headers,
        conf.token_header: conf.token,
        "Content-Type": conf.content_type,
    }
    attempts = 0
    statuses: list[int] = []
    while True:
        attempts += 1
        status, _ = session.request(
            "POST", conf.url, body, headers, conf.timeout_s
        )
        statuses.append(status)
        if 200 <= status < 300:
            return status, attempts, statuses
        if status in conf.giveup_on:
            raise RuntimeError(
                f"sink POST to {conf.url} got non-retryable status "
                f"{status} (attempt {attempts}) — this client error will "
                "never succeed on retry; check the sink token/URL and "
                "body-size caps. Unacked files are untouched; rerun "
                "re-ships exactly the leftovers"
            )
        if conf.max_attempts is not None and attempts >= conf.max_attempts:
            raise RuntimeError(
                f"sink POST to {conf.url} failed after {attempts} attempts "
                f"(statuses={statuses}) — unacked files are untouched; fix "
                "the sink and rerun to re-ship exactly the leftovers"
            )
        delay = conf.backoff.delay(attempts - 1, rng)
        # the reference logs every failed push + backoff (error! at
        # http.rs:183, warn! at http.rs:201); without this a
        # retry-forever daemon wedges with zero diagnostics
        logging.getLogger("beamium_ray.sink").warning(
            "sink POST to %s failed (status %s, attempt %d); backoff %.1fs",
            conf.url, status if status else "transport-error", attempts,
            delay,
        )
        time.sleep(delay)


class _SpoolPoster:
    """Actor-pool stage: one POST job row → ship files → ack stats.

    The urllib opener and jittered-backoff RNG are per-actor state
    (``__init__`` once), batches of jobs run per ``__call__``."""

    def __init__(self, conf: HttpSinkConf, delete_after_ack: bool = True):
        self.conf = conf
        self.delete = delete_after_ack
        self.session = HttpSession(conf.keep_alive, conf.keep_alive_timeout_s)
        self.rng = random.Random(0xBEA41)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = {
            "n_files": [], "n_bytes": [], "attempts": [], "status": [],
        }
        for paths in batch["paths"].to_pylist():
            # A file missing at open time means a previous attempt of
            # this task already shipped+deleted it (a retried task after
            # a partial batch) — at-least-once converges by skipping it,
            # not crashing on FileNotFoundError.
            parts: list[bytes] = []
            alive: list[str] = []
            for p in paths:
                try:
                    with open(p, "rb") as f:
                        data = f.read()
                    # line protocol: a file lacking its trailing
                    # newline (truncated/non-conforming producer) must
                    # not splice its last line into the next file's
                    # first — that corrupts BOTH datapoints and the
                    # 2xx ack then deletes them for good
                    if data and not data.endswith(b"\n"):
                        data += b"\n"
                    parts.append(data)
                    alive.append(p)
                except FileNotFoundError:
                    continue
            if not alive:  # whole job already acked by a prior attempt
                rows["n_files"].append(0)
                rows["n_bytes"].append(0)
                rows["attempts"].append(0)
                rows["status"].append(-1)  # sentinel: skipped, pre-acked
                continue
            body = b"".join(parts)
            status, attempts, _ = _post_with_backoff(
                body, self.conf, self.rng, self.session
            )
            if self.delete:  # only AFTER the 2xx ack (http.rs:168-176)
                for p in alive:
                    try:
                        os.remove(p)
                    except FileNotFoundError:
                        pass
            rows["n_files"].append(len(alive))
            rows["n_bytes"].append(len(body))
            rows["attempts"].append(attempts)
            rows["status"].append(status)
        return pa.table(
            {
                "n_files": pa.array(rows["n_files"], pa.int64()),
                "n_bytes": pa.array(rows["n_bytes"], pa.int64()),
                "attempts": pa.array(rows["attempts"], pa.int64()),
                "status": pa.array(rows["status"], pa.int64()),
            }
        )


def forward_spool(
    spool_dir: str,
    conf: HttpSinkConf,
    *,
    file_extension: str = "metrics",
    delete_after_ack: bool = True,
    concurrency: tuple[int, int] | int | None = None,
) -> dict:
    """Ship every ``*.<ext>`` file under ``spool_dir`` (recursive), S6
    end-to-end: plan POST bodies under both caps, POST each with
    backoff from an actor pool, delete acked files. Returns the summary
    counters (the reference's push metrics): files/bytes shipped,
    requests, retries, per-status counts."""
    import ray.data

    from beamium_ray.functions.cluster import autoscaling_pool
    from beamium_ray.pipelines.watch import spool_files

    found = sorted(spool_files(spool_dir, file_extension))
    files = [(p, os.path.getsize(p)) for p in found]
    jobs = plan_post_batches(files, conf.batch_count, conf.batch_size)
    if not jobs:
        return {"files": 0, "bytes": 0, "requests": 0, "retries": 0,
                "status": {}}
    ds = ray.data.from_items([{"paths": j} for j in jobs])
    stats = ds.map_batches(
        _SpoolPoster,
        fn_constructor_args=(conf, delete_after_ack),
        batch_format="pyarrow",
        batch_size=None,
        concurrency=concurrency or conf.parallel or autoscaling_pool(),
    )
    t = pa.concat_tables(
        list(stats.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    status_counts: dict[str, int] = {}
    n_posted_rows = 0
    for s in t["status"].to_pylist():
        status_counts[str(s)] = status_counts.get(str(s), 0) + 1
        if s != -1:  # -1 = job skipped (files pre-acked by an earlier try)
            n_posted_rows += 1
    n_req = int(pa.compute.sum(t["attempts"]).as_py() or 0)
    return {
        "files": int(pa.compute.sum(t["n_files"]).as_py() or 0),
        "bytes": int(pa.compute.sum(t["n_bytes"]).as_py() or 0),
        "requests": n_req,
        "retries": n_req - n_posted_rows,
        "status": status_counts,
    }


class _LinePoster:
    """Actor-pool stage: datapoint batch → Warp10 lines → chunked POSTs.

    The in-stream variant of the forwarder (no spool files): each
    incoming batch is rendered with the same line composer the parser
    round-trips through and shipped in ≤batch_size bodies. Used to
    forward a live Dataset without touching disk; delivery here is
    at-least-once per TASK (a retried map task re-posts its batch),
    which matches the reference's push-back-and-retry queue semantics."""

    def __init__(self, conf: HttpSinkConf):
        self.conf = conf
        self.session = HttpSession(conf.keep_alive, conf.keep_alive_timeout_s)
        self.rng = random.Random(0xBEA42)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from beamium_ray.stages.parse import _compose_line

        if batch.num_rows == 0:
            return pa.table(
                {"n_rows": pa.array([], pa.int64()),
                 "attempts": pa.array([], pa.int64()),
                 "status": pa.array([], pa.int64())}
            )
        val = batch["value_str"] if "value_str" in batch.column_names \
            else pa.compute.cast(batch["value"], pa.string())
        lines = _compose_line(
            batch["ts"], batch["class"], batch["labels"], val
        )
        encoded = [ln.encode() + b"\n" for ln in lines.to_pylist()]
        out = {"n_rows": [], "attempts": [], "status": []}
        # chunk at LINE boundaries under the byte cap (a split line is
        # a corrupt datapoint on the sink side; the reference's Body
        # chunker is line-granular too, http.rs:318-350)
        cur: list[bytes] = []
        cur_bytes = 0
        for ln in encoded + [None]:
            if ln is None or (cur and cur_bytes + len(ln)
                              > self.conf.batch_size):
                chunk = b"".join(cur)
                status, attempts, _ = _post_with_backoff(
                    chunk, self.conf, self.rng, self.session
                )
                out["n_rows"].append(len(cur))
                out["attempts"].append(attempts)
                out["status"].append(status)
                cur, cur_bytes = [], 0
            if ln is not None:
                cur.append(ln)
                cur_bytes += len(ln)
        return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})


def forward_dataset(
    dp_ds,
    conf: HttpSinkConf,
    *,
    concurrency: tuple[int, int] | int | None = None,
):
    """Forward a datapoint Dataset (``ts/class/labels/value[_str]``
    columns) straight to the sink URL; returns the ack-stats Dataset
    (consume it to drive the sends)."""
    from beamium_ray.functions.cluster import autoscaling_pool

    return dp_ds.map_batches(
        _LinePoster,
        fn_constructor_args=(conf,),
        batch_format="pyarrow",
        batch_size=None,
        concurrency=concurrency or conf.parallel or autoscaling_pool(),
    )


def forward_parquet_sink(path: str, conf: HttpSinkConf) -> dict:
    """Ship a routed sink's parquet directory (``write_routed`` output)
    to its HTTP target: read back only the line-composition columns,
    render Warp10 lines, POST in capped bodies. The parquet stays in
    place — it is the engine's durable sink store, not a spool (the
    spool-relay mode with delete-after-ack is :func:`forward_spool`).
    Returns summary counters like forward_spool."""
    import ray.data

    ds = ray.data.read_parquet(
        path, columns=["ts", "class", "labels", "value_str"]
    )
    stats = forward_dataset(ds, conf)
    batches = list(
        stats.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    if not batches:  # empty sink store → zero counters, not a crash
        return {"rows": 0, "requests": 0, "retries": 0, "status": {}}
    t = pa.concat_tables(batches)
    status_counts: dict[str, int] = {}
    for s in t["status"].to_pylist():
        status_counts[str(s)] = status_counts.get(str(s), 0) + 1
    n_req = int(pa.compute.sum(t["attempts"]).as_py() or 0)
    return {
        "rows": int(pa.compute.sum(t["n_rows"]).as_py() or 0),
        "requests": n_req,
        "retries": n_req - t.num_rows,
        "status": status_counts,
    }
