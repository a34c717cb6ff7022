"""Typed engine configuration (the reference's YAML config surface,
re-expressed for batch jobs — SURVEY.md §2.6).

The reference merges scraper/sink/parameters config from YAML/JSON/TOML
(ref ``src/conf.rs:101-184``); hot-reload is out of scope for a batch
engine — the config is stamped (hashed) into every run manifest instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

# retention tiers: name → window width in µs (the engine's analog of
# beamium's sink routing; SURVEY.md §2.4)
DEFAULT_TIERS: dict[str, int] = {
    "1m": 60_000_000,
    "1h": 3_600_000_000,
    "1d": 86_400_000_000,
}

_DURATION_UNITS_S = {
    "ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3,
    "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0,
}


def parse_duration_s(value) -> float:
    """Humanized duration → seconds, the reference's config form
    (``humantime``-style strings parsed at ``conf.rs:130,338-342``:
    ``"500ms"``, ``"1m"``, ``"500s"``, compounds like ``"1m30s"``).
    Bare numbers (int/float or digit strings) are seconds."""
    if isinstance(value, (int, float)):
        return float(value)
    s = str(value).strip().replace(" ", "")
    if not s:
        raise ValueError("empty duration")
    try:
        return float(s)
    except ValueError:
        pass
    import re as _re

    total = 0.0
    pos = 0
    for m in _re.finditer(r"(\d+(?:\.\d+)?)(ns|us|µs|ms|s|m|h|d)", s):
        if m.start() != pos:
            break
        total += float(m.group(1)) * _DURATION_UNITS_S[m.group(2)]
        pos = m.end()
    if pos != len(s) or pos == 0:
        raise ValueError(f"could not parse duration {value!r}")
    return total


@dataclass
class EngineConfig:
    # scraper identity (keys the BEAMIUM_<NAME>_LABEL_* env form,
    # ref src/conf.rs:246-265)
    name: str = ""
    # parse / relabel (reference scraper config, src/conf.rs:209-265)
    format: str = "prometheus"  # or "sensision"
    metrics_whitelist: list[str] = field(default_factory=list)  # P5 patterns
    labels: str = ""  # static labels to add, "k=v,k=v" (P6)
    filtered_labels: list[str] = field(default_factory=list)  # keys to drop (P7)

    # live scrape endpoint (reference RawScraper url/period/headers,
    # src/conf.rs:27-31; headers applied on the GET, scraper.rs:100-105).
    # A scraper with `url` set is fetched by sources/scrape.py; batch
    # runs that read a spool dir leave these unset.
    url: str | None = None
    period: str | float | None = None  # scrape interval ("10s", 10)
    headers: dict = field(default_factory=dict)  # extra GET headers

    # routing (reference sink selectors, src/conf.rs:329-336)
    selector: str | None = None  # anchored-^ class-token regex, None = all

    # rollup
    tiers: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_TIERS))
    num_buckets: int = 64  # series_key hash buckets (the one shuffle)
    shuffle_blocks: int | None = None  # coalesce partials pre-shuffle (None: CPUs)
    gapfill: bool = True
    gapfill_max_gap: int | None = None  # longest hole (windows) to fill

    # retention (reference DFO bounds, src/sink.rs:102-221)
    ttl_us: dict[str, int] = field(default_factory=dict)  # per-tier horizon
    max_bytes: int | None = None  # size cap across blocks (oldest evicted)

    # io
    output_dir: str = "/tmp/beamium_ray_out"
    # block codecs: "bytes" (byte-granular suppression, default) or
    # "bits" (paper-granularity bit packing; ~10-30% smaller float
    # streams, up to 4× smaller DoD timestamp streams on regular
    # windows); blocks self-describe, so mixed-codec outputs read fine
    float_codec: str = "bytes"
    int_codec: str = "bytes"

    # fields that change WHAT the rollup computes; operational knobs
    # (paths, retention, shuffle sizing) must not invalidate prior state
    SEMANTIC_FIELDS = (
        "format", "metrics_whitelist", "labels", "filtered_labels",
        "selector", "tiers", "num_buckets", "gapfill", "gapfill_max_gap",
    )

    def rollup_shuffle_blocks(self) -> int:
        """Blocks the rollup partials coalesce to before the shuffle:
        ``shuffle_blocks``, or the cluster's CPU count when it is unset
        (SCALING.md §4)."""
        from beamium_ray.functions.cluster import cluster_cpus

        return cluster_cpus() if self.shuffle_blocks is None else self.shuffle_blocks

    def config_hash(self) -> str:
        d = asdict(self)
        blob = json.dumps(
            {k: d[k] for k in self.SEMANTIC_FIELDS}, sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @classmethod
    def from_dict(cls, raw: dict, env: dict | None = None) -> "EngineConfig":
        """Build from a plain dict (parsed YAML/JSON), applying the
        reference's env-injection rules (``src/conf.rs:246-265,588-609``):

        - label values of the form ``env:VAR`` resolve from the
          environment; an UNSET variable removes that label with a
          warning (``replace_env`` → ``labels.remove``, conf.rs:595-600
          — not an error);
        - ``BEAMIUM_LABEL_<K>=<v>`` env vars insert global labels
          (key lowercased, overriding a same-key config label);
        - with ``name`` set, ``BEAMIUM_<NAME>_LABEL_<K>=<v>`` insert
          scraper-scoped labels (name uppercased, '-'→'_', conf.rs:
          246-265), applied AFTER the global form so they win.
        """
        import os as _os

        env = dict(_os.environ if env is None else env)
        known = {f.name for f in __import__("dataclasses").fields(cls)}
        kwargs = {k: v for k, v in raw.items() if k in known}

        # labels may be given as a mapping or a "k=v,k=v" string; the
        # reference's env:VAR values resolve in either form
        labels = kwargs.get("labels", "")
        if isinstance(labels, dict):
            pairs: list[tuple[str | None, str]] = [
                (k, str(v)) for k, v in labels.items()
            ]
        elif labels:
            # keep malformed (no '=') items verbatim — the reference
            # passes label strings through; we only resolve env: values
            pairs = [
                tuple(item.split("=", 1)) if "=" in item else (None, item)
                for item in str(labels).split(",")
            ]
        else:
            pairs = []
        resolved: list[tuple[str | None, str]] = []
        for k, v in pairs:
            if k is not None and v.startswith("env:"):
                var = v[4:]
                if var not in env:
                    import logging

                    logging.getLogger(__name__).warning(
                        "could not retrieve environment variable '%s'; "
                        "label '%s' removed", var, k,
                    )
                    continue  # ref conf.rs:598-600: unset → remove label
                v = env[var]
            resolved.append((k, v))

        def env_labels(prefix: str) -> dict[str, str]:
            return {
                n[len(prefix):].lower(): val
                for n, val in sorted(env.items())
                if n.startswith(prefix)
            }

        def apply(into: list, inserts: dict) -> list:
            out = []
            for k, v in into:
                if k is not None and k in inserts:
                    out.append((k, inserts.pop(k)))  # override in place
                else:
                    out.append((k, v))
            out.extend((k, inserts[k]) for k in sorted(inserts))
            return out

        resolved = apply(resolved, env_labels("BEAMIUM_LABEL_"))
        name = str(kwargs.get("name", raw.get("name", "")) or "")
        if name:
            pref = f"BEAMIUM_{name.upper().replace('-', '_')}_LABEL_"
            resolved = apply(resolved, env_labels(pref))
        kwargs["labels"] = ",".join(
            v if k is None else f"{k}={v}" for k, v in resolved
        )
        return cls(**kwargs)

    @classmethod
    def from_yaml(cls, path: str, env: dict | None = None) -> "EngineConfig":
        """Load from a YAML (or JSON — YAML superset) config file."""
        return cls.from_dict(read_yaml_or_json(path), env)

    @classmethod
    def from_file(cls, path: str, env: dict | None = None) -> "EngineConfig":
        return _load_config_file(cls, path, env)


@dataclass
class SinkConfig:
    """One routed output (reference Sink, ``src/conf.rs:300-420``):
    ``selector`` (anchored-^ class-token regex, None = all), with the
    DFO bounds re-expressed as retention knobs."""

    name: str = ""
    selector: str | None = None
    dir: str = ""  # output dir (the durable sink store)
    ttl_us: int | None = None  # DFO age bound (sink.ttl, default 1h)
    max_bytes: int | None = None  # DFO size bound (sink.size, default 1GB)
    # HTTP forwarding (the reference sink's real target, conf.rs:300-327:
    # url + token + token-header); used by run_multi --forward via
    # beamium_ray.sinks.http_forward
    url: str | None = None
    token: str = ""
    token_header: str = "X-Warp10-Token"
    parallel: int = 1  # POST concurrency (conf.rs:374-377)
    # connection reuse (conf.rs:318-319; defaults true / 3600s)
    keep_alive: bool = True
    keep_alive_timeout: str | float | None = None  # duration, e.g. "1h"
    headers: dict = field(default_factory=dict)  # extra POST headers


@dataclass
class BeamiumConfig:
    """The reference's FULL config shape (``src/conf.rs`` RawConf):
    named scrapers + named sinks + global labels + parameters.

    Per-scraper env labels (``BEAMIUM_<NAME>_LABEL_*``) apply through
    each scraper's own :class:`EngineConfig` (whose ``name`` is the map
    key); global ``labels`` feed the router relabel (P9)."""

    scrapers: dict[str, EngineConfig] = field(default_factory=dict)
    sinks: dict[str, SinkConfig] = field(default_factory=dict)
    labels: str = ""  # router global labels (P9)
    parameters: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict, env: dict | None = None) -> "BeamiumConfig":
        import os as _os

        env = dict(_os.environ if env is None else env)
        # GLOBAL BEAMIUM_LABEL_* env labels belong to the ROUTER
        # relabel (cfg.labels) ONLY — the reference injects them into
        # conf.labels, not every scraper (conf.rs:588-609). Leaving
        # them in each scraper's env would apply them twice (scraper
        # relabel + router prepend → duplicate label keys).
        scraper_env = {
            k: v
            for k, v in env.items()
            if not (
                k.startswith("BEAMIUM_LABEL_")
                # …unless it is some scraper's own scoped prefix
                # (a scraper literally named 'label')
                and not any(
                    k.startswith(f"BEAMIUM_{str(n).upper().replace('-', '_')}_LABEL_")
                    for n in (raw.get("scrapers") or {})
                )
            )
        }
        scrapers = {}
        for name, sub in (raw.get("scrapers") or {}).items():
            sub = dict(sub or {})
            sub["name"] = name
            scrapers[name] = EngineConfig.from_dict(sub, scraper_env)
        sinks = {}
        for name, sub in (raw.get("sinks") or {}).items():
            # the reference spells these kebab-case (token-header)
            sub = {k.replace("-", "_"): v for k, v in dict(sub or {}).items()}
            known = {f.name for f in __import__("dataclasses").fields(SinkConfig)}
            sinks[name] = SinkConfig(
                name=name, **{k: v for k, v in sub.items() if k in known and k != "name"}
            )
        # global labels resolve env:/BEAMIUM_LABEL_* via a scratch
        # EngineConfig (same rules, conf.rs:588-609)
        glob = EngineConfig.from_dict({"labels": raw.get("labels", "")}, env)
        return cls(
            scrapers=scrapers,
            sinks=sinks,
            labels=glob.labels,
            parameters=dict(raw.get("parameters") or {}),
        )

    @classmethod
    def from_file(cls, path: str, env: dict | None = None) -> "BeamiumConfig":
        return cls.from_dict(load_raw_config(path), env)


def _load_config_file(cls, path: str, env: dict | None):
    """Extension-dispatched loader: YAML/JSON/TOML/INI, mirroring the
    reference's multi-format config merge (``src/conf.rs:101-184`` via
    the ``config`` crate). ``cls`` is EngineConfig (single scraper) or
    BeamiumConfig (full scrapers+sinks surface)."""
    ext = path.rsplit(".", 1)[-1].lower()
    if ext == "toml":
        import tomllib

        with open(path, "rb") as f:
            raw = tomllib.load(f)
        return cls.from_dict(raw, env)
    if ext in ("ini", "cfg"):
        import configparser
        from dataclasses import fields as _fields

        cp = configparser.ConfigParser()
        cp.read(path)
        raw: dict = {}
        for sect in cp.sections():
            if sect.lower() == "labels":
                raw["labels"] = dict(cp[sect])
            else:
                raw.update(dict(cp[sect]))
        # INI values are strings; coerce to the dataclass field types
        for f in _fields(cls):
            if f.name in raw and isinstance(raw[f.name], str):
                if f.type in ("int", "int | None"):
                    raw[f.name] = int(raw[f.name])
                elif f.type == "bool":
                    raw[f.name] = raw[f.name].lower() in ("1", "true", "yes")
                elif f.type == "list[str]":
                    raw[f.name] = [
                        s.strip() for s in raw[f.name].split(",") if s.strip()
                    ]
        return cls.from_dict(raw, env)
    return cls.from_dict(read_yaml_or_json(path), env)


def read_yaml_or_json(path: str) -> dict:
    """Raw dict from a YAML (or JSON — YAML superset) file."""
    try:
        import yaml

        with open(path) as f:
            return yaml.safe_load(f) or {}
    except ImportError:  # no PyYAML in env: accept JSON configs
        with open(path) as f:
            return json.load(f)


def _regex_errors(pattern: str, where: str) -> list[str]:
    """Compile ``pattern`` through the SAME engine the filter stages use
    (Arrow/re2 via ``pc.match_substring_regex``), so check mode accepts
    exactly what run mode accepts — a pattern Python's ``re`` allows but
    re2 rejects (e.g. backreferences) must fail here too."""
    import pyarrow as pa
    import pyarrow.compute as pc

    try:
        # a one-element probe: Arrow short-circuits (never compiles the
        # pattern) on an empty array
        pc.match_substring_regex(pa.array([""], pa.string()), pattern)
        return []
    except Exception as ex:
        return [f"{where}: invalid regex {pattern!r}: {ex}"]


def validate_engine_config(cfg: EngineConfig) -> list[str]:
    """Semantic config validation for check mode (the reference's ``-t``
    flag, ``src/cmd.rs:40-42`` + ``src/main.rs:108-118``; the reference
    gets pattern validation for free by compiling ``Regex``/``RegexSet``
    during deserialization, ``src/conf.rs:229,332``). Returns a list of
    human-readable errors; empty means healthy."""
    errors: list[str] = []
    if cfg.format not in ("prometheus", "sensision"):
        errors.append(
            f"format must be 'prometheus' or 'sensision', got {cfg.format!r}"
        )
    for p in cfg.metrics_whitelist:
        errors.extend(_regex_errors(str(p), "metrics_whitelist"))
    if cfg.selector is not None:
        # the router prepends '^' before matching (filters.selector_mask)
        errors.extend(_regex_errors("^" + str(cfg.selector), "selector"))
    if not cfg.tiers:
        errors.append("tiers must not be empty")
    for name, us in cfg.tiers.items():
        if not isinstance(us, int) or us <= 0:
            errors.append(f"tier {name!r}: window must be a positive int µs, got {us!r}")
    for name, us in (cfg.ttl_us or {}).items():
        if name not in cfg.tiers:
            errors.append(f"ttl_us references unknown tier {name!r}")
        if not isinstance(us, int) or us <= 0:
            errors.append(f"ttl_us[{name!r}] must be a positive int µs, got {us!r}")
    if cfg.num_buckets <= 0:
        errors.append(f"num_buckets must be positive, got {cfg.num_buckets}")
    if cfg.shuffle_blocks is not None and cfg.shuffle_blocks <= 0:
        errors.append(f"shuffle_blocks must be positive, got {cfg.shuffle_blocks}")
    if cfg.gapfill_max_gap is not None and cfg.gapfill_max_gap < 0:
        errors.append(f"gapfill_max_gap must be ≥ 0, got {cfg.gapfill_max_gap}")
    for knob in ("float_codec", "int_codec"):
        v = getattr(cfg, knob)
        if v not in ("bytes", "bits"):
            errors.append(f"{knob} must be 'bytes' or 'bits', got {v!r}")
    if cfg.max_bytes is not None and cfg.max_bytes <= 0:
        errors.append(f"max_bytes must be positive, got {cfg.max_bytes}")
    if cfg.period is not None:
        try:
            if parse_duration_s(cfg.period) <= 0:
                errors.append(f"period must be positive, got {cfg.period!r}")
        except ValueError as ex:
            errors.append(f"period: {ex}")
    if cfg.headers and (
        not isinstance(cfg.headers, dict)  # e.g. YAML scalar/list typo
        or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in cfg.headers.items()
        )
    ):
        errors.append("headers must map string names to string values")
    return errors


def validate_beamium_config(cfg: BeamiumConfig) -> list[str]:
    """Check-mode validation of the full scrapers+sinks topology."""
    errors: list[str] = []
    if not cfg.scrapers:
        errors.append("no scrapers configured")
    for name, sc in cfg.scrapers.items():
        errors.extend(f"scraper {name!r}: {e}" for e in validate_engine_config(sc))
    for name, sk in cfg.sinks.items():
        if sk.selector is not None:
            errors.extend(
                f"sink {name!r}: {e}"
                for e in _regex_errors("^" + str(sk.selector), "selector")
            )
        if sk.ttl_us is not None and sk.ttl_us <= 0:
            errors.append(f"sink {name!r}: ttl_us must be positive, got {sk.ttl_us}")
        if sk.max_bytes is not None:
            errors.append(
                f"sink {name!r}: max_bytes has no batch analog (the DFO "
                "size bound caps a live disk queue) — remove it"
            )
        if sk.keep_alive_timeout is not None:
            try:
                if parse_duration_s(sk.keep_alive_timeout) <= 0:
                    errors.append(
                        f"sink {name!r}: keep-alive-timeout must be "
                        f"positive, got {sk.keep_alive_timeout!r}"
                    )
            except ValueError as ex:
                errors.append(f"sink {name!r}: keep-alive-timeout: {ex}")
        if not isinstance(sk.parallel, int) or sk.parallel <= 0:
            errors.append(
                f"sink {name!r}: parallel must be a positive int, "
                f"got {sk.parallel!r}"
            )
        if sk.headers and (
            not isinstance(sk.headers, dict)
            or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in sk.headers.items()
            )
        ):
            errors.append(
                f"sink {name!r}: headers must map string names to "
                "string values"
            )
    # parameters surface the forwarder consumes (conf.rs:120-138):
    # timeout + backoff.* are durations/floats — catch typos in -t, not
    # at first POST
    p = dict(cfg.parameters or {})
    if "timeout" in p:
        try:
            if parse_duration_s(p["timeout"]) <= 0:
                errors.append(
                    f"parameters.timeout must be positive, got "
                    f"{p['timeout']!r}"
                )
        except ValueError as ex:
            errors.append(f"parameters.timeout: {ex}")
    bo = p.get("backoff")
    if bo is not None:
        if not isinstance(bo, dict):
            errors.append("parameters.backoff must be a mapping")
        else:
            for k in ("initial", "max"):
                if k in bo:
                    try:
                        if parse_duration_s(bo[k]) <= 0:
                            errors.append(
                                f"parameters.backoff.{k} must be positive"
                            )
                    except ValueError as ex:
                        errors.append(f"parameters.backoff.{k}: {ex}")
            for k in ("multiplier", "randomization"):
                if k in bo:
                    try:
                        float(bo[k])
                    except (TypeError, ValueError):
                        errors.append(
                            f"parameters.backoff.{k} must be a number, "
                            f"got {bo[k]!r}"
                        )
    return errors


def load_raw_config(path: str) -> dict:
    """Raw config dict with extension dispatch (YAML/JSON/TOML). INI is
    EngineConfig-only — its flat sections cannot express the nested
    scrapers/sinks maps — so multi-topology callers reject it."""
    ext = path.rsplit(".", 1)[-1].lower()
    if ext == "toml":
        import tomllib

        with open(path, "rb") as f:
            return tomllib.load(f)
    if ext in ("ini", "cfg"):
        raise ValueError(
            "INI configs cannot express the scrapers/sinks maps — use "
            "YAML, JSON or TOML for the multi topology"
        )
    return read_yaml_or_json(path)
