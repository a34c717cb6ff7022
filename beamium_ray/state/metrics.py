"""In-pipeline metrics: a named zero-CPU counter actor.

The reference keeps global Prometheus counters (T5, SURVEY.md §2.3).
Here stages flush their per-batch drop-rule tallies to one named
actor with fire-and-forget calls (no backpressure on the hot path);
the driver reads the totals once at the end. They are the engine's
only stage counters: ``run`` prints them as ``stage_metrics``, and the
gate's ``queries.flagship_stage_metrics`` reads them the same way.

ACCURACY CONTRACT: these are observability counters, like the
reference's Prometheus series — at-least-once (a retried map task
flushes twice) and read after a short drain grace, so they can drift
by a task's worth under failures. The EXACT accounting lives in the
bucket manifests (``points_rolled`` etc.), which are committed
exactly-once by construction.
"""

from __future__ import annotations


def _actor_class():
    import ray

    @ray.remote(num_cpus=0)
    class Counters:
        def __init__(self):
            self._c: dict[str, int] = {}

        def add(self, delta: dict) -> None:
            for k, v in delta.items():
                self._c[k] = self._c.get(k, 0) + int(v)

        def get(self) -> dict:
            return dict(self._c)

        def reset(self) -> None:
            self._c = {}

    return Counters


def get_or_create(name: str):
    """Create (or get) the named counter actor.

    MUST be called from the DRIVER before the pipeline runs: a named
    non-detached actor is owned by its creator, so one created lazily
    inside a map worker dies when that worker exits. Workers only look
    it up (``lookup``)."""
    import ray

    return _actor_class().options(name=name, get_if_exists=True).remote()


def lookup(name: str):
    """Worker-side handle to the driver-owned actor (None if absent)."""
    import ray

    try:
        return ray.get_actor(name)
    except ValueError:
        return None


def read_and_drop(name: str) -> dict:
    """Collect totals and remove the actor (driver-side, end of run).

    Called after the Dataset has fully executed; a short grace sleep
    lets the last in-flight fire-and-forget ``add`` calls drain (actor
    mailboxes are per-caller ordered, not globally)."""
    import time

    import ray

    try:
        actor = ray.get_actor(name)
    except ValueError:
        return {}
    # drain: poll until two consecutive reads agree (bounded) — a fixed
    # sleep under-counts when the host is throttled and deliveries lag
    totals = ray.get(actor.get.remote())
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        time.sleep(0.3)
        again = ray.get(actor.get.remote())
        if again == totals:
            break
        totals = again
    ray.kill(actor)
    return totals
