"""CUPTI-style callback registry for the simulated GPU.

Real profilers observe CUDA programs by *subscribing* to driver
callbacks (CUPTI's ``cuptiSubscribe`` + launch/runtime callback
domains) instead of patching kernels.  The simulator offers the same
contract: :mod:`repro.gpusim.executor` announces launch begin/end and
:class:`~repro.gpusim.context.BlockContext` announces phase boundaries
and per-step counter records.  Tools -- the default telemetry
:class:`~repro.telemetry.collector.Collector`, tests, ad-hoc scripts --
subscribe here and see every simulated launch in the process without
touching kernel code.

The registry is deliberately dependency-free (no ``repro`` imports) so
the simulator can emit into it without an import cycle, and the
disabled path is one truthiness check on the subscriber tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

#: Callback domains (mirroring CUPTI's CB_DOMAIN_* granularity).
DOMAIN_LAUNCH = "launch"
DOMAIN_PHASE = "phase"
DOMAIN_STEP = "step"

#: Callback sites within a domain.
SITE_BEGIN = "begin"
SITE_END = "end"
SITE_RECORD = "record"


@dataclass(frozen=True)
class CallbackInfo:
    """One callback delivery: where in the simulation we are plus a
    payload of site-specific fields (kernel name, launch config, phase
    name, step counters, the finished ``LaunchResult``...)."""

    domain: str
    site: str
    payload: Mapping[str, Any]


Subscriber = Callable[[CallbackInfo], None]

#: Rebuilt, never mutated, by (un)subscribe: :func:`emit` iterates the
#: tuple it read, a snapshot without a per-callback copy.
_subscribers: tuple[Subscriber, ...] = ()


def subscribe(fn: Subscriber) -> Subscriber:
    """Register ``fn`` for every future callback; returns the handle
    to pass to :func:`unsubscribe`."""
    global _subscribers
    _subscribers = (*_subscribers, fn)
    return fn


def unsubscribe(handle: Subscriber) -> None:
    """Remove a subscriber; unknown handles are ignored."""
    global _subscribers
    subscribers = list(_subscribers)
    try:
        subscribers.remove(handle)
    except ValueError:
        return
    _subscribers = tuple(subscribers)


def has_subscribers() -> bool:
    return bool(_subscribers)


def emit(domain: str, site: str, **payload: Any) -> None:
    """Deliver a callback to every subscriber.

    With no subscribers this is a single tuple check -- cheap enough
    to call unconditionally from the executor's inner loop.
    """
    subscribers = _subscribers
    if not subscribers:
        return
    info = CallbackInfo(domain, site, payload)
    for fn in subscribers:
        fn(info)
