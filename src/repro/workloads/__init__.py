"""Deterministic synthetic workload generators.

The traffic replay's names are forwarded lazily (PEP 562): its module
imports numpy, which building or simulating an MP3 design never needs.
"""

from .mp3frames import FrameSet, make_frames
from .traffic import (
    ARRIVALS,
    TrafficError,
    TrafficProfile,
    TrafficResult,
    TrafficSpec,
    capture_traffic_profile,
    run_traffic,
)

#: Names forwarded (lazily, PEP 562) from :mod:`.traffic_replay`.
_REPLAY_NAMES = ("ReplayUnsupported", "compile_replay_plan",
                 "replay_traffic_sweep")

__all__ = [
    "ARRIVALS",
    "FrameSet",
    "TrafficError",
    "TrafficProfile",
    "TrafficResult",
    "TrafficSpec",
    "capture_traffic_profile",
    "make_frames",
    "run_traffic",
] + list(_REPLAY_NAMES)


def __getattr__(name):
    if name in _REPLAY_NAMES:
        from . import traffic_replay

        return getattr(traffic_replay, name)
    raise AttributeError(
        "module %r has no attribute %r" % (__name__, name)
    )
