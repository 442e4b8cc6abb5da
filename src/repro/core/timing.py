"""Request-delay model (paper §VI-B).

vWitness's validation is concurrent with the user session, so the delay
added to the final request is

    L = T(init) + sum_i T(frame_i) + T(request) - T(session)

bounded below by ``T(frame_last) + T(request)``: the last frame can only
be validated once it has been sampled, and request validation can only
start after submission.  The *cutoff session length* is the session
duration beyond which all earlier frames have been absorbed into the
session and only that floor remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SessionTiming:
    """Measured wall-clock costs of one vWitness session (seconds)."""

    t_init: float = 0.0
    frame_times: list = field(default_factory=list)
    frame_sample_times_ms: list = field(default_factory=list)  # virtual clock
    t_request: float = 0.0

    @property
    def t_first_frame(self) -> float:
        return self.frame_times[0] if self.frame_times else 0.0

    @property
    def subsequent_frame_times(self) -> list:
        return self.frame_times[1:]


def request_delay(timing: SessionTiming, session_seconds: float) -> float:
    """The delay L added to the final request for a given session length.

    Models the concurrent pipeline: frames become available at their
    sample instants (rescaled into the session), each takes its measured
    validation time, and validation of frame *i+1* cannot start before
    frame *i* finishes.  Request validation starts at
    ``max(session end, last frame finished)``.
    """
    if session_seconds < 0:
        raise ValueError(f"session length cannot be negative, got {session_seconds}")
    if not timing.frame_times:
        return timing.t_init + timing.t_request

    n = len(timing.frame_times)
    if timing.frame_sample_times_ms:
        if len(timing.frame_sample_times_ms) != n:
            # A mismatch means the caller recorded the two lists out of
            # lockstep — silently modelling uniform arrivals instead
            # would hide the bookkeeping bug and skew every delay curve.
            raise ValueError(
                f"frame_sample_times_ms has {len(timing.frame_sample_times_ms)} "
                f"entries but frame_times has {n}; the lists must be recorded "
                "in lockstep (leave frame_sample_times_ms empty for uniform "
                "arrivals)"
            )
        span = max(timing.frame_sample_times_ms[-1], 1.0)
        arrivals = [
            session_seconds * (t / span) for t in timing.frame_sample_times_ms
        ]
    else:
        arrivals = [session_seconds * (i + 1) / n for i in range(n)]

    finish = timing.t_init
    for arrival, work in zip(arrivals, timing.frame_times):
        start = max(finish, arrival)
        finish = start + work
    request_done = max(finish, session_seconds) + timing.t_request
    return request_done - session_seconds


def cutoff_session_length(
    timing: SessionTiming,
    max_seconds: float = 60.0,
    resolution: float = 0.05,
) -> float:
    """Smallest session length at which L reaches its floor (§VI-B).

    The floor is the asymptotic delay for a very long session — at least
    ``T(frame_last) + T(request)``, and more when several trailing frames
    arrive together at submission time.  We sweep session lengths and
    return the first one whose delay is within half a resolution step of
    that asymptote.
    """
    if not timing.frame_times:
        return 0.0
    floor = request_delay(timing, max_seconds * 100.0)
    t = 0.0
    while t <= max_seconds:
        if request_delay(timing, t) <= floor + resolution / 2:
            return t
        t += resolution
    return max_seconds


def delay_curve(timing: SessionTiming, session_lengths: list) -> list:
    """(session_length, delay) pairs — the data behind Figure 6."""
    return [(s, request_delay(timing, s)) for s in session_lengths]
