"""Messages exchanged between simulated processes.

The PVM-style API is tag-based: a receiver can wait for a specific tag (and
optionally a specific sender) or for any message.  Payloads are ordinary
Python objects; their *size* — which determines the simulated transfer time —
is estimated from the payload structure (NumPy arrays dominate in this
application, so the estimate concentrates on them).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

__all__ = ["Message", "estimate_payload_bytes"]


def estimate_payload_bytes(payload: Any) -> int:
    """Rough size, in bytes, of a message payload.

    NumPy arrays count their buffer size; containers are visited recursively;
    everything else contributes a small constant.  The goal is a *consistent*
    cost model for the simulated network, not an exact wire format.
    """
    if payload is None:
        return 8
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes) + 64
    if isinstance(payload, (bytes, bytearray)):
        return len(payload) + 16
    if isinstance(payload, str):
        return len(payload.encode("utf-8")) + 16
    if isinstance(payload, (int, float, bool)):
        return 16
    if isinstance(payload, dict):
        return 32 + sum(
            estimate_payload_bytes(k) + estimate_payload_bytes(v) for k, v in payload.items()
        )
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 32 + sum(estimate_payload_bytes(item) for item in payload)
    # dataclass-like objects: walk their __dict__ / __slots__ when available
    if hasattr(payload, "__dict__"):
        return 32 + sum(estimate_payload_bytes(v) for v in vars(payload).values())
    return max(int(sys.getsizeof(payload)), 32)


@dataclass(frozen=True, slots=True)
class Message:
    """A message in flight or delivered to a mailbox.

    Attributes
    ----------
    src / dst:
        Process ids of the sender and the receiver.
    tag:
        Application-level tag (string), e.g. ``"clw_result"``.
    payload:
        Arbitrary Python object.
    size_bytes:
        Estimated payload size used for the transfer-time model.
    send_time / arrival_time:
        Virtual times at which the message left the sender and becomes
        visible to the receiver.
    """

    src: int
    dst: int
    tag: str
    payload: Any
    size_bytes: int
    send_time: float
    arrival_time: float

    def __reduce__(self):
        # The processes kernel pickles every message it moves: positional
        # fields skip the dataclass's field-by-field __getstate__ and
        # __setstate__, about a fifth of a round trip's CPU time.
        fields = (self.src, self.dst, self.tag, self.payload, self.size_bytes)
        return (Message, (*fields, self.send_time, self.arrival_time))

    def matches(self, *, tag: Optional[str] = None, src: Optional[int] = None) -> bool:
        """Whether the message satisfies a receive filter."""
        if tag is not None and self.tag != tag:
            return False
        if src is not None and self.src != src:
            return False
        return True
