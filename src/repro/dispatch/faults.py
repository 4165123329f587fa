"""Deterministic fault injection for the fleet executor.

``REPRO_DISPATCH_FAULTS`` describes a *seeded* fault plan applied inside
fleet workers, so the broker's whole failure surface — dead workers,
lost results, stalled heartbeats, garbage payloads — is exercisable in
CI with reproducible outcomes::

    REPRO_DISPATCH_FAULTS="kill:0.3,drop:0.2,corrupt:0.1;seed=7"

The spec is ``kind:probability`` pairs (comma-separated) plus an
optional ``;seed=N`` suffix.  Kinds:

==========  ==========================================================
``kill``    the worker SIGKILLs itself mid-attempt (no cleanup, no
            result — exactly what an OOM-kill or node loss looks like)
``drop``    the attempt completes but the result is never sent; the
            worker asks for new work, which the broker treats as a
            surrendered lease and requeues immediately
``delay``   the worker stops heartbeating for this attempt; the broker's
            heartbeat timeout declares the lease dead and requeues it
``corrupt`` the result payload bytes are flipped before sending, so the
            broker's decode fails and the attempt is retried
==========  ==========================================================

Determinism: every decision is drawn from ``Random(crc32(seed, task_id,
attempt, kind))`` — a pure function of the plan seed and the attempt's
identity.  Re-running the same grid under the same spec injects the same
faults at the same places, which is what lets the identity matrix's
killed-worker row (``tests/test_identity_matrix.py``) be a tier-1 test
rather than a flake.  A task that draws a fault on attempt 1 draws *independently* on
attempt 2, so fault probabilities < 1 always leave an escape path; tasks
that keep losing the draw exhaust their attempt budget and quarantine to
the parent's inline path, which injects nothing.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Recognized fault kinds, in the order they are evaluated per attempt.
KINDS = ("kill", "drop", "delay", "corrupt")

ENV_FAULTS = "REPRO_DISPATCH_FAULTS"


class FaultSpecError(ValueError):
    """Malformed ``REPRO_DISPATCH_FAULTS`` value."""


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, seeded fault plan (empty plan == no faults)."""

    rates: Dict[str, float] = field(default_factory=dict)
    seed: int = 0
    spec: str = ""

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Parse a ``kind:prob,...;seed=N`` spec (``None``/"" == off)."""
        text = (spec or "").strip()
        if not text:
            return cls()
        seed = 0
        body = text
        if ";" in text:
            body, _, tail = text.partition(";")
            tail = tail.strip()
            if not tail.startswith("seed="):
                raise FaultSpecError(
                    f"bad fault spec {text!r}: expected ';seed=N', "
                    f"got {tail!r}"
                )
            try:
                seed = int(tail[len("seed="):])
            except ValueError:
                raise FaultSpecError(
                    f"bad fault spec {text!r}: seed is not an integer"
                ) from None
        rates: Dict[str, float] = {}
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            kind, sep, prob = part.partition(":")
            kind = kind.strip()
            if kind not in KINDS:
                raise FaultSpecError(
                    f"bad fault spec {text!r}: unknown kind {kind!r} "
                    f"(known: {', '.join(KINDS)})"
                )
            try:
                rate = float(prob) if sep else 1.0
            except ValueError:
                raise FaultSpecError(
                    f"bad fault spec {text!r}: {prob!r} is not a "
                    f"probability"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(
                    f"bad fault spec {text!r}: probability {rate} "
                    f"outside [0, 1]"
                )
            rates[kind] = rate
        return cls(rates=rates, seed=seed, spec=text)

    def __bool__(self) -> bool:
        return bool(self.rates)

    def draw(self, task_id: str, attempt: int) -> Optional[str]:
        """The fault (if any) to inject for one attempt of one task.

        At most one fault fires per attempt: kinds are evaluated in
        ``KINDS`` order, each with its own independent deterministic
        stream, and the first winning draw is returned.
        """
        for kind in KINDS:
            rate = self.rates.get(kind, 0.0)
            if rate <= 0.0:
                continue
            token = f"{self.seed}:{task_id}:{attempt}:{kind}"
            stream = random.Random(zlib.crc32(token.encode()))
            if stream.random() < rate:
                return kind
        return None


def corrupt_bytes(payload: bytes) -> bytes:
    """Flip bits across a payload so any framing/pickle decode fails."""
    if not payload:
        return b"\xff"
    mangled = bytearray(payload)
    for pos in range(0, len(mangled), max(1, len(mangled) // 8)):
        mangled[pos] ^= 0xA5
    return bytes(mangled)


__all__ = ["ENV_FAULTS", "FaultPlan", "FaultSpecError", "KINDS",
           "corrupt_bytes"]
