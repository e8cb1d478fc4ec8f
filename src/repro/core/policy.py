"""Privacy policies: the (rho, K) bound a video owner commits to protect.

A policy says: any event visible for at most K segments of at most rho
seconds each is protected with the camera's epsilon-DP guarantee
(Definition 5.3).  The video owner chooses (rho, K) per camera — typically
from CV-estimated maximum durations (Section 5.2) — and may release a *map*
from masks to tighter policies (Section 7.1) so analysts can trade masked
area for lower noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MaskError, PolicyError
from repro.utils import checks
from repro.video.chunking import num_chunks_spanned
from repro.video.masking import EMPTY_MASK, Mask


@dataclass(frozen=True)
class PrivacyPolicy:
    """A (rho, K) event bound.

    ``rho`` is the maximum duration (seconds) of a single protected segment
    and ``k_segments`` the maximum number of segments.  ``rho = 0`` is legal
    and means "nothing private is ever visible" (e.g. after masking
    everything except a traffic light, Case 4 of the evaluation).
    """

    rho: float
    k_segments: int = 1

    def __post_init__(self) -> None:
        # Both bound the sensitivity: a NaN or infinite rho, or a fractional
        # K, would scale the noise by something other than Equation 6.2.
        checks.real("rho", self.rho, PolicyError, at_least=0)
        checks.count("K", self.k_segments, PolicyError, at_least=1)

    def max_chunks(self, chunk_duration: float) -> int:
        """Equation 6.1: chunks one protected segment can span."""
        return num_chunks_spanned(self.rho, chunk_duration)

    def table_delta(self, max_rows: int, chunk_duration: float) -> float:
        """Equation 6.2: intermediate-table rows a protected event can influence.

        A policy with ``rho = 0`` means no protected event is ever visible
        (everything private is masked away, as in the red-light queries of
        Case 4), so such an event cannot influence any rows and the delta is
        zero — which is why those queries need no noise at all.
        """
        checks.count("max_rows", max_rows, PolicyError, at_least=1)
        if self.rho == 0:
            return 0.0
        return float(max_rows * self.k_segments * self.max_chunks(chunk_duration))


@dataclass
class MaskPolicyMap:
    """The owner-released map from masks to the (rho, K) each one permits.

    At camera-registration time the owner analyses historical video once per
    candidate mask (Section 7.1) and publishes this map; at query time the
    analyst picks whichever mask least disturbs their query while giving the
    lowest rho.  Entry ``"none"`` (the empty mask) must always exist — it is
    the policy used when the analyst opts out of masking.
    """

    entries: dict[str, tuple[Mask, PrivacyPolicy]] = field(default_factory=dict)

    NO_MASK = "none"

    def __post_init__(self) -> None:
        if self.NO_MASK not in self.entries:
            raise PolicyError('a MaskPolicyMap must contain a "none" entry (the unmasked policy)')

    @classmethod
    def unmasked(cls, policy: PrivacyPolicy) -> "MaskPolicyMap":
        """A map offering only the unmasked policy."""
        return cls(entries={cls.NO_MASK: (EMPTY_MASK, policy)})

    def add(self, name: str, mask: Mask, policy: PrivacyPolicy) -> None:
        """Register an additional mask/policy pair."""
        if name in self.entries:
            raise MaskError(f"mask {name!r} is already registered")
        self.entries[name] = (mask, policy)

    def mask_names(self) -> list[str]:
        """Names of all registered masks."""
        return sorted(self.entries)

    def lookup(self, name: str | None) -> tuple[Mask, PrivacyPolicy]:
        """Mask and policy for a mask name (None means the unmasked entry)."""
        key = self.NO_MASK if name is None else name
        if key not in self.entries:
            raise MaskError(f"unknown mask {key!r}; available: {self.mask_names()}")
        return self.entries[key]
