"""Full-system configuration: the Python rendering of Table I."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import ShadowConfig
from repro.cpu.cache import CacheConfig
from repro.cpu.core import CpuConfig
from repro.mem.dram import DramConfig
from repro.oram.config import OramConfig
from repro.serialize import fingerprint_payload, serializable


@serializable
@dataclass(frozen=True, slots=True)
class TimingProtectionConfig:
    """Constant-rate request protection (Fletcher et al., Section II-B).

    Attributes:
        enabled: Launch one ORAM request per slot; idle slots fire dummy
            requests.
        rate_cycles: Slot length in CPU cycles (the paper sets 800, the
            rate that minimises overhead at zero timing leakage).
    """

    enabled: bool = False
    rate_cycles: float = 800.0

    def __post_init__(self) -> None:
        if self.rate_cycles <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_cycles}")


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Everything a full-system simulation needs.

    ``shadow=None`` selects the Tiny ORAM baseline; ``insecure=True``
    bypasses ORAM entirely (the normalisation baseline of Figures 11/15).

    Attributes:
        name: Scheme label used in result tables ("Tiny", "static-7", ...).
    """

    name: str = "Tiny"
    oram: OramConfig = field(default_factory=OramConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    cache: CacheConfig = field(default_factory=CacheConfig.scaled)
    shadow: ShadowConfig | None = None
    timing: TimingProtectionConfig = field(default_factory=TimingProtectionConfig)
    insecure: bool = False
    seed: int = 1

    # ------------------------------------------------------------------
    # Named configurations used throughout the evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def tiny(**overrides: object) -> "SystemConfig":
        """The Tiny ORAM baseline of Section II-C."""
        return SystemConfig(name="Tiny").with_(**overrides)

    @staticmethod
    def insecure_system(**overrides: object) -> "SystemConfig":
        """No ORAM: plain DRAM accesses (slowdown denominator)."""
        return SystemConfig(name="insecure", insecure=True).with_(**overrides)

    @staticmethod
    def rd_dup(**overrides: object) -> "SystemConfig":
        """Pure Rear Data Duplication."""
        return SystemConfig(name="RD-Dup", shadow=ShadowConfig.rd_only()).with_(
            **overrides
        )

    @staticmethod
    def hd_dup(**overrides: object) -> "SystemConfig":
        """Pure Hot Data Duplication (partition level tracks the tree)."""
        cfg = SystemConfig(name="HD-Dup").with_(**overrides)
        return replace(cfg, shadow=ShadowConfig.hd_only(cfg.oram.levels))

    @staticmethod
    def static(partition_level: int, **overrides: object) -> "SystemConfig":
        """Static partitioning at ``P`` (paper's static-7 / static-4)."""
        return SystemConfig(
            name=f"static-{partition_level}",
            shadow=ShadowConfig.static(partition_level),
        ).with_(**overrides)

    @staticmethod
    def dynamic(counter_bits: int = 3, **overrides: object) -> "SystemConfig":
        """Dynamic partitioning (paper's dynamic-3)."""
        return SystemConfig(
            name=f"dynamic-{counter_bits}",
            shadow=ShadowConfig.dynamic_counter(counter_bits),
        ).with_(**overrides)

    # ------------------------------------------------------------------
    # Serialization: a config is one half of a sweep-engine job, so it
    # must round-trip through JSON and hash stably across processes.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Serialize to a nested JSON-compatible dict."""
        return {
            "name": self.name,
            "oram": self.oram.to_dict(),
            "dram": self.dram.to_dict(),
            "cpu": self.cpu.to_dict(),
            "cache": self.cache.to_dict(),
            "shadow": self.shadow.to_dict() if self.shadow is not None else None,
            "timing": self.timing.to_dict(),
            "insecure": self.insecure,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SystemConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        shadow = data.get("shadow")
        return cls(
            name=data["name"],
            oram=OramConfig.from_dict(data["oram"]),
            dram=DramConfig.from_dict(data["dram"]),
            cpu=CpuConfig.from_dict(data["cpu"]),
            cache=CacheConfig.from_dict(data["cache"]),
            shadow=ShadowConfig.from_dict(shadow) if shadow is not None else None,
            timing=TimingProtectionConfig.from_dict(data["timing"]),
            insecure=data["insecure"],
            seed=data["seed"],
        )

    def fingerprint(self) -> str:
        """Stable content hash over the full nested configuration."""
        return fingerprint_payload(type(self).__name__, self.to_dict())

    # ------------------------------------------------------------------
    def with_(self, **changes: object) -> "SystemConfig":
        """Copy with replaced fields (chainable)."""
        if not changes:
            return self
        return replace(self, **changes)

    def with_timing_protection(self, rate_cycles: float = 800.0) -> "SystemConfig":
        """Enable constant-rate timing protection."""
        return self.with_(
            timing=TimingProtectionConfig(enabled=True, rate_cycles=rate_cycles)
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [self.name]
        o = self.oram
        parts.append(f"L={o.levels} Z={o.z} A={o.a} N={o.num_blocks}")
        if o.treetop_levels:
            parts.append(f"treetop={o.treetop_levels}")
        if o.xor_compression:
            parts.append("xor")
        if self.timing.enabled:
            parts.append(f"tp@{self.timing.rate_cycles:g}")
        parts.append(self.cpu.core_type)
        return " ".join(parts)


#: Scheme names :func:`named_config` accepts; ``<P>`` and ``<W>`` are integers.
KNOWN_SCHEMES = (
    "tiny", "insecure", "rd-dup", "hd-dup", "static-<P>", "dynamic-<W>",
)

_NAMED = {
    "tiny": SystemConfig.tiny,
    "insecure": SystemConfig.insecure_system,
    "rd": SystemConfig.rd_dup,
    "rd-dup": SystemConfig.rd_dup,
    "hd": SystemConfig.hd_dup,
    "hd-dup": SystemConfig.hd_dup,
}
_PARAMETERIZED = {"static": SystemConfig.static, "dynamic": SystemConfig.dynamic}


def named_config(scheme: str, **overrides: object) -> SystemConfig:
    """The configuration a scheme name selects (case-insensitive).

    ``rd`` and ``hd`` are short for ``rd-dup`` and ``hd-dup``;
    ``static-<P>`` and ``dynamic-<W>`` take the partition level and the
    DRI counter width.  Raises :class:`ValueError` for any other name.
    """
    name = scheme.lower()
    if name in _NAMED:
        return _NAMED[name](**overrides)
    kind, _, arg = name.partition("-")
    if kind in _PARAMETERIZED and arg.isdigit():
        return _PARAMETERIZED[kind](int(arg), **overrides)
    raise ValueError(
        f"unknown scheme {scheme!r}; known: {', '.join(KNOWN_SCHEMES)}"
    )
