"""The paper's primary contribution: shadow-block data duplication."""

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController, ShadowStats
from repro.core.hot_cache import HotAddressCache
from repro.core.partition import DriCounter, DynamicPartitionPolicy, PartitionPolicy

__all__ = [
    "DriCounter",
    "DynamicPartitionPolicy",
    "HotAddressCache",
    "PartitionPolicy",
    "ShadowConfig",
    "ShadowOramController",
    "ShadowStats",
]
