"""Experiment harness: the evaluated stacks and per-figure drivers."""

from .experiments import (
    CROSSOVER_MIXES,
    CrossoverMixResult,
    default_scale,
    fig3_db_bench,
    fig4_comparative_behavior,
    fig5_log_saturation,
    fig6_batching,
    fig7_read_cache_size,
    policy_crossover,
    run_crossover_mix,
    run_fio_on,
    saturation_point,
)
from .reporting import format_fio_comparison, format_table, mib_per_s, sparkline
from .systems import (
    DEFAULT_SCALE,
    PROPERTY_MATRIX,
    Scale,
    StorageStack,
    SYSTEM_NAMES,
    TABLE_IV,
    build_stack,
    nvcache_config,
)

__all__ = [
    "fig3_db_bench",
    "fig4_comparative_behavior",
    "fig5_log_saturation",
    "fig6_batching",
    "fig7_read_cache_size",
    "run_fio_on",
    "saturation_point",
    "default_scale",
    "CROSSOVER_MIXES",
    "CrossoverMixResult",
    "policy_crossover",
    "run_crossover_mix",
    "format_table",
    "format_fio_comparison",
    "mib_per_s",
    "sparkline",
    "SYSTEM_NAMES",
    "PROPERTY_MATRIX",
    "TABLE_IV",
    "Scale",
    "DEFAULT_SCALE",
    "StorageStack",
    "build_stack",
    "nvcache_config",
]
