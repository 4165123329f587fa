"""Synthetic workloads: Table II catalog, profiles, and the generator."""

from repro.workloads.catalog import (
    CatalogRow,
    format_table2,
    mobile_app_names,
    spec_float_names,
    spec_int_names,
    table2_rows,
)
from repro.workloads.generator import (
    BASE_REGS,
    CHAIN_REGS,
    FILLER_REGS,
    FunctionInfo,
    HIGH_FILLER_REG,
    HOSTILE_CHAIN_REG,
    Workload,
    generate,
)
from repro.workloads.profiles import (
    ALL_PROFILES,
    MOBILE,
    MOBILE_PROFILES,
    SPEC_FLOAT,
    SPEC_FLOAT_PROFILES,
    SPEC_INT,
    SPEC_INT_PROFILES,
    WorkloadProfile,
    get_profile,
    profiles_in_group,
)

__all__ = [
    "ALL_PROFILES",
    "BASE_REGS",
    "CHAIN_REGS",
    "CatalogRow",
    "FILLER_REGS",
    "FunctionInfo",
    "HIGH_FILLER_REG",
    "HOSTILE_CHAIN_REG",
    "MOBILE",
    "MOBILE_PROFILES",
    "SPEC_FLOAT",
    "SPEC_FLOAT_PROFILES",
    "SPEC_INT",
    "SPEC_INT_PROFILES",
    "Workload",
    "WorkloadProfile",
    "format_table2",
    "generate",
    "get_profile",
    "mobile_app_names",
    "profiles_in_group",
    "spec_float_names",
    "spec_int_names",
    "table2_rows",
]
