"""Workload models: the paper's 17 applications and their trace generator."""

from repro.workloads.applications import (
    APPLICATIONS,
    COMPUTE_BOUND_APPS,
    MEMORY_BOUND_APPS,
    ApplicationProfile,
    WorkloadClass,
    get_application,
)
from repro.workloads.generator import SHARED_TRACE_CACHE, TraceCache, TraceGenerator
from repro.workloads.trace import MemoryTrace

__all__ = [
    "APPLICATIONS",
    "ApplicationProfile",
    "COMPUTE_BOUND_APPS",
    "MEMORY_BOUND_APPS",
    "MemoryTrace",
    "SHARED_TRACE_CACHE",
    "TraceCache",
    "TraceGenerator",
    "WorkloadClass",
    "get_application",
]
