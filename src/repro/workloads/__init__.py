"""Workload traces and generators (the reproduction's SPEC CPU2006 substitute).

Public surface:

* :class:`Trace`, :class:`TraceRecord`, :class:`AccessKind` — containers and I/O.
* CPU-level synthetic generators (:func:`sequential_trace`,
  :func:`strided_trace`, :func:`pointer_chase_trace`, :func:`hot_loop_trace`,
  :func:`mixed_trace`) for the hierarchy front end.
* :class:`SPECWorkloadProfile`, :data:`SPEC_CPU2006_PROFILES`,
  :func:`get_profile`, :func:`all_profiles`, :data:`FIGURE3_WORKLOADS` — the
  named workload profiles.
* :func:`generate_l2_trace` — L2-level trace materialisation.
* Streaming trace I/O (:mod:`repro.workloads.streams`): :func:`open_trace`,
  :func:`read_trace`, :class:`TraceSource`, :class:`BinaryTraceWriter`,
  :class:`BinaryTraceSource`, :class:`TextTraceSource` — out-of-core trace
  storage, external-format readers and segmented ingestion.
* :class:`ArtifactCache` (:mod:`repro.workloads.artifacts`) — cross-job
  amortisation of decoded traces.
"""

from .artifacts import ARTIFACT_CACHE_ENV, ArtifactCache
from .generator import generate_l2_trace
from .spec_profiles import (
    FIGURE3_WORKLOADS,
    SPEC_CPU2006_PROFILES,
    SPECWorkloadProfile,
    all_profiles,
    get_profile,
)
from .synthetic import (
    hot_loop_trace,
    mixed_trace,
    pointer_chase_trace,
    sequential_trace,
    strided_trace,
)
from .streams import (
    DEFAULT_SEGMENT_ACCESSES,
    FORMAT_CHOICES,
    BinaryTraceSource,
    BinaryTraceWriter,
    TextTraceSource,
    TraceSource,
    detect_format,
    open_trace,
    read_trace,
)
from .trace import AccessKind, Trace, TraceRecord

__all__ = [
    "ArtifactCache",
    "ARTIFACT_CACHE_ENV",
    "Trace",
    "TraceRecord",
    "AccessKind",
    "TraceSource",
    "BinaryTraceWriter",
    "BinaryTraceSource",
    "TextTraceSource",
    "open_trace",
    "read_trace",
    "detect_format",
    "DEFAULT_SEGMENT_ACCESSES",
    "FORMAT_CHOICES",
    "sequential_trace",
    "strided_trace",
    "pointer_chase_trace",
    "hot_loop_trace",
    "mixed_trace",
    "SPECWorkloadProfile",
    "SPEC_CPU2006_PROFILES",
    "FIGURE3_WORKLOADS",
    "get_profile",
    "all_profiles",
    "generate_l2_trace",
]
