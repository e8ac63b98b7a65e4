"""repro — reproduction of the DATE 2019 REAP-cache paper.

"Enhancing Reliability of STT-MRAM Caches by Eliminating Read Disturbance
Accumulation" (Cheshmikhani, Farbeh, Asadi).

The package is organised bottom-up:

* :mod:`repro.mram` — STT-MRAM device models (read disturbance, write
  errors, retention, process variation, bit-true arrays).
* :mod:`repro.ecc` — block ECC codecs and their hardware cost model.
* :mod:`repro.cache` — set-associative cache substrate, read-path
  organisations, two-level hierarchy.
* :mod:`repro.reliability` — the paper's Eqs. (2)/(3)/(6), accumulation
  tracking, MTTF, Monte-Carlo fault injection.
* :mod:`repro.energy` — NVSim-like energy/area/latency model.
* :mod:`repro.core` — the protection schemes: conventional, **REAP**,
  serial, restore.
* :mod:`repro.workloads` — traces and SPEC CPU2006-named synthetic profiles.
* :mod:`repro.sim` — trace-driven engine and experiment orchestration.
* :mod:`repro.campaign` — parallel, resumable experiment campaigns with a
  persistent content-addressed result store.
* :mod:`repro.analysis` — figure/table builders (Fig. 3, Fig. 5, Fig. 6,
  Table I, overhead reports).

Quickstart::

    from repro import ProtectionScheme, compare_schemes

    comparison = compare_schemes("perlbench")
    print(comparison.mttf_improvement("reap"))
    print(comparison.energy_overhead_percent("reap"))
"""

from .campaign import (
    CampaignResult,
    CampaignSpec,
    JobSpec,
    ResultStore,
    ShardedResultStore,
    TCPBackend,
    diff_stores,
    merge_stores,
    open_store,
    run_campaign,
    run_worker,
)
from .config import (
    CacheLevelConfig,
    ECCConfig,
    ECCKind,
    HierarchyConfig,
    MemoryTechnology,
    MTJConfig,
    ReadPathMode,
    ReplacementPolicyName,
    SimulationConfig,
    WritePolicy,
    paper_hierarchy,
    paper_l1d_config,
    paper_l1i_config,
    paper_l2_config,
    paper_simulation_config,
)
from .core import (
    ConventionalCache,
    DataValueProfile,
    ProtectionScheme,
    REAPCache,
    RestoreCache,
    SerialAccessCache,
    build_protected_cache,
)
from .errors import ReproError
from .sim import (
    ExperimentRunner,
    ExperimentSettings,
    compare_schemes,
    run_cpu_trace,
    run_l2_trace,
    run_workload,
    supports_fast_path,
)
from .workloads import (
    SPEC_CPU2006_PROFILES,
    SPECWorkloadProfile,
    Trace,
    generate_l2_trace,
    get_profile,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # configuration
    "MTJConfig",
    "ECCConfig",
    "ECCKind",
    "CacheLevelConfig",
    "HierarchyConfig",
    "SimulationConfig",
    "MemoryTechnology",
    "WritePolicy",
    "ReplacementPolicyName",
    "ReadPathMode",
    "paper_l1i_config",
    "paper_l1d_config",
    "paper_l2_config",
    "paper_hierarchy",
    "paper_simulation_config",
    # schemes
    "ProtectionScheme",
    "ConventionalCache",
    "REAPCache",
    "SerialAccessCache",
    "RestoreCache",
    "build_protected_cache",
    "DataValueProfile",
    # workloads
    "Trace",
    "SPECWorkloadProfile",
    "SPEC_CPU2006_PROFILES",
    "get_profile",
    "generate_l2_trace",
    # simulation
    "ExperimentSettings",
    "ExperimentRunner",
    "compare_schemes",
    "run_workload",
    "run_l2_trace",
    "supports_fast_path",
    "run_cpu_trace",
    # campaigns
    "CampaignSpec",
    "CampaignResult",
    "JobSpec",
    "ResultStore",
    "ShardedResultStore",
    "open_store",
    "merge_stores",
    "diff_stores",
    "TCPBackend",
    "run_worker",
    "run_campaign",
]
