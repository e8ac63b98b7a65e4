"""Shared fixtures for the benchmark harness.

The expensive piece — running every SPEC-named workload through the
conventional and REAP caches — is done once per pytest session and shared by
the Fig. 5 and Fig. 6 benches.  Benchmarked callables then rebuild the paper's
series from those comparisons (and a couple of benches time a full
single-workload simulation directly, so the harness also reports simulation
throughput).

Trace length is configurable through the ``REPRO_BENCH_ACCESSES`` environment
variable (default 50 000 L2 accesses per workload); longer traces deepen the
concealed-read tails and push the Fig. 5 factors closer to the paper's
full-length-run values.

Setting ``REPRO_TELEMETRY`` to a JSONL path runs the whole bench session
inside a telemetry scope — CI uses this to assert the fast-path throughput
floors are still met with instrumentation enabled, so the "zero overhead"
claim is checked against the recorded floors, not just asserted.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.config import paper_l2_config
from repro.core import ProtectionScheme
from repro.sim import ExperimentRunner, ExperimentSettings
from repro.workloads import all_profiles

# The streaming bench segments its replay with the sim suite's helper.
_SIM_TESTS = Path(__file__).resolve().parent.parent / "tests" / "sim"
if str(_SIM_TESTS) not in sys.path:
    sys.path.insert(0, str(_SIM_TESTS))


def pytest_configure(config):
    """Open a session-wide telemetry scope when ``REPRO_TELEMETRY`` is set."""
    path = os.environ.get("REPRO_TELEMETRY")
    if path:
        from repro.telemetry import enable_telemetry_for_process

        config._repro_telemetry = enable_telemetry_for_process(
            path, session="bench"
        )


def pytest_unconfigure(config):
    session = getattr(config, "_repro_telemetry", None)
    if session is not None:
        session.close()


def bench_num_accesses() -> int:
    """Per-workload trace length used by the benches."""
    return int(os.environ.get("REPRO_BENCH_ACCESSES", "50000"))


def bench_settings(num_accesses: int | None = None, **overrides) -> ExperimentSettings:
    """Paper-default experiment settings at bench scale."""
    params = dict(
        l2_config=paper_l2_config(),
        p_cell=1e-8,
        num_accesses=num_accesses or bench_num_accesses(),
        ones_count=100,
        seed=1,
    )
    params.update(overrides)
    return ExperimentSettings(**params)


@pytest.fixture(scope="session")
def suite_comparisons():
    """Conventional-vs-REAP comparisons for the whole SPEC-named suite."""
    runner = ExperimentRunner(
        [profile.name for profile in all_profiles()],
        settings=bench_settings(),
        baseline=ProtectionScheme.CONVENTIONAL,
        alternatives=(ProtectionScheme.REAP,),
    )
    return runner.run()
