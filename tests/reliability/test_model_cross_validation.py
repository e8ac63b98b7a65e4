"""Cross-validation of the closed-form read-disturbance model against fault injection.

The kernel charges every delivery with the single-lane Eq. (3) (conventional:
``r`` reads accumulate before one ECC check) or Eq. (6) (REAP: every read is
checked and scrubbed), each a binomial tail in the block's ones count.  Here
both are averaged over the ones-count distribution of encoded random data and
compared with :class:`~repro.reliability.FaultInjectionCampaign`, which reads,
disturbs, decodes and scrubs bit-true codewords.  At an accelerated
``p_cell = 3e-3`` and ``r`` in {1, 8, 32}, every model value must fall inside
the 99.9% Clopper-Pearson interval of the injected failure rate.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import beta

from repro.ecc import HammingSECCode
from repro.reliability import FaultInjectionCampaign
from repro.reliability.binomial import (
    accumulated_failure_probability,
    reap_failure_probability,
)

P_CELL = 3e-3
#: Injected lifetimes per read count, sized so the whole module runs in ~2 s.
TRIALS = {1: 4000, 8: 1200, 32: 500}
#: Encoded random words drawn to estimate the ones-count distribution.
SAMPLED_WORDS = 4000


def clopper_pearson(failures: int, trials: int, confidence: float = 0.999):
    """Exact two-sided binomial confidence interval for ``failures / trials``."""
    alpha = 1.0 - confidence
    low = beta.ppf(alpha / 2, failures, trials - failures + 1) if failures else 0.0
    high = (
        beta.ppf(1 - alpha / 2, failures + 1, trials - failures)
        if failures < trials
        else 1.0
    )
    return low, high


@pytest.fixture(scope="module")
def code():
    return HammingSECCode(64)


@pytest.fixture(scope="module")
def ones_distribution(code):
    """``(ones counts, weights)`` of codewords of uniformly random data."""
    rng = np.random.default_rng(2019)
    ones = [
        int(code.encode((rng.random(code.data_bits) < 0.5).astype(np.uint8)).sum())
        for _ in range(SAMPLED_WORDS)
    ]
    values, counts = np.unique(ones, return_counts=True)
    return values, counts / counts.sum()


def model_rate(equation, reads: int, ones_distribution) -> float:
    values, weights = ones_distribution
    return float(
        sum(
            weight * equation(P_CELL, int(ones), reads, 1)
            for ones, weight in zip(values, weights)
        )
    )


@pytest.mark.parametrize("reads", sorted(TRIALS))
@pytest.mark.parametrize(
    "scheme, equation",
    (
        ("conventional", accumulated_failure_probability),
        ("reap", reap_failure_probability),
    ),
    ids=("eq3-conventional", "eq6-reap"),
)
def test_model_falls_inside_the_injected_interval(
    code, ones_distribution, scheme, equation, reads
):
    campaign = FaultInjectionCampaign(code, P_CELL, seed=reads)
    run = campaign.run_conventional if scheme == "conventional" else campaign.run_reap
    result = run(reads, TRIALS[reads])
    low, high = clopper_pearson(result.failures, result.trials)
    model = model_rate(equation, reads, ones_distribution)
    assert low <= model <= high, (
        f"{scheme} r={reads}: model {model:.4f} outside "
        f"[{low:.4f}, {high:.4f}] ({result.failures}/{result.trials} injected)"
    )
    # The interval must be informative, or the check is vacuous.
    assert high - low < 0.15
