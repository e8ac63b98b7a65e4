"""Conventional parallel-access cache: the paper's baseline (Fig. 2).

All ways of the target set are read in parallel with the tag comparison, the
MUX forwards the hitting way to the *single* ECC decoder, and the other
``k-1`` speculative reads are discarded unchecked.  Those concealed reads
accumulate read disturbance in their lines until the lines are eventually
demanded, which is the reliability problem the paper formulates (Eq. 3).
"""

from __future__ import annotations

from ..config import ReadPathMode
from .engine import CONVENTIONAL
from .protected import ProtectedCache


class ConventionalCache(ProtectedCache):
    """Baseline parallel-access, single-decoder cache."""

    #: Demand deliveries pay for the full accumulated exposure (Eq. 3).
    delivery_kind = CONVENTIONAL

    @classmethod
    def read_path_mode(cls) -> ReadPathMode:
        """Parallel access with one decoder after the MUX."""
        return ReadPathMode.PARALLEL

    @classmethod
    def scheme_name(cls) -> str:
        """Scheme name used in reports and figures."""
        return "conventional"
