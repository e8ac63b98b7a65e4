"""Declarative campaign and job specifications.

A *campaign* is a cross-product of (workload × swept-parameter point), each
point evaluated as one *job*: a baseline-vs-alternatives scheme comparison on
a single workload trace, exactly what :func:`repro.sim.compare_schemes`
computes.  Jobs are deterministic given their settings (the trace generator
and fault models are seeded), so a job's content hash doubles as a cache key
in the result store: the same spec always maps to the same key, and a key
hit means the cached result is bit-identical to re-executing the job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from typing import Any, Mapping, Sequence

from ..core import ProtectionScheme
from ..errors import CampaignError
from ..sim.experiment import ExperimentSettings
from .hashing import content_hash

#: Job/record schema version, bumped whenever the serialised layout changes
#: so stale stores fail loudly instead of aliasing new keys.
SCHEMA_VERSION = 1

#: Swept values must be JSON scalars so points hash canonically.
_SCALAR_TYPES = (bool, int, float, str, type(None))

#: Top-level ``ExperimentSettings`` fields a campaign may sweep directly.
#: Nested configuration fields are swept through *dotted paths* instead
#: (``l2_config.associativity``, ``l2_config.ecc.kind``,
#: ``mtj.read_current_ua``, ...), validated against the base settings by
#: :func:`validate_sweep_path`.
SWEEPABLE_FIELDS = frozenset(
    f.name for f in fields(ExperimentSettings) if f.name not in ("l2_config", "mtj")
)


def _field_names(obj: Any) -> list[str]:
    return [f.name for f in fields(obj)]


def validate_sweep_path(base: Any, path: str) -> None:
    """Check that ``path`` names a sweepable (possibly nested) scalar field.

    Walks the dataclass structure of ``base`` (normally an
    :class:`~repro.sim.ExperimentSettings`) segment by segment.  Errors name
    the exact unknown segment and list the valid choices at that level, so
    ``l2_config.assoc`` fails with *"unknown segment 'assoc'"* rather than a
    generic rejection.

    Raises:
        CampaignError: for empty segments, unknown segments, descending
            through a scalar, or a path that stops at a nested config.
    """
    segments = path.split(".")
    current = base
    for depth, segment in enumerate(segments):
        if not segment:
            raise CampaignError(
                f"cannot sweep {path!r}: empty path segment"
            )
        if not is_dataclass(current):
            prefix = ".".join(segments[:depth])
            raise CampaignError(
                f"cannot sweep {path!r}: {prefix!r} is a scalar field with no "
                f"sub-fields (drop the trailing '.{segment}')"
            )
        names = _field_names(current)
        if segment not in names:
            prefix = ".".join(segments[: depth + 1])
            where = (
                f"in {'.'.join(segments[:depth])!r}" if depth else "at the top level"
            )
            raise CampaignError(
                f"cannot sweep {path!r}: unknown segment {segment!r} "
                f"({prefix!r}) {where}; valid fields: {sorted(names)}"
            )
        current = getattr(current, segment)
    if is_dataclass(current):
        raise CampaignError(
            f"cannot sweep {path!r}: it names a whole nested configuration; "
            f"sweep one of its fields instead: "
            f"{sorted(f'{path}.{name}' for name in _field_names(current))}"
        )


def _replace_path(obj: Any, segments: Sequence[str], value: Any) -> Any:
    """Rebuild ``obj`` with the field at the segment path replaced.

    Frozen dataclasses rebuild level by level with
    :func:`dataclasses.replace`, so each level re-validates itself (and
    coerces enum strings) in its ``__post_init__`` exactly as a hand-built
    configuration would.
    """
    head = segments[0]
    if len(segments) == 1:
        replacement = value
    else:
        replacement = _replace_path(getattr(obj, head), segments[1:], value)
    try:
        return replace(obj, **{head: replacement})
    except (TypeError, ValueError) as exc:
        raise CampaignError(
            f"cannot apply swept value {value!r} to {'.'.join(segments)!r}: {exc}"
        ) from exc


def apply_sweep_point(
    settings: ExperimentSettings, point: Sequence[tuple[str, Any]]
) -> ExperimentSettings:
    """Return ``settings`` with every ``(path, value)`` of a point applied.

    Paths may be plain :class:`~repro.sim.ExperimentSettings` fields or
    dotted paths into the nested ``l2_config``/``mtj`` configurations; each
    path is validated against ``settings`` before application.
    """
    for path, value in point:
        validate_sweep_path(settings, path)
        settings = _replace_path(settings, path.split("."), value)
    return settings


def _normalise_scheme(scheme: ProtectionScheme | str) -> str:
    try:
        return ProtectionScheme(scheme).value
    except ValueError as exc:
        raise CampaignError(f"unknown protection scheme: {scheme!r}") from exc


def _normalise_point(point: Any) -> tuple[tuple[str, Any], ...]:
    items = point.items() if isinstance(point, Mapping) else point
    normalised = []
    for name, value in items:
        if not isinstance(name, str) or not name:
            raise CampaignError("sweep parameter names must be non-empty strings")
        if not isinstance(value, _SCALAR_TYPES):
            raise CampaignError(
                f"swept value for {name!r} must be a JSON scalar, got {type(value).__name__}"
            )
        normalised.append((name, value))
    return tuple(normalised)


@dataclass(frozen=True)
class JobSpec:
    """One unit of campaign work: compare schemes on one workload.

    Attributes:
        workload: SPEC-named workload profile to evaluate.
        settings: Fully resolved experiment settings for this job (sweep
            point already applied, seed already strided).
        baseline: Scheme the alternatives are normalised against.
        alternatives: Schemes evaluated against the baseline.
        point: The swept-parameter assignment this job realises, as ordered
            ``(name, value)`` pairs; empty for unswept campaigns.  Part of
            the job identity so reports can group results by point.
    """

    workload: str
    settings: ExperimentSettings = field(default_factory=ExperimentSettings)
    baseline: str = ProtectionScheme.CONVENTIONAL.value
    alternatives: tuple[str, ...] = (ProtectionScheme.REAP.value,)
    point: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.workload:
            raise CampaignError("job workload must be non-empty")
        object.__setattr__(self, "baseline", _normalise_scheme(self.baseline))
        if not self.alternatives:
            raise CampaignError("job needs at least one alternative scheme")
        object.__setattr__(
            self,
            "alternatives",
            tuple(_normalise_scheme(s) for s in self.alternatives),
        )
        object.__setattr__(self, "point", _normalise_point(self.point))

    @cached_property
    def key(self) -> str:
        """Content hash identifying this job in the result store (computed
        once: the fields are frozen)."""
        return content_hash({"schema": SCHEMA_VERSION, "job": self.to_dict()})

    @property
    def point_label(self) -> str:
        """Human-readable sweep-point label, e.g. ``p_cell=1e-07``."""
        if not self.point:
            return "-"
        return ",".join(f"{name}={value}" for name, value in self.point)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a plain dictionary."""
        return {
            "workload": self.workload,
            "settings": self.settings.to_dict(),
            "baseline": self.baseline,
            "alternatives": list(self.alternatives),
            "point": [[name, value] for name, value in self.point],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Build from a plain dictionary (inverse of :meth:`to_dict`)."""
        try:
            return cls(
                workload=data["workload"],
                settings=ExperimentSettings.from_dict(data["settings"]),
                baseline=data.get("baseline", ProtectionScheme.CONVENTIONAL.value),
                alternatives=tuple(data.get("alternatives", ("reap",))),
                point=tuple((n, v) for n, v in data.get("point", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"malformed job payload: {exc}") from exc


@dataclass(frozen=True)
class CampaignSpec:
    """A cross-product of workloads, schemes, and swept parameters.

    Attributes:
        name: Campaign name (reporting only; not part of job identity).
        workloads: Workload profile names, evaluated in order.
        base_settings: Settings shared by every job before the sweep point
            is applied.
        baseline: Baseline scheme for every comparison.
        alternatives: Alternative schemes for every comparison.
        sweep: Ordered ``(parameter, values)`` pairs; the campaign evaluates
            the full cross-product of the value lists.  Parameters are
            scalar :class:`ExperimentSettings` fields or dotted paths into
            the nested configurations (``l2_config.associativity``,
            ``l2_config.ecc.kind``, ``mtj.read_current_ua``).  A mapping is
            also accepted and normalised.
        stride_seed: Offset each job's seed by its workload index (matching
            :class:`repro.sim.ExperimentRunner`), so workloads draw
            independent traces.
    """

    name: str
    workloads: tuple[str, ...]
    base_settings: ExperimentSettings = field(default_factory=ExperimentSettings)
    baseline: str = ProtectionScheme.CONVENTIONAL.value
    alternatives: tuple[str, ...] = (ProtectionScheme.REAP.value,)
    sweep: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    stride_seed: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign name must be non-empty")
        # tuple() of a bare string would split it into one-letter names.
        for name in ("workloads", "alternatives"):
            value = getattr(self, name)
            if isinstance(value, str):
                raise CampaignError(
                    f"campaign {name} must be a list of names, not the string {value!r}"
                )
        object.__setattr__(self, "workloads", tuple(self.workloads))
        if not self.workloads:
            raise CampaignError("campaign needs at least one workload")
        object.__setattr__(self, "baseline", _normalise_scheme(self.baseline))
        if not self.alternatives:
            raise CampaignError("campaign needs at least one alternative scheme")
        object.__setattr__(
            self,
            "alternatives",
            tuple(_normalise_scheme(s) for s in self.alternatives),
        )
        sweep = self.sweep
        items = sweep.items() if isinstance(sweep, Mapping) else sweep
        normalised = []
        for parameter, values in items:
            if "." in parameter:
                validate_sweep_path(self.base_settings, parameter)
            elif parameter not in SWEEPABLE_FIELDS:
                raise CampaignError(
                    f"cannot sweep {parameter!r}; sweepable fields: "
                    f"{sorted(SWEEPABLE_FIELDS)}, or a dotted path into "
                    "'l2_config' / 'mtj' (e.g. 'l2_config.associativity', "
                    "'l2_config.ecc.kind')"
                )
            if isinstance(values, str):
                raise CampaignError(
                    f"sweep for {parameter!r} must be a list of values, "
                    f"not the string {values!r}"
                )
            values = tuple(values)
            if not values:
                raise CampaignError(f"sweep for {parameter!r} has no values")
            for value in values:
                if not isinstance(value, _SCALAR_TYPES):
                    raise CampaignError(
                        f"swept value for {parameter!r} must be a JSON scalar"
                    )
            normalised.append((parameter, values))
        object.__setattr__(self, "sweep", tuple(normalised))

    def points(self) -> list[tuple[tuple[str, Any], ...]]:
        """All sweep points, in cross-product order; ``[()]`` when unswept."""
        if not self.sweep:
            return [()]
        names = [parameter for parameter, _ in self.sweep]
        value_lists = [values for _, values in self.sweep]
        return [
            tuple(zip(names, combination))
            for combination in itertools.product(*value_lists)
        ]

    def settings_at(self, point: Sequence[tuple[str, Any]]) -> ExperimentSettings:
        """Base settings with one sweep point applied (dotted paths included)."""
        return apply_sweep_point(self.base_settings, point)

    def jobs(self) -> list[JobSpec]:
        """Expand the campaign into its job list (points outer, workloads inner)."""
        expanded = []
        for point in self.points():
            point_settings = self.settings_at(point)
            for index, workload in enumerate(self.workloads):
                seed = point_settings.seed + index if self.stride_seed else point_settings.seed
                expanded.append(
                    JobSpec(
                        workload=workload,
                        settings=replace(point_settings, seed=seed),
                        baseline=self.baseline,
                        alternatives=self.alternatives,
                        point=tuple(point),
                    )
                )
        return expanded

    @property
    def num_jobs(self) -> int:
        """Total number of jobs the campaign expands to."""
        num_points = 1
        for _, values in self.sweep:
            num_points *= len(values)
        return num_points * len(self.workloads)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a plain dictionary."""
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "base_settings": self.base_settings.to_dict(),
            "baseline": self.baseline,
            "alternatives": list(self.alternatives),
            "sweep": [[parameter, list(values)] for parameter, values in self.sweep],
            "stride_seed": self.stride_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build from a plain dictionary (inverse of :meth:`to_dict`)."""
        try:
            return cls(
                name=data["name"],
                workloads=data["workloads"],
                base_settings=ExperimentSettings.from_dict(data.get("base_settings", {})),
                baseline=data.get("baseline", ProtectionScheme.CONVENTIONAL.value),
                alternatives=data.get("alternatives", ("reap",)),
                sweep=tuple(
                    (parameter, values) for parameter, values in data.get("sweep", ())
                ),
                stride_seed=bool(data.get("stride_seed", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"malformed campaign payload: {exc}") from exc
