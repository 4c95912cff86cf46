"""Declarative, hashable experiment specifications.

An :class:`ExperimentSpec` names one simulation completely: the
:class:`~repro.simulation.network.NetworkConfig`, the cycle budget, and
the warm-up policy.  Its :attr:`~ExperimentSpec.digest` is a SHA-256
over a canonical JSON rendering of exactly those fields (plus a spec
schema version), so two specs collide iff they would produce the same
:class:`~repro.simulation.network.NetworkResult` -- the key property
behind the content-addressed result cache (:mod:`repro.exec.cache`).

The presentation-only ``label`` is deliberately excluded from the
digest: renaming a scenario must not invalidate its cached result.

Seed discipline
---------------
Specs whose config carries ``seed=None`` are given concrete seeds by
:func:`resolve_seeds` *before* dispatch, derived per batch *position*
via ``numpy.random.SeedSequence.spawn`` from one base seed.  Because
derivation depends only on the position in the batch -- never on which
worker runs the task or in what order tasks complete -- a parallel run
is bit-identical to a serial run of the same batch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.errors import ExecutionError, ReproError
from repro.obs.manifest import config_to_jsonable
from repro.simulation.network import NetworkConfig, default_warmup
from repro.simulation.rng import DEFAULT_SEED

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "ExperimentSpec",
    "group_by_shape",
    "resolve_seeds",
    "spec_from_jsonable",
    "specs_from_file",
]

#: Bumped whenever the identity document below changes meaning; part of
#: every digest, so old cache entries can never alias new semantics.
SPEC_SCHEMA_VERSION = 1


def _canonical_json(doc) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _is_int(value) -> bool:
    """An int that is not a bool (``True`` is no cycle count)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-specified simulation scenario.

    Parameters
    ----------
    config:
        The network scenario.  A ``seed=None`` config is acceptable
        only if the spec goes through :func:`resolve_seeds` (which
        :func:`repro.exec.runner.run_many` always does) before its
        digest is used as a cache key.
    n_cycles:
        Simulated cycles (``>= 1``).
    warmup:
        Discarded warm-up cycles; ``None`` uses the simulator default
        (:func:`~repro.simulation.network.default_warmup`), which a run
        of at most 500 cycles cannot take.  The MSER-5 ``"auto"`` mode is
        not spec-able -- it doubles the work with a pilot twin, which
        defeats the point of a shared cache.
    label:
        Presentation-only name for progress output and manifests;
        **not** part of the digest.

    How a spec runs -- serially, stacked with other seeds of its
    scenario, or in a shard of any size -- never enters its digest:
    every path gives it the same result.  A spec that cannot run is
    refused when it is made, not when a batch first simulates it.
    """

    config: NetworkConfig
    n_cycles: int
    warmup: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.config, NetworkConfig):
            raise ExecutionError(
                f"spec config must be a NetworkConfig, got {type(self.config).__name__}"
            )
        if not _is_int(self.n_cycles) or self.n_cycles < 1:
            raise ExecutionError(f"n_cycles must be a positive int, got {self.n_cycles!r}")
        if self.warmup is not None:
            if not _is_int(self.warmup) or self.warmup < 0:
                raise ExecutionError(
                    f"warmup must be None or a non-negative int, got {self.warmup!r}"
                )
            if self.warmup >= self.n_cycles:
                raise ExecutionError(
                    f"warmup {self.warmup} >= n_cycles {self.n_cycles}"
                )
        elif default_warmup(self.n_cycles) >= self.n_cycles:
            raise ExecutionError(
                f"n_cycles {self.n_cycles} is within the default warm-up of "
                f"{default_warmup(self.n_cycles)} cycles; give a warmup"
            )
        if self.config.topology == "random" and self.config.width is None:
            raise ExecutionError('topology="random" requires an explicit width')

    # ------------------------------------------------------------------
    def identity(self) -> dict:
        """The exact document hashed into :attr:`digest`."""
        return {
            "spec_version": SPEC_SCHEMA_VERSION,
            "config": config_to_jsonable(self.config),
            "n_cycles": int(self.n_cycles),
            "warmup": self.warmup,
        }

    @property
    def digest(self) -> str:
        """Stable SHA-256 content digest (hex, 64 chars).

        Computed on first read and kept on the instance (the spec is
        frozen; :func:`dataclasses.replace` builds a new one).
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            try:
                blob = _canonical_json(self.identity())
            except ValueError as exc:
                raise ExecutionError(f"spec has no canonical JSON digest: {exc}") from exc
            if " at 0x" in blob:
                # the repr fallback of config_to_jsonable leaked a memory
                # address (e.g. a service model without a stable __repr__)
                raise ExecutionError(
                    "config contains an object without a value-based repr; "
                    "its digest would differ between processes"
                )
            digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest

    def to_jsonable(self) -> dict:
        """JSON-ready record (identity fields + label + digest)."""
        doc = self.identity()
        doc["label"] = self.label
        doc["digest"] = self.digest
        return doc


def resolve_seeds(
    specs: Iterable[ExperimentSpec], base_seed: int = DEFAULT_SEED
) -> List[ExperimentSpec]:
    """Give every un-seeded spec a concrete, position-derived seed.

    Seeds come from ``SeedSequence(base_seed).spawn(n)[i]`` -- a pure
    function of ``(base_seed, i)`` -- so the assignment is identical no
    matter how many workers later execute the batch.  Specs that
    already carry a seed pass through untouched.
    """
    specs = list(specs)
    children = np.random.SeedSequence(base_seed).spawn(len(specs))
    resolved = []
    for spec, child in zip(specs, children, strict=True):
        if spec.config.seed is None:
            seed = int(child.generate_state(1, dtype=np.uint64)[0])
            config = dataclasses.replace(spec.config, seed=seed)
            resolved.append(dataclasses.replace(spec, config=config))
        else:
            resolved.append(spec)
    return resolved


def group_by_shape(specs: Iterable[ExperimentSpec]) -> List[List[int]]:
    """Partition a batch into groups one stacked engine can run.

    A stack holds seeds of one scenario, so two specs share a group iff
    their identity documents (:meth:`ExperimentSpec.identity`) are equal
    once the config seed is removed.  Returns the groups as index lists,
    in first-appearance order.  Grouping is an execution detail: it
    never touches a spec or its digest.
    """
    by_scenario: dict = {}
    for i, spec in enumerate(specs):
        ident = spec.identity()
        ident["config"].pop("seed", None)
        by_scenario.setdefault(_canonical_json(ident), []).append(i)
    return list(by_scenario.values())


#: NetworkConfig fields a JSON spec file may set (plain values only;
#: explicit ServiceProcess models cannot round-trip through JSON).
_CONFIG_FIELDS = frozenset(
    f.name for f in dataclasses.fields(NetworkConfig) if f.name != "service"
)


def spec_from_jsonable(doc: dict) -> ExperimentSpec:
    """Rebuild a spec from :meth:`ExperimentSpec.to_jsonable` output.

    Accepts the same shape in hand-written spec files (``digest`` and
    ``spec_version`` keys are ignored when present).  Every malformed
    document -- a non-object ``config``, non-integer cycle counts, a
    config the model refuses, values with no JSON digest -- raises
    :class:`~repro.errors.ExecutionError`.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise ExecutionError("spec document must be a dict with a 'config' object")
    raw = dict(doc["config"])
    if raw.get("service") not in (None, "None"):
        raise ExecutionError(
            "spec files cannot carry explicit service models; "
            "use message_size / sizes+probabilities instead"
        )
    raw.pop("service", None)
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ExecutionError(f"unknown config fields in spec file: {sorted(unknown)}")
    for key in ("sizes", "probabilities"):
        if raw.get(key) is not None:
            if not isinstance(raw[key], list):
                raise ExecutionError(f"config {key} must be a list, got {raw[key]!r}")
            raw[key] = tuple(raw[key])
    try:
        config = NetworkConfig(**raw)
    except (TypeError, ValueError, ReproError) as exc:
        raise ExecutionError(f"bad config in spec file: {exc}") from exc
    spec = ExperimentSpec(
        config=config,
        n_cycles=doc.get("n_cycles"),
        warmup=doc.get("warmup"),
        label=str(doc.get("label", "")),
    )
    _ = spec.digest  # a document with no canonical digest fails here, not in a caller
    return spec


def specs_from_file(path) -> List[ExperimentSpec]:
    """Load a JSON spec file: a list of spec documents."""
    from pathlib import Path

    text = Path(path).read_text()
    try:
        docs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExecutionError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(docs, list) or not docs:
        raise ExecutionError(f"spec file {path} must hold a non-empty JSON list")
    return [spec_from_jsonable(doc) for doc in docs]
