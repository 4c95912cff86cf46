"""Every ``NetworkConfig`` field but the seed belongs to the scenario.

A stack holds seeds of one scenario.  Changing any other field of a
config must therefore change the spec's digest, put the two specs in
different :func:`~repro.exec.spec.group_by_shape` groups, and make the
stacked and streamed drivers refuse the pair.  :data:`ALTERNATIVES`
names a second value for every field, so a field added to
``NetworkConfig`` fails :func:`test_every_field_but_seed_has_an_alternative`
until it is classified here.
"""

import dataclasses

import pytest

from repro.errors import ExecutionError, SimulationError
from repro.exec.context import ExecutionContext
from repro.exec.spec import ExperimentSpec, group_by_shape, spec_from_jsonable
from repro.service.deterministic import DeterministicService
from repro.simulation.batched import run_stacked
from repro.simulation.network import NetworkConfig
from repro.simulation.streamed import run_streamed

N_CYCLES = 200
WARMUP = 20

BASE = NetworkConfig(k=2, n_stages=3, p=0.4, topology="omega", seed=1)
SIZE_MIX = dict(sizes=(1, 3), probabilities=(0.5, 0.5))

#: field -> (a second value, the changes to BASE under which both values
#: make a valid config)
ALTERNATIVES = {
    "k": (4, {}),
    "n_stages": (2, {}),
    "p": (0.3, {}),
    "message_size": (2, {}),
    "sizes": ((1, 2), SIZE_MIX),
    "probabilities": ((0.4, 0.6), SIZE_MIX),
    "service": (DeterministicService(2), {}),
    "bulk_size": (2, {}),
    "q": (0.3, {}),
    "topology": ("butterfly", {}),
    "width": (8, dict(topology="random", width=16)),
    "transfer": ("store_forward", {}),
    "buffer_capacity": (4, {}),
    "track_limit": (1_000, {}),
}


def declared_fields(config_cls=NetworkConfig) -> set:
    return {f.name for f in dataclasses.fields(config_cls)}


def unclassified(config_cls) -> set:
    """Fields of ``config_cls`` other than the seed with no alternative."""
    return declared_fields(config_cls) - {"seed"} - set(ALTERNATIVES)


def test_every_field_but_seed_has_an_alternative():
    assert set(ALTERNATIVES) == declared_fields() - {"seed"}


def test_new_field_without_an_alternative_is_caught():
    """A field added to the config enters the digest and the grouping
    key with no list to update, and the table check names it until it
    is classified here."""
    grown = dataclasses.make_dataclass(
        "GrownConfig", [("bulk_mix", int, 1)], bases=(NetworkConfig,), frozen=True
    )
    assert unclassified(NetworkConfig) == set()
    assert unclassified(grown) == {"bulk_mix"}

    kept = {name: getattr(BASE, name) for name in declared_fields()}
    specs = [ExperimentSpec(grown(**kept, bulk_mix=v), N_CYCLES, WARMUP) for v in (1, 2)]
    assert specs[0].identity()["config"]["bulk_mix"] == 1
    assert specs[0].digest != specs[1].digest
    assert group_by_shape(specs) == [[0], [1]]


def test_execution_knobs_stay_off_the_config():
    """How a batch runs (workers, shards, backend) must never share a
    name with a config field, and so with a digest-bearing one."""
    knobs = {f.name for f in dataclasses.fields(ExecutionContext)}
    assert not knobs & declared_fields()


def test_backend_is_an_execution_knob():
    """The kernel backend picks how a run is computed, not what it
    computes: it is an ``ExecutionContext`` knob, and a spec document
    whose config names it is refused rather than digested."""
    assert "backend" in {f.name for f in dataclasses.fields(ExecutionContext)}
    assert "backend" not in declared_fields()
    doc = ExperimentSpec(BASE, N_CYCLES, WARMUP).to_jsonable()
    doc["config"]["backend"] = "numpy"
    with pytest.raises(ExecutionError, match="unknown config fields.*backend"):
        spec_from_jsonable(doc)


def test_identity_holds_exactly_the_declared_fields():
    spec = ExperimentSpec(BASE, N_CYCLES, WARMUP)
    assert set(spec.identity()["config"]) == declared_fields()


@pytest.mark.parametrize("name", sorted(ALTERNATIVES))
def test_field_belongs_to_the_scenario(name):
    value, setup = ALTERNATIVES[name]
    base = dataclasses.replace(BASE, **setup)
    other = dataclasses.replace(base, **{name: value})
    reseeded = dataclasses.replace(base, seed=2)
    specs = [ExperimentSpec(config, N_CYCLES, WARMUP) for config in (base, other, reseeded)]

    assert specs[0].digest != specs[1].digest
    assert group_by_shape(specs) == [[0, 2], [1]]
    for run in (run_stacked, run_streamed):
        with pytest.raises(SimulationError, match=f"one scenario: {name}="):
            run([base, other], N_CYCLES, warmup=WARMUP)
