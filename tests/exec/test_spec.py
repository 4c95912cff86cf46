"""Experiment-spec and digest tests."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.exec.spec import (
    ExperimentSpec,
    resolve_seeds,
    spec_from_jsonable,
    specs_from_file,
)
from repro.simulation.network import MAX_PORTS, NetworkConfig


def spec(**overrides):
    fields = dict(k=2, n_stages=3, p=0.5, topology="random", width=32, seed=7)
    fields.update(overrides)
    return ExperimentSpec(config=NetworkConfig(**fields), n_cycles=2_000)


class TestDigest:
    def test_equal_specs_equal_digests(self):
        assert spec().digest == spec().digest
        assert len(spec().digest) == 64

    def test_config_changes_change_digest(self):
        base = spec().digest
        assert spec(p=0.6).digest != base
        assert spec(seed=8).digest != base
        assert spec(n_stages=4).digest != base

    def test_cycles_and_warmup_in_digest(self):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=32, seed=7)
        a = ExperimentSpec(cfg, n_cycles=2_000)
        b = ExperimentSpec(cfg, n_cycles=3_000)
        c = ExperimentSpec(cfg, n_cycles=2_000, warmup=100)
        assert len({a.digest, b.digest, c.digest}) == 3

    def test_label_excluded_from_digest(self):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=32, seed=7)
        assert (
            ExperimentSpec(cfg, 2_000, label="x").digest
            == ExperimentSpec(cfg, 2_000, label="y").digest
        )

    def test_unstable_repr_rejected(self):
        class Opaque:
            pass  # default repr carries a memory address

        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=32, seed=7)
        bad = dataclasses.replace(cfg, track_limit=cfg.track_limit)
        object.__setattr__(bad, "service", Opaque())
        with pytest.raises(ExecutionError):
            ExperimentSpec(bad, 2_000).digest


class TestDigestMemo:
    """The digest is computed once per instance and never goes stale."""

    def test_many_reads_hash_once(self, monkeypatch):
        import repro.exec.spec as spec_mod

        calls = []
        real = spec_mod._canonical_json

        def counting(doc):
            calls.append(doc)
            return real(doc)

        monkeypatch.setattr(spec_mod, "_canonical_json", counting)
        s = spec()
        assert len({s.digest for _ in range(9)}) == 1
        assert len(calls) == 1

    def test_replaced_and_pickled_specs_keep_the_right_digest(self):
        import pickle

        s = spec()
        memo = s.digest
        assert dataclasses.replace(s, label="renamed").digest == memo
        longer = dataclasses.replace(s, n_cycles=3_000)
        assert longer.digest == ExperimentSpec(s.config, n_cycles=3_000).digest != memo
        reseeded = dataclasses.replace(s, config=dataclasses.replace(s.config, seed=8))
        assert reseeded.digest == spec(seed=8).digest != memo
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s and clone.digest == memo
        cold = pickle.loads(pickle.dumps(spec(p=0.3)))
        assert cold.digest == spec(p=0.3).digest

    def test_memo_stays_out_of_equality_and_repr(self):
        read, unread = spec(), spec()
        read.digest
        assert read == unread and repr(read) == repr(unread)

    def test_pinned_smoke_digests_still_load(self):
        from repro.exec.scenarios import load_scenarios

        for s in load_scenarios("smoke"):
            assert s.digest == dataclasses.replace(s).digest


class TestValidation:
    def test_bad_cycles(self):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=32)
        with pytest.raises(ExecutionError):
            ExperimentSpec(cfg, n_cycles=0)

    def test_bad_warmup(self):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=32)
        with pytest.raises(ExecutionError):
            ExperimentSpec(cfg, n_cycles=1_000, warmup=1_000)
        with pytest.raises(ExecutionError):
            ExperimentSpec(cfg, n_cycles=1_000, warmup=-1)

    def test_config_type_checked(self):
        with pytest.raises(ExecutionError):
            ExperimentSpec(config={"k": 2}, n_cycles=1_000)


class TestResolveSeeds:
    def unseeded(self, p):
        return ExperimentSpec(
            NetworkConfig(k=2, n_stages=3, p=p, topology="random", width=32),
            n_cycles=1_000,
        )

    def test_deterministic_by_position(self):
        specs = [self.unseeded(p) for p in (0.2, 0.4, 0.6)]
        a = resolve_seeds(specs, base_seed=11)
        b = resolve_seeds(specs, base_seed=11)
        assert [s.config.seed for s in a] == [s.config.seed for s in b]
        assert all(s.config.seed is not None for s in a)

    def test_seeds_distinct_and_base_dependent(self):
        specs = [self.unseeded(p) for p in (0.2, 0.4, 0.6)]
        seeds = [s.config.seed for s in resolve_seeds(specs, base_seed=11)]
        assert len(set(seeds)) == 3
        other = [s.config.seed for s in resolve_seeds(specs, base_seed=12)]
        assert seeds != other

    def test_explicit_seeds_untouched(self):
        explicit = spec(seed=99)
        out = resolve_seeds([explicit, self.unseeded(0.3)])
        assert out[0] is explicit
        assert out[1].config.seed is not None


class TestJsonRoundTrip:
    def test_roundtrip_preserves_digest(self):
        original = ExperimentSpec(
            NetworkConfig(
                k=2, n_stages=4, p=0.25, sizes=(2, 4), probabilities=(0.5, 0.5),
                topology="random", width=64, seed=5,
            ),
            n_cycles=3_000,
            warmup=300,
            label="mix",
        )
        rebuilt = spec_from_jsonable(json.loads(json.dumps(original.to_jsonable())))
        assert rebuilt.digest == original.digest
        assert rebuilt.label == "mix"

    def test_unknown_fields_rejected(self):
        doc = spec().to_jsonable()
        doc["config"]["bogus"] = 1
        with pytest.raises(ExecutionError):
            spec_from_jsonable(doc)

    def test_spec_file(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([spec().to_jsonable(), spec(p=0.3).to_jsonable()]))
        specs = specs_from_file(path)
        assert len(specs) == 2
        assert specs[0].digest != specs[1].digest

    def test_bad_spec_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ExecutionError):
            specs_from_file(path)


#: config changes that make a valid document one that cannot run: wrong
#: types (bools included), values out of range, unknown names, shapes no
#: topology takes and size mixes no service takes
UNRUNNABLE_CONFIGS = {
    "k string": {"k": "x"},
    "k 1": {"k": 1},
    "k float": {"k": 2.5},
    "no stages": {"n_stages": 0},
    "p above 1": {"p": 5.0},
    "p negative": {"p": -0.5},
    "p string": {"p": "0.5"},
    "p bool": {"p": True},
    "q above 1": {"topology": "omega", "width": None, "q": 2.0},
    "q negative": {"q": -0.1},
    "bulk 0": {"bulk_size": 0},
    "message_size 0": {"message_size": 0},
    "buffer 0": {"buffer_capacity": 0},
    "track_limit float": {"track_limit": 1.5},
    "unknown topology": {"topology": "nope"},
    "unknown transfer": {"transfer": "nope"},
    "random without width": {"topology": "random", "width": None},
    "random width 0": {"topology": "random", "width": 0},
    "random width 7": {"topology": "random", "width": 7},
    "random width 8 at k=3": {"k": 3, "topology": "random", "width": 8},
    "omega width 16 at 3 stages": {"topology": "omega", "n_stages": 3, "width": 16},
    "banyan of 17 stages": {"topology": "omega", "width": None, "n_stages": 17},
    "banyan of 30 stages": {"topology": "omega", "width": None, "n_stages": 30},
    "size 0": {"sizes": [0, 2], "probabilities": [0.5, 0.5]},
    "probabilities sum to 3/5": {"sizes": [1, 2], "probabilities": [0.3, 0.3]},
    "one probability for two sizes": {"sizes": [1, 2], "probabilities": [1.0]},
    "seed string": {"seed": "x"},
    "seed negative": {"seed": -1},
    "seed float": {"seed": 1.5},
    "seed bool": {"seed": True},
}

#: spec documents the service and scenario files must refuse with an
#: ExecutionError: (what is wrong, the change to a valid document)
MALFORMED = {
    "n_cycles string": {"n_cycles": "abc"},
    "n_cycles float": {"n_cycles": 1.5},
    "n_cycles bool": {"n_cycles": True},
    "n_cycles missing": {"n_cycles": None},
    "warmup string": {"warmup": "x"},
    "warmup float": {"warmup": 10.0},
    "config list": {"config": [1, 2]},
    "sizes int": {"config": {"sizes": 5, "probabilities": [1.0]}},
    "probabilities string": {"config": {"sizes": [1, 2], "probabilities": "ab"}},
    "message_size and sizes": {
        "config": {"message_size": 2, "sizes": [1, 2], "probabilities": [0.5, 0.5]}
    },
    "nan load": {"config": {"p": float("nan")}},
    **{f"config {name}": {"config": change} for name, change in UNRUNNABLE_CONFIGS.items()},
    "short run without warmup": {"n_cycles": 300},
    "500 cycles without warmup": {"n_cycles": 500},
}


def malformed_document(change: dict) -> dict:
    doc = spec().to_jsonable()
    for key, value in change.items():
        if key == "config" and isinstance(value, dict):
            doc["config"].update(value)
        elif value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


#: any value ``json.loads`` can produce, NaN and the infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(NetworkConfig))


@st.composite
def spec_documents(draw) -> dict:
    """A valid spec document with a few keys overwritten by JSON values."""
    doc = spec().to_jsonable()
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3, unique=True)):
        doc["config"][key] = draw(JSON_VALUES)
    top = ["config", "n_cycles", "warmup", "label"]
    for key in draw(st.lists(st.sampled_from(top), max_size=2, unique=True)):
        doc[key] = draw(JSON_VALUES)
    return doc


class TestMalformedDocuments:
    @pytest.mark.parametrize("change", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_refused_with_an_execution_error(self, change):
        with pytest.raises(ExecutionError):
            spec_from_jsonable(malformed_document(change))

    def test_network_size_limit(self):
        # 16 stages of 2**16 ports are exactly MAX_PORTS; one more stage is over
        doc = {"config": {"k": 2, "n_stages": 16, "p": 0.5}, "n_cycles": 1000}
        assert spec_from_jsonable(doc).config.n_stages * 2**16 == MAX_PORTS
        doc["config"]["n_stages"] = 30
        with pytest.raises(ExecutionError, match="ports"):
            spec_from_jsonable(doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=spec_documents() | JSON_VALUES)
    def test_any_json_document_gives_a_spec_or_an_execution_error(self, doc):
        try:
            rebuilt = spec_from_jsonable(doc)
        except ExecutionError:
            return
        assert isinstance(rebuilt, ExperimentSpec)
        assert len(rebuilt.digest) == 64
