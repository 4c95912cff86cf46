"""End-to-end network simulator tests: conservation, stationarity,
agreement with the exact first-stage analysis, and the model options."""

import numpy as np
import pytest

from repro.core import formulas
from repro.errors import ModelError, SimulationError
from repro.simulation.network import MAX_PORTS, NetworkConfig, NetworkSimulator
from repro.simulation.traffic import NetworkTrafficGenerator
from repro.service import DeterministicService


def run(cfg, cycles=8_000, warmup=1_000):
    return NetworkSimulator(cfg).run(cycles, warmup=warmup)


class TestConservation:
    def test_messages_conserved(self):
        cfg = NetworkConfig(k=2, n_stages=4, p=0.5, seed=0)
        sim = NetworkSimulator(cfg)
        res = sim.run(5_000, warmup=500)
        assert res.injected == res.completed + sim.engine.in_flight
        assert res.dropped == 0

    def test_throughput_matches_offered_load(self):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        res = run(cfg)
        offered = 0.5 * 8  # p * width
        assert res.throughput() == pytest.approx(offered, rel=0.1)

    def test_stage_counts_near_equal(self):
        cfg = NetworkConfig(k=2, n_stages=4, p=0.5, seed=2)
        res = run(cfg)
        counts = res.stage_counts.astype(float)
        assert counts.std() / counts.mean() < 0.05


class TestFirstStageAgreement:
    def test_uniform_unit(self):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=128, seed=3)
        res = run(cfg, cycles=20_000, warmup=2_000)
        assert res.stage_means[0] == pytest.approx(0.25, rel=0.05)
        assert res.stage_variances[0] == pytest.approx(0.25, rel=0.08)

    def test_constant_service(self):
        cfg = NetworkConfig(
            k=2, n_stages=3, p=0.125, message_size=4,
            topology="random", width=128, seed=4,
        )
        res = run(cfg, cycles=20_000, warmup=2_000)
        assert res.stage_means[0] == pytest.approx(1.75, rel=0.06)

    def test_bulk_arrivals(self):
        cfg = NetworkConfig(
            k=2, n_stages=3, p=0.2, bulk_size=2,
            topology="random", width=128, seed=5,
        )
        res = run(cfg, cycles=20_000, warmup=2_000)
        expected = float(formulas.bulk_mean(2, 0.2, 2))
        assert res.stage_means[0] == pytest.approx(expected, rel=0.08)

    def test_favorite_traffic(self):
        cfg = NetworkConfig(k=2, n_stages=6, p=0.5, q=0.5, seed=6)
        res = run(cfg, cycles=12_000, warmup=1_500)
        expected = float(formulas.nonuniform_mean(2, 0.5, 0.5))
        assert res.stage_means[0] == pytest.approx(expected, rel=0.08)

    def test_geometric_service(self):
        from repro.service import GeometricService

        cfg = NetworkConfig(
            k=2, n_stages=3, p=0.25, service=GeometricService(0.5),
            topology="random", width=128, seed=14,
        )
        res = run(cfg, cycles=25_000, warmup=2_500)
        expected = float(formulas.geometric_mean(2, 0.25, 0.5))
        assert res.stage_means[0] == pytest.approx(expected, rel=0.08)

    def test_multisize(self):
        cfg = NetworkConfig(
            k=2, n_stages=3, p=0.0625, sizes=(4, 8), probabilities=(0.5, 0.5),
            topology="random", width=128, seed=7,
        )
        res = run(cfg, cycles=25_000, warmup=2_500)
        expected = float(formulas.multisize_mean(2, 0.0625, [4, 8], [0.5, 0.5]))
        assert res.stage_means[0] == pytest.approx(expected, rel=0.10)


class TestStageConvergence:
    def test_later_stages_plateau(self):
        """Per-stage means settle: the paper's 'spatial steady state'."""
        cfg = NetworkConfig(k=2, n_stages=8, p=0.5, topology="random", width=128, seed=8)
        res = run(cfg, cycles=15_000, warmup=2_000)
        last = res.stage_means[-3:]
        assert last.std() / last.mean() < 0.05

    def test_stage2_above_stage1(self):
        cfg = NetworkConfig(k=2, n_stages=4, p=0.5, topology="random", width=128, seed=9)
        res = run(cfg, cycles=15_000, warmup=2_000)
        assert res.stage_means[1] > res.stage_means[0]


class TestTransferModes:
    def test_store_forward_slower_end_to_end(self):
        """Store-and-forward spends n*m cycles in service; cut-through
        n+m-1.  With equal waiting this shows up in completion counts
        staying equal but in-flight population growing."""
        res_ct = run(
            NetworkConfig(k=2, n_stages=4, p=0.1, message_size=4,
                          topology="random", width=64, seed=10, transfer="cut_through"),
            cycles=6_000,
        )
        res_sf = run(
            NetworkConfig(k=2, n_stages=4, p=0.1, message_size=4,
                          topology="random", width=64, seed=10, transfer="store_forward"),
            cycles=6_000,
        )
        # same offered load, both stable
        assert res_sf.completed == pytest.approx(res_ct.completed, rel=0.05)

    def test_store_forward_waits_match_mg1_structure(self):
        res = run(
            NetworkConfig(k=2, n_stages=3, p=0.125, message_size=4,
                          topology="random", width=64, seed=11,
                          transfer="store_forward"),
            cycles=10_000,
        )
        # first stage unchanged by the transfer mode
        assert res.stage_means[0] == pytest.approx(1.75, rel=0.1)


class TestFiniteBuffers:
    def test_drops_counted_when_tiny(self):
        cfg = NetworkConfig(
            k=2, n_stages=4, p=0.8, buffer_capacity=1,
            topology="random", width=64, seed=12,
        )
        res = run(cfg, cycles=4_000, warmup=500)
        assert res.dropped > 0
        assert res.injected > res.completed

    def test_generous_finite_buffers_match_infinite(self):
        """'for light-to-moderate loads, moderate-sized buffers provide
        approximately the same performance as infinite buffers.'"""
        base = NetworkConfig(k=2, n_stages=4, p=0.5, topology="random", width=64, seed=13)
        finite = NetworkConfig(
            k=2, n_stages=4, p=0.5, buffer_capacity=64,
            topology="random", width=64, seed=13,
        )
        r_inf = run(base, cycles=10_000)
        r_fin = run(finite, cycles=10_000)
        assert r_fin.dropped == 0
        assert r_fin.stage_means[0] == pytest.approx(r_inf.stage_means[0], rel=1e-9)


class TestConfigValidation:
    def test_bulk_and_multipacket_exclusive(self):
        with pytest.raises(ModelError):
            NetworkConfig(k=2, n_stages=2, p=0.1, bulk_size=2, message_size=2)

    def test_service_and_sizes_exclusive(self):
        with pytest.raises(ModelError):
            NetworkConfig(
                k=2, n_stages=2, p=0.1, message_size=2,
                service=DeterministicService(2),
            )

    def test_sizes_and_message_size_exclusive(self):
        with pytest.raises(ModelError):
            NetworkConfig(
                k=2, n_stages=2, p=0.1, message_size=2,
                sizes=(1, 2), probabilities=(0.5, 0.5),
            )

    def test_favorite_needs_destination_routing(self):
        with pytest.raises(ModelError):
            NetworkConfig(k=2, n_stages=2, p=0.1, q=0.5, topology="random", width=16)

    @pytest.mark.parametrize(
        "shape",
        [dict(n_stages=17), dict(n_stages=30), dict(n_stages=12, topology="random", width=2**17)],
    )
    def test_networks_over_the_port_limit_are_refused(self, shape):
        with pytest.raises(ModelError, match="ports"):
            NetworkConfig(k=2, p=0.5, **shape)

    def test_the_port_limit_is_inclusive(self):
        cfg = NetworkConfig(k=2, n_stages=16, p=0.5)
        assert cfg.n_stages * 2**cfg.n_stages == MAX_PORTS

    def test_random_needs_width(self):
        cfg = NetworkConfig(k=2, n_stages=2, p=0.1, topology="random")
        with pytest.raises(ModelError):
            cfg.build_topology()

    def test_warmup_bounds(self):
        sim = NetworkSimulator(NetworkConfig(k=2, n_stages=2, p=0.1, seed=0))
        with pytest.raises(SimulationError):
            sim.run(100, warmup=100)

    def test_traffic_validation(self):
        rng = np.random.default_rng(0)
        srv = DeterministicService(1)
        with pytest.raises(ModelError):
            NetworkTrafficGenerator(width=0, p=0.5, service=srv, rng=rng)
        with pytest.raises(ModelError):
            NetworkTrafficGenerator(width=4, p=1.5, service=srv, rng=rng)
        with pytest.raises(ModelError):
            NetworkTrafficGenerator(
                width=4, p=0.5, service=srv, rng=rng, favorite=np.array([0, 0, 1, 2])
            )


class TestDeterminism:
    def test_same_seed_same_results(self):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, seed=42)
        a = run(cfg, cycles=3_000, warmup=300)
        b = run(cfg, cycles=3_000, warmup=300)
        assert np.array_equal(a.stage_means, b.stage_means)
        assert a.total_waiting_mean() == b.total_waiting_mean()

    def test_different_seeds_differ(self):
        a = run(NetworkConfig(k=2, n_stages=3, p=0.5, seed=1), cycles=3_000, warmup=300)
        b = run(NetworkConfig(k=2, n_stages=3, p=0.5, seed=2), cycles=3_000, warmup=300)
        assert not np.array_equal(a.stage_means, b.stage_means)


class TestResultSurface:
    def test_summary_renders(self):
        res = run(NetworkConfig(k=2, n_stages=3, p=0.5, seed=3), cycles=3_000, warmup=300)
        text = res.summary()
        assert "stage" in text
        assert "rho=0.500" in text

    def test_traffic_intensity_property(self):
        cfg = NetworkConfig(k=2, n_stages=2, p=0.125, message_size=4)
        assert cfg.traffic_intensity == pytest.approx(0.5)
        cfg = NetworkConfig(k=2, n_stages=2, p=0.25, bulk_size=2)
        assert cfg.traffic_intensity == pytest.approx(0.5)
