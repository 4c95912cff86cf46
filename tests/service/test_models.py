"""Unit + statistical tests for the service-time models."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.series.pgf import PGF
from repro.service import (
    DeterministicService,
    GeneralService,
    GeometricService,
    MultiSizeService,
)


def rng():
    return np.random.default_rng(99)


class TestDeterministicService:
    def test_moments(self):
        s = DeterministicService(4)
        assert s.mean == 4
        assert s.variance() == 0
        assert s.factorial_moment(2) == 12  # m(m-1)
        assert s.factorial_moment(3) == 24  # m(m-1)(m-2)

    def test_sampler_constant(self):
        s = DeterministicService(3)
        assert (s.sample(rng(), 100) == 3).all()

    def test_validation(self):
        with pytest.raises(ModelError):
            DeterministicService(0)
        with pytest.raises(ModelError):
            DeterministicService(2.5)

    def test_refuses_a_bool(self):
        with pytest.raises(ModelError):
            DeterministicService(True)

    def test_any_integer_is_stored_as_an_int(self):
        s = DeterministicService(np.int64(3))
        assert type(s.m) is int
        assert s == DeterministicService(3)
        assert repr(s) == repr(DeterministicService(3))


class TestGeometricService:
    def test_paper_moments(self):
        """m = 1/mu, U''(1) = 2(1-mu)/mu^2, U'''(1) = 6(1-mu)^2/mu^3."""
        mu = Fraction(1, 3)
        s = GeometricService(mu)
        assert s.mean == 3
        assert s.factorial_moment(2) == 2 * (1 - mu) / mu ** 2
        assert s.factorial_moment(3) == 6 * (1 - mu) ** 2 / mu ** 3

    def test_mu_one_is_unit_service(self):
        s = GeometricService(1)
        assert s.mean == 1
        assert s.variance() == 0

    def test_sampler_matches_pgf(self):
        s = GeometricService(0.5)
        assert s.empirical_pgf_check(rng(), n_samples=100_000, max_value=16) < 0.01

    def test_validation(self):
        with pytest.raises(ModelError):
            GeometricService(0)
        with pytest.raises(ModelError):
            GeometricService(1.2)


class TestMultiSizeService:
    def test_paper_moments(self):
        """m = sum g_i m_i, U''(1) = sum m_i (m_i - 1) g_i."""
        s = MultiSizeService([4, 8], [0.5, 0.5])
        assert s.mean == 6
        assert s.factorial_moment(2) == Fraction(1, 2) * 12 + Fraction(1, 2) * 56

    def test_single_component_is_deterministic(self):
        assert MultiSizeService([5], [1]).pgf() == DeterministicService(5).pgf()

    def test_sampler_matches_pgf(self):
        s = MultiSizeService([1, 4], [0.75, 0.25])
        assert s.empirical_pgf_check(rng(), n_samples=100_000, max_value=6) < 0.01

    def test_validation(self):
        with pytest.raises(ModelError):
            MultiSizeService([1, 2], [0.5])
        with pytest.raises(ModelError):
            MultiSizeService([], [])
        with pytest.raises(ModelError):
            MultiSizeService([0], [1])
        with pytest.raises(ModelError):
            MultiSizeService([2, 2], [0.5, 0.5])
        with pytest.raises(ModelError):
            MultiSizeService([1, 2], [0.4, 0.4])

    @pytest.mark.parametrize("sizes", [(1.5, 2), (True, 2), (2.0, 3)])
    def test_refuses_sizes_it_would_coerce(self, sizes):
        with pytest.raises(ModelError):
            MultiSizeService(sizes, (0.5, 0.5))

    def test_any_integer_size_is_stored_as_an_int(self):
        s = MultiSizeService((np.int64(1), np.int32(2)), (0.5, 0.5))
        assert s.sizes == (1, 2)
        assert all(type(m) is int for m in s.sizes)


class TestGeneralService:
    def test_from_pmf(self):
        s = GeneralService([0, 0.5, 0.5])
        assert s.mean == Fraction(3, 2)

    def test_from_pgf(self):
        s = GeneralService(PGF.geometric(Fraction(1, 2)))
        assert s.mean == 2

    def test_rejects_mass_at_zero(self):
        with pytest.raises(ModelError):
            GeneralService([0.1, 0.9])

    def test_sampler_matches_pgf(self):
        s = GeneralService([0, 0.2, 0.3, 0.5])
        assert s.empirical_pgf_check(rng(), n_samples=100_000, max_value=6) < 0.01

    def test_rejects_garbage(self):
        with pytest.raises(ModelError):
            GeneralService(42)


class TestProperties:
    @given(m=st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_factorial_moments_are_falling_factorials(self, m):
        s = DeterministicService(m)
        assert s.factorial_moment(2) == m * (m - 1)
        assert s.factorial_moment(3) == m * (m - 1) * (m - 2)

    @given(
        mu_num=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=20, deadline=None)
    def test_geometric_variance_identity(self, mu_num):
        mu = Fraction(mu_num, 10)
        s = GeometricService(mu)
        assert s.variance() == (1 - mu) / mu ** 2
