import numpy as np
import pytest

import soliton_stability as ss


@pytest.fixture(scope="session")
def T():
    return np.array([1.0, 0.0, 0.0, 0.0])


@pytest.fixture(scope="session")
def grim_reaper():
    return ss.chart_from_config("grim_reaper")


@pytest.fixture(scope="session")
def flat_plane():
    return ss.chart_from_config("flat_plane")


@pytest.fixture(scope="session")
def perturbed():
    return ss.chart_from_config("perturbed_grim_reaper")


@pytest.fixture(scope="session")
def gr_support(grim_reaper):
    return ss.default_support_box(grim_reaper.domain)


@pytest.fixture(scope="session")
def gr_geometry_small(grim_reaper, T, gr_support):
    """Coarse grid geometry for fast unit tests (quadrature is still spectral)."""
    grid = ss.tensor_rule(gr_support, cells=10, points_per_cell=6)
    return ss.grid_geometry(grim_reaper, T, grid)


@pytest.fixture(scope="session")
def fp_geometry_small(flat_plane, T):
    support = ss.default_support_box(flat_plane.domain)
    grid = ss.tensor_rule(support, cells=10, points_per_cell=6)
    return ss.grid_geometry(flat_plane, T, grid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
