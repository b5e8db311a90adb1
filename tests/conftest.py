import numpy as np
import pytest

import d2d_underlay as d


@pytest.fixture(scope="session")
def filt():
    return d.build_phydyas_filter(4, 256)


@pytest.fixture(scope="session")
def filt512():
    return d.build_phydyas_filter(4, 512)


@pytest.fixture(scope="session")
def tables(filt512):
    """Offset-averaged tables at production fidelity, shared by the suite."""
    return d.build_all_tables(filt512, num_offsets=400)


@pytest.fixture(scope="session")
def tables_psd(filt512):
    return d.build_all_tables(filt512, method=d.PSD)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
