import numpy as np
import pytest

import d2d_underlay as d
from d2d_underlay import waveform as wf


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
    """The band-integration baseline of every pairing, as demo 01 builds
    its one table."""
    kinds = list(wf.WaveformType)
    return {(a, b): d.table_from_psd(a, b, filt512, wf.DEFAULT_HALF_SPAN)
            for a in kinds for b in kinds}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
