import numpy as np
import pytest

from qcool.states import DSTParams

# displacement along the anti-squeezed axis (single-oscillator tables)
TABLE_STATE = DSTParams(alpha_mag=0.4, alpha_phase=np.pi / 2, r=0.1, nbar=0.4)
# displacement along the squeezed axis (network and hybrid sections)
NETWORK_STATE = DSTParams(alpha_mag=0.5, alpha_phase=0.0, r=0.2, nbar=0.5)
# generic phases, cold enough that M = 4 blocked star runs stay cheap
STAR_STATE = DSTParams(alpha_mag=0.1, alpha_phase=0.7, r=0.03, theta=1.1,
                       nbar=0.03)

C00_TABLE = 0.6433255273
C00_NETWORK = 0.5289925218


@pytest.fixture
def table_state():
    return TABLE_STATE


@pytest.fixture
def network_state():
    return NETWORK_STATE


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
