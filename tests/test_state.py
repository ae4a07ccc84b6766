import math

import pytest

from qccsim.state import epr_state, make_shared_state

SQH = math.sqrt(0.5)


# --- constructors -----------------------------------------------------------


def test_make_shared_state_boundary_tolerance():
    # each edge of the domain: accepted within CHI_DOMAIN_TOL, refused beyond it
    make_shared_state(1e-13)
    make_shared_state(-math.pi / 4 - 1e-13)
    for chi in (0.1, 1e-9, -math.pi / 4 - 1e-6, -2.0):
        with pytest.raises(ValueError):
            make_shared_state(chi)


def test_epr_state():
    epr = epr_state()
    assert epr.alpha == SQH and epr.beta == -SQH
    assert math.atan2(epr.beta, epr.alpha) == -math.pi / 4
    assert abs(2.0 * epr.alpha * epr.beta + 1.0) < 1e-12
