"""Shared fixtures: randomized but always-valid scenario geometries."""
import numpy as np
import pytest
from hypothesis import settings

from risjam import Position3D, Scenario, db_to_linear, noise_power_from

# Property tests draw the same examples on every run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def make_random_scenario(rng: np.random.Generator, k_rows=None, k_cols=None, **overrides) -> Scenario:
    """A valid random scenario: UE on the ground, RIS above it, TX/jammer high up."""
    ue = Position3D(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)), 0.0)
    ris = Position3D(
        ue.x + float(rng.uniform(-100, 100)),
        ue.y + float(rng.uniform(-100, 100)),
        float(rng.uniform(10.0, 200.0)),
    )
    tx = Position3D(
        float(rng.uniform(-3e5, 3e5)),
        float(rng.uniform(-3e5, 3e5)),
        float(rng.uniform(2e5, 1.5e6)),
    )
    jam = Position3D(
        float(rng.uniform(-3e5, 3e5)),
        float(rng.uniform(-3e5, 3e5)),
        float(rng.uniform(2e6, 4e7)),
    )
    fields = dict(
        pos_tx=tx,
        pos_jam=jam,
        pos_ris=ris,
        pos_ue=ue,
        p_tx_max=db_to_linear(float(rng.uniform(10.0, 25.0))),
        p_jam=db_to_linear(float(rng.uniform(20.0, 35.0))),
        noise_power=noise_power_from(1e6, -174.0, 1.0),
        k_rows=int(k_rows if k_rows is not None else rng.integers(1, 4)),
        k_cols=int(k_cols if k_cols is not None else rng.integers(1, 4)),
        wavelength=0.15,
        element_spacing=0.075,
        rho=db_to_linear(float(rng.uniform(-70.0, -40.0))),
        alpha_direct=2.0,
        alpha_ris=2.0,
    )
    fields.update(overrides)
    return Scenario(**fields)


def make_stall_scenario() -> Scenario:
    """A K = 25 instance on which the phase solve needs a long ADMM run.

    The second draw under default_rng(7) (a 3x3 draw, then a 5x5 one); with
    inner_max_iters=1 its solve stops uncertified in well under a second.
    """
    rng = np.random.default_rng(7)
    make_random_scenario(rng, k_rows=3, k_cols=3)
    return make_random_scenario(rng, k_rows=5, k_cols=5)


@pytest.fixture
def random_scenario():
    return make_random_scenario
