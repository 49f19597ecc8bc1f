import pytest

from edhi.config import RunConfig
from edhi.data import SyntheticSpec, generate_synthetic
from edhi.pipeline import build_pipeline


@pytest.fixture(scope="session")
def tiny_ds():
    # small but alive: 8 instances, enough cycles for l=8 windows
    spec = SyntheticSpec(
        n_instances=8,
        n_sensors=4,
        min_len=30,
        max_len=40,
        noise_std=0.02,
        fault_onset_frac=0.3,
        degradation_shape="exponential",
        seed=7,
    )
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def tiny_config():
    return RunConfig(
        p=2,
        c=6,
        l=8,
        tau=10,
        alpha=0.5,
        r_max=60.0,
        lam=0.05,
        smooth_window=3,
        max_epochs=30,
        patience=5,
        batch_size=16,
        seed=11,
    )


@pytest.fixture(scope="session")
def tiny_build(tiny_ds, tiny_config):
    return build_pipeline(tiny_ds, tiny_config)
