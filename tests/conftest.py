import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def sphere_mesh_162():
    from pointlap.geometry import icosphere

    return icosphere(2)


@pytest.fixture(scope="session")
def blob_sample():
    """A prepared ~642-vertex training sample, shared across tests."""
    from pointlap.geometry import make_shape, normalize_unit_box
    from pointlap.model import ModelConfig
    from pointlap.training import prepare_sample

    mesh = normalize_unit_box(make_shape("blended-blob", 642, 3))
    return prepare_sample("blob", "blended-blob", mesh, ModelConfig(), spectral_count=64)


@pytest.fixture(scope="session")
def tiny_model_config():
    from pointlap.model import ModelConfig

    return ModelConfig(enc_channels=(16, 16, 16), dec_channels=(16, 16, 16),
                       blocks=(1, 1, 1), mlp_hidden=16)


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="run training-scale acceptance tests")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
