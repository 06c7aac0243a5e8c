"""Shared fixtures: a fast, well-separated miniature synthetic hierarchy."""

import struct

import pytest

from supersub.container import crc32c
from supersub.data import SyntheticSpec, generate_synthetic


def mini_spec(**overrides) -> SyntheticSpec:
    params = dict(
        n_super=2,
        subs_per_super=(2, 2),
        dim=8,
        super_sep=6.0,
        sub_sep=1.5,
        noise_sigma=1.0,
        n_train_per_sub=20,
        n_test_per_sub=8,
        seed=0x5EED,
    )
    params.update(overrides)
    return SyntheticSpec(**params)


def with_fixed_crc(data: bytes) -> bytes:
    """Rewrite a container's trailing CRC-32C so a mutation reaches the parser."""
    return data[:-4] + struct.pack("<I", crc32c(data[:-4]))


@pytest.fixture(scope="session")
def mini_data():
    return generate_synthetic(mini_spec())


@pytest.fixture(scope="session")
def mini_train(mini_data):
    return mini_data[0]


@pytest.fixture(scope="session")
def mini_test(mini_data):
    return mini_data[1]
