"""Shared fixtures: a fast, well-separated miniature synthetic hierarchy."""

import struct

import pytest

from supersub.container import crc32c
from supersub.data import SyntheticSpec, generate_synthetic
from supersub.network import tensor_items
from supersub.tensor import Prng


def mini_spec(**overrides) -> SyntheticSpec:
    params = dict(
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


def named(net) -> dict:
    """A network's tensors keyed by their layout names."""
    return {name: t for name, t, _ in tensor_items(net)}


def header_mutations(data: bytes, n: int):
    """(offset, mutated copy) for each of the first n bytes of a container set
    to 0x00, 0xFF and its own value ^ 1 (copies equal to data skipped), each
    with its CRC-32C re-fixed so the mutation reaches the parser."""
    for at in range(n):
        for value in sorted({0x00, 0xFF, data[at] ^ 1} - {data[at]}):
            yield at, with_fixed_crc(data[:at] + bytes([value]) + data[at + 1 :])


def body_mutations(data: bytes, n: int, seed: int):
    """n mutated copies of a container, each with one to three bytes before
    its CRC set to Prng-chosen values, half of them within the first 64
    bytes, and the CRC-32C re-fixed so the mutation reaches the parser."""
    rng = Prng(seed)
    for _ in range(n):
        mutated = bytearray(data)
        reach = min(64, len(data) - 4) if rng.next_u64() % 2 else len(data) - 4
        for _ in range(1 + rng.next_u64() % 3):
            mutated[rng.next_u64() % reach] = rng.next_u64() % 256
        yield with_fixed_crc(bytes(mutated))


@pytest.fixture(scope="session")
def mini_data():
    return generate_synthetic(mini_spec())


@pytest.fixture(scope="session")
def mini_train(mini_data):
    return mini_data[0]


@pytest.fixture(scope="session")
def mini_test(mini_data):
    return mini_data[1]
