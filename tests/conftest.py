import pytest
from hypothesis import settings

from chipfire.enumeration import enumerate_stable
from chipfire.labeled import LabeledConfig

settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")


def single_chip_config(placement: dict[int, int]) -> LabeledConfig:
    """Build a one-chip-per-vertex configuration from {vertex: label}."""
    config = LabeledConfig(
        n_chips=len(placement), cells={v: [lab] for v, lab in sorted(placement.items())}
    )
    config.validate()
    return config


def shadow_of(state: bytes) -> bytes:
    """Reference: how many chips each vertex of an encoded state holds, indexed by
    vertex (entry 0 unused); byte i of the state is chip i + 1's vertex."""
    return bytes(map(state.count, range(len(state) + 1)))


def mirror_of(state: bytes) -> bytes:
    """Reference: the mirror image of an encoded state, the tree reflected and chip i
    relabelled N + 1 - i.  Vertex v on layer k has its mirror 3 * 2^(k-1) - 1 - v."""
    return bytes(3 * (1 << (v.bit_length() - 1)) - 1 - v for v in reversed(state))


@pytest.fixture(scope="session")
def stable3():
    return enumerate_stable(3)
