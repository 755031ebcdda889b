import os
import time

import pytest
from hypothesis import settings

from chipfire import unlabeled
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


def closed_forms_by_vertex(n_chips: int) -> tuple[dict[int, int], dict[int, int]]:
    """Reference: the chips and the nonzero fire tallies of each vertex once n_chips
    chips are stable, in ascending vertex order, as the per-layer closed forms give them."""
    c = unlabeled.stable_chip_counts(n_chips)
    f = unlabeled.fires_per_layer(n_chips)
    vertices = range(1, 2 ** len(c))
    cells = {v: c[v.bit_length() - 1] for v in vertices}
    return cells, {v: f[v.bit_length() - 1] for v in vertices if f[v.bit_length() - 1]}


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


@pytest.fixture(scope="session")
def four_layer_search(tmp_path_factory):
    """The full 4-layer search and its seconds, run once for every `long` test
    that reads it: 2 workers, with a periodic checkpoint every 600 s."""
    if os.environ.get("CHIPFIRE_RUN_LONG") != "1":
        pytest.skip("the full 4-layer search runs only with CHIPFIRE_RUN_LONG=1")
    ckpt = str(tmp_path_factory.mktemp("z4") / "z4.ckpt")
    start = time.perf_counter()
    result = enumerate_stable(4, workers=2, checkpoint_path=ckpt, checkpoint_every=600)
    return result, time.perf_counter() - start
