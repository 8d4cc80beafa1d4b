from __future__ import annotations

import random

import pytest

from vcshatter import jsonio
from vcshatter.cli import BUNDLED_GADGET, BUNDLED_INSTANCE, _asset_path
from vcshatter.setsystem import SetSystem


@pytest.fixture(scope="session")
def bundled_gadget():
    return jsonio.gadget_from_dict(jsonio.load_json(_asset_path(BUNDLED_GADGET)))


@pytest.fixture(scope="session")
def bundled_instance():
    return jsonio.instance_from_dict(jsonio.load_json(_asset_path(BUNDLED_INSTANCE)))


@pytest.fixture(scope="session")
def n3_gadget_path():
    """The seed-0 n=3 gadget (12 boxes in the plane) behind the d=4, k=4 checks."""
    return _asset_path("gadget_n3_dim2.json")


@pytest.fixture(scope="session")
def n3_gadget(n3_gadget_path):
    return jsonio.gadget_from_dict(jsonio.load_json(n3_gadget_path))


def random_system(rng: random.Random, max_ground: int = 8, max_sets: int = 40) -> SetSystem:
    n = rng.randint(1, max_ground)
    count = rng.randint(1, max_sets)
    masks = [rng.getrandbits(n) for _ in range(count)]
    return SetSystem.from_masks(n, masks)
