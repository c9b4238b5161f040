import hypothesis
import pytest

from flowseg import generate_scene, preset_scene

# Derandomized: every run draws the same examples, so tier-1 cannot flake.
hypothesis.settings.register_profile("suite", max_examples=40, deadline=None, derandomize=True)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def one_way_scene():
    return generate_scene(preset_scene("one-way"))


@pytest.fixture(scope="session")
def two_way_scene():
    return generate_scene(preset_scene("two-way"))
