import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, settings
from hypothesis.configuration import set_hypothesis_home_dir

from bimanual_icl.demos import Demonstration

HERE = Path(__file__).parent


# Property tests draw the same examples on every run and write no example
# database, so a tier-1 result depends only on the code under test. A failure
# is reported as found, neither shrunk nor explained: those two phases made one
# failing property cost minutes. `--hypothesis-profile=default` brings them back.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
settings.load_profile("tier1")


def pytest_configure(config):
    """Hypothesis caches the literals it finds in local source under its home
    directory even without an example database; keep that cache out of the tree."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def pytest_collection_modifyitems(items):
    """A leaked socket, file or pipe fails the test that leaked it. Kept here
    rather than in pyproject.toml, and applied to items under this directory
    only, so the filter covers this suite and not one collected beside it."""
    for item in items:
        if HERE not in item.path.parents:
            continue
        item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
        item.add_marker(pytest.mark.filterwarnings(
            "error::pytest.PytestUnraisableExceptionWarning"))


def arm_action(x, y, z, g):
    """One arm's 7-int action at the nominal rotation."""
    return (x, y, z, 36, 36, 0, g)


def make_demo(entries, arm_waypoints):
    """Demonstration from {name: voxel} and [(right_xyz_g, left_xyz_g), ...]."""
    actions = tuple(arm_action(*r) + arm_action(*l) for r, l in arm_waypoints)
    return Demonstration(observation=dict(entries), actions=actions)


@pytest.fixture
def stub_server():
    from doubles import LoopbackChatServer  # test_leak_filter runs this file without doubles.py

    with LoopbackChatServer() as server:
        yield server


@pytest.fixture
def two_demo_fixture():
    """The fixed 2-demo fixture pinned by the prompt golden files."""
    demo_a = make_demo(
        {"ball": (50, 49, 31), "cup": (20, 60, 31)},
        [
            ((52, 49, 40, 1), (20, 60, 40, 1)),
            ((52, 49, 31, 0), (20, 60, 31, 0)),
        ],
    )
    demo_b = make_demo(
        {"ball": (55, 45, 31), "cup": (22, 58, 31)},
        [
            ((57, 45, 40, 1), (22, 58, 40, 1)),
            ((57, 45, 31, 0), (22, 58, 31, 0)),
            ((57, 45, 45, 0), (22, 58, 45, 0)),
        ],
    )
    test_obs = {"ball": (52, 47, 31), "cup": (21, 59, 31)}
    return [demo_a, demo_b], test_obs
