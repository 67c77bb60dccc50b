import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from bimanual_icl.actions import BimanualAction, DiscreteAction
from bimanual_icl.demos import Demonstration
from bimanual_icl.perception import Observation


# Property tests draw the same examples on every run and write no example
# database, so a tier-1 result depends only on the code under test.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    """Hypothesis caches the literals it finds in local source under its home
    directory even without an example database; keep that cache out of the tree."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def pytest_collection_modifyitems(items):
    """A leaked socket, file or pipe fails the test that leaked it. Kept here
    rather than in pyproject.toml so the filter covers this suite only."""
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
        item.add_marker(pytest.mark.filterwarnings(
            "error::pytest.PytestUnraisableExceptionWarning"))


def _action(x, y, z, g):
    return DiscreteAction(voxel=(x, y, z), rot=(36, 36, 0), gripper=g)


def make_demo(entries, arm_waypoints):
    """Demonstration from {name: voxel} and [(right_xyz_g, left_xyz_g), ...]."""
    actions = tuple(
        BimanualAction(right=_action(*r), left=_action(*l)) for r, l in arm_waypoints
    )
    return Demonstration(observation=Observation(entries=dict(entries)), actions=actions)


class StubChatHandler(BaseHTTPRequestHandler):
    """Loopback chat-completions stub; behavior switched via server.mode."""

    server_version = "StubChat/0.1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append({
            "path": self.path,
            "auth": self.headers.get("Authorization"),
            "content_type": self.headers.get("Content-Type"),
            "body": body,
        })
        mode = self.server.mode
        if mode == "ok":
            payload = {
                "id": "stub-1",
                "choices": [{"index": 0, "message": {"role": "assistant",
                                                     "content": "[[1, 2, 3, 4, 5, 6, 1]]"}}],
            }
            self._respond(200, json.dumps(payload).encode("utf-8"))
        elif mode == "error":
            self._respond(503, json.dumps({"error": {"message": "overloaded"}}).encode("utf-8"))
        elif mode == "slow":
            time.sleep(1.0)
            self._respond(200, b"{}")
        elif mode == "malformed":
            self._respond(200, b'{"choices": []}')

    def _respond(self, status, data):
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up (timeout tests); nothing to report

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubChatHandler)
    server.requests = []
    server.mode = "ok"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


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
    test_obs = Observation(entries={"ball": (52, 47, 31), "cup": (21, 59, 31)})
    return [demo_a, demo_b], test_obs
