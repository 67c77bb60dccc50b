"""Stub-server conformance tests for the chat-completions HTTP backend.

Everything runs against a loopback HTTP server; the suite makes no
external network calls.
"""

import contextlib
import gc
import json
import re
import socket
import ssl
import time

import pytest

from bimanual_icl.errors import ConfigError, RequestTimeoutError, TransportError
from bimanual_icl.gateway import ChatRequest, HttpBackend
from doubles import CANNED_REPLIES, CannedReply, LoopbackChatServer


def backend_for(server, **kwargs):
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    defaults = dict(model="test-model", api_key_env="STUB_CHAT_KEY", timeout=5.0)
    defaults.update(kwargs)
    return HttpBackend(url, **defaults)


REQ = ChatRequest(system="be brief", user="{'a': [1, 2, 3]}>", temperature=0.7, tag="leader")


class TestRequestMapping:
    def test_body_fields_and_response_path(self, stub_server, monkeypatch):
        monkeypatch.setenv("STUB_CHAT_KEY", "sk-stub-123")
        backend = backend_for(stub_server)
        text = backend(REQ)
        assert text == "[[1, 2, 3, 4, 5, 6, 1]]"
        sent = stub_server.requests[0]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["content_type"] == "application/json"
        assert sent["body"]["model"] == "test-model"
        assert sent["body"]["temperature"] == 0.7
        assert sent["body"]["messages"] == [
            {"role": "system", "content": "be brief"},
            {"role": "user", "content": "{'a': [1, 2, 3]}>"},
        ]

    def test_bearer_auth_header_from_env(self, stub_server, monkeypatch):
        monkeypatch.setenv("STUB_CHAT_KEY", "sk-stub-123")
        backend_for(stub_server)(REQ)
        assert stub_server.requests[0]["auth"] == "Bearer sk-stub-123"

    def test_no_auth_header_without_key(self, stub_server, monkeypatch):
        monkeypatch.delenv("STUB_CHAT_KEY", raising=False)
        backend_for(stub_server)(REQ)
        assert stub_server.requests[0]["auth"] is None


class TestFailureModes:
    def test_http_error_propagates(self, stub_server):
        stub_server.reply = CANNED_REPLIES["error"]
        with pytest.raises(TransportError, match="503"):
            backend_for(stub_server)(REQ)

    def test_timeout_raises_with_elapsed(self, stub_server):
        stub_server.reply = CANNED_REPLIES["slow"]
        backend = backend_for(stub_server, timeout=0.2)
        started = time.perf_counter()
        with pytest.raises(RequestTimeoutError):
            backend(REQ)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.9  # honored the deadline, not the slow handler
        assert elapsed >= 0.15  # and waited for it

    def test_malformed_response_is_transport_error(self, stub_server):
        stub_server.reply = CANNED_REPLIES["malformed"]
        with pytest.raises(TransportError, match="malformed"):
            backend_for(stub_server)(REQ)

    def test_connection_refused(self):
        backend = HttpBackend("http://127.0.0.1:9/v1/chat/completions", model="m",
                              timeout=0.5)
        with pytest.raises(TransportError):
            backend(REQ)


def closed_port() -> int:
    """A loopback port that nothing listens on (bound once, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestStandardLibraryTransport:
    def test_body_bytes_are_the_payload_json(self, stub_server):
        req = ChatRequest(system="sé", user="{'a': [1]}> →", temperature=0.25)
        backend_for(stub_server)(req)
        payload = {
            "model": "test-model",
            "messages": [
                {"role": "system", "content": req.system},
                {"role": "user", "content": req.user},
            ],
            "temperature": 0.25,
        }
        assert stub_server.requests[0]["raw"] == json.dumps(payload, allow_nan=False).encode()

    @pytest.mark.parametrize("path, sent", [
        ("/v1/chat/completions?api-version=2024-06-01&x=a%20b",
         "/v1/chat/completions?api-version=2024-06-01&x=a%20b"),
        ("/deploy/chat#fragment", "/deploy/chat"),
        ("", "/"),
        ("?q=1", "/?q=1"),
    ])
    def test_path_and_query_reach_the_server(self, stub_server, path, sent):
        port = stub_server.server_address[1]
        HttpBackend(f"http://127.0.0.1:{port}{path}", model="m", timeout=5.0)(REQ)
        assert stub_server.requests[0]["path"] == sent

    def test_https_to_a_closed_port_is_a_transport_error(self):
        backend = HttpBackend(f"https://127.0.0.1:{closed_port()}/v1/chat/completions",
                              model="m", timeout=2.0)
        with pytest.raises(TransportError):
            backend(REQ)

    def test_https_to_a_plain_http_server_is_a_transport_error(self, stub_server):
        port = stub_server.server_address[1]
        backend = HttpBackend(f"https://127.0.0.1:{port}/v1/chat/completions", model="m",
                              timeout=2.0)
        with pytest.raises(TransportError):
            backend(REQ)
        assert stub_server.requests == []

    def test_unsupported_scheme_names_the_url(self):
        url = "ftp://127.0.0.1/v1/chat/completions"
        with pytest.raises(ConfigError, match=f"{re.escape(url)} needs scheme http or https"):
            HttpBackend(url, model="m")

    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:abc/v1",  # a port that is not a number
        "http://[::1/v1",  # an IPv6 host left open
        "http://127.0.0.1:99999/v1",  # a port out of range
        "ftp://127.0.0.1/v1",
        "http:///v1",  # no host
    ])
    def test_an_unusable_url_is_a_config_error_naming_it_when_built(self, url):
        with pytest.raises(ConfigError, match=re.escape(url)):
            HttpBackend(url, model="m")

    def test_one_tls_context_serves_every_call(self, monkeypatch):
        made = []
        new = ssl.SSLContext.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(ssl.SSLContext, "__new__", counting_new)
        backend = HttpBackend(f"https://127.0.0.1:{closed_port()}/v1/chat/completions",
                              model="m", timeout=2.0)
        for _ in range(3):
            with pytest.raises(TransportError):
                backend(REQ)
        assert len(made) == 1

    @pytest.mark.parametrize("status", [302, 307, 300])
    def test_a_redirect_is_not_followed(self, stub_server, status):
        with LoopbackChatServer() as target:
            location = f"http://127.0.0.1:{target.server_address[1]}/v1/chat/completions"
            stub_server.reply = CannedReply(status, {"Location": location}, b"")
            with pytest.raises(TransportError, match=f"HTTP {status} "):
                backend_for(stub_server)(REQ)
            assert target.requests == []

    @pytest.mark.parametrize("body", [
        b'{"choices": [{"message": {"content": "caf\xe9"}}]}',  # Latin-1, not UTF-8
        b"\xff\xfe[]",
        b"not json",
        b"",
        b'{"choices": [{"message": {"content": "[[1, 2, 3, 4, 5, 6, 1]]"}}]',  # cut short
        b"[" * 100_000,  # deeper than the decoder recurses
    ], ids=["latin-1", "utf-16-bom", "text", "empty", "truncated", "too-deep"])
    def test_a_body_that_is_not_usable_json_is_malformed(self, stub_server, body):
        stub_server.reply = CannedReply(200, {"Content-Type": "application/json"}, body)
        with pytest.raises(TransportError, match="malformed"):
            backend_for(stub_server)(REQ)

    def test_a_short_read_is_a_transport_error(self, stub_server):
        stub_server.reply = CannedReply(200, {"Content-Length": "999"}, b"{}")  # then it closes
        with pytest.raises(TransportError):
            backend_for(stub_server, timeout=2.0)(REQ)

    def test_no_call_leaves_a_socket_open(self, stub_server):
        """conftest turns ResourceWarning into an error, so a socket dropped without
        close() fails this test when the collection below finalizes it."""
        for mode in ("ok", "error", "malformed", "slow"):
            stub_server.reply = CANNED_REPLIES[mode]
            with contextlib.suppress(TransportError):
                backend_for(stub_server, timeout=0.2)(REQ)
        stub_server.reply = CannedReply(302, {"Location": "/"}, b"")
        for backend in (backend_for(stub_server),
                        HttpBackend(f"http://127.0.0.1:{closed_port()}/", model="m"),
                        HttpBackend(f"https://127.0.0.1:{closed_port()}/", model="m"),
                        HttpBackend(f"https://127.0.0.1:{stub_server.server_address[1]}/",
                                    model="m", timeout=2.0)):
            with pytest.raises(TransportError):
                backend(REQ)
        gc.collect()
