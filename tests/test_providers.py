"""Completion providers: scripted order, replay divergence handling, the
recording wrapper, and the HTTP client's retry/auth behavior (with the
network stubbed out)."""
from __future__ import annotations

import json
import sys
import types

import pytest

from fuzzfeed.llm import (
    API_KEY_ENV, API_KEY_OVERRIDE_ENV, ChatExchange, ChatRequest,
    HttpProvider, ProviderError, RecordingProvider, ReplayProvider,
    ScriptedProvider, exchange_record, parse_provider_spec, prompt_hash,
    user_message,
)

MSG = user_message("hello")


def test_prompt_hash_is_stable_and_content_sensitive():
    assert prompt_hash(MSG) == prompt_hash(user_message("hello"))
    assert prompt_hash(MSG) != prompt_hash(user_message("hello!"))
    assert len(prompt_hash(MSG)) == 64


def test_user_message_shape():
    assert MSG == ({"role": "user", "content": "hello"},)


# --- scripted ---

def test_scripted_serves_in_order():
    provider = ScriptedProvider(["one", "two"])
    assert provider.complete(MSG).response_text == "one"
    assert provider.complete(MSG).response_text == "two"


def test_scripted_exhaustion():
    provider = ScriptedProvider(["only"])
    provider.complete(MSG)
    with pytest.raises(ProviderError) as exc:
        provider.complete(MSG)
    assert exc.value.kind == "exhausted"


def test_scripted_from_file(tmp_path):
    path = tmp_path / "script.jsonl"
    lines = [json.dumps({"response": "r1"}),
             json.dumps({"kind": "run-meta", "seed": 3}),  # ignored
             json.dumps({"response": "r2", "extra": True})]
    path.write_text("\n".join(lines) + "\n")
    provider = ScriptedProvider.from_file(path)
    assert provider.complete(MSG).response_text == "r1"
    assert provider.complete(MSG).response_text == "r2"


def test_scripted_from_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps({"kind": "run-meta"}) + "\n")
    with pytest.raises(ProviderError) as exc:
        ScriptedProvider.from_file(path)
    assert exc.value.kind == "config"


# --- transcripts and replay ---

def write_transcript(path, entries):
    path.write_text("\n".join(json.dumps(e) for e in entries) + "\n")


def recorded_entry(prompt: str, response: str, program_id="p",
                   prompt_kind="initial-wp", correct_hash=True):
    return {
        "program_id": program_id,
        "prompt_kind": prompt_kind,
        "prompt_hash": (prompt_hash(user_message(prompt)) if correct_hash
                        else "0" * 64),
        "request": {"messages": list(user_message(prompt)),
                    "model": None, "temperature": 0.0},
        "response": response,
    }


def test_exchange_record_round_trip():
    exchange = ChatExchange(request=ChatRequest(MSG, model="m"),
                            response_text="out")
    record = exchange_record(exchange, "prog", "initial-wp")
    assert record["program_id"] == "prog"
    assert record["prompt_kind"] == "initial-wp"
    assert record["prompt_hash"] == prompt_hash(MSG)
    assert record["response"] == "out"
    assert record["request"]["model"] == "m"


def test_exchange_record_never_contains_credentials(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-super-secret")
    exchange = ChatExchange(request=ChatRequest(MSG), response_text="out")
    dumped = json.dumps(exchange_record(exchange, "p", "k"))
    assert "sk-super-secret" not in dumped
    assert "Authorization" not in dumped


def test_replay_in_recorded_order(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript(path, [recorded_entry("q1", "a1"),
                            recorded_entry("q2", "a2")])
    provider = ReplayProvider(path)
    assert provider.complete(user_message("q1"),
                             program_id="p").response_text == "a1"
    assert provider.complete(user_message("q2"),
                             program_id="p").response_text == "a2"


def test_replay_keeps_programs_separate(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript(path, [recorded_entry("q", "for-x", program_id="x"),
                            recorded_entry("q", "for-y", program_id="y")])
    provider = ReplayProvider(path)
    assert provider.complete(user_message("q"),
                             program_id="y").response_text == "for-y"
    assert provider.complete(user_message("q"),
                             program_id="x").response_text == "for-x"


def test_replay_exhaustion(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript(path, [recorded_entry("q", "a")])
    provider = ReplayProvider(path)
    provider.complete(user_message("q"), program_id="p")
    with pytest.raises(ProviderError) as exc:
        provider.complete(user_message("q"), program_id="p")
    assert exc.value.kind == "exhausted"


def test_replay_strict_divergence_fails(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript(path, [recorded_entry("recorded prompt", "a")])
    provider = ReplayProvider(path, strict=True)
    with pytest.raises(ProviderError) as exc:
        provider.complete(user_message("different prompt"), program_id="p")
    assert exc.value.kind == "divergence"


def test_replay_lenient_collects_divergences(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript(path, [recorded_entry("recorded prompt", "a")])
    provider = ReplayProvider(path, strict=False)
    out = provider.complete(user_message("different prompt"), program_id="p",
                            prompt_kind="initial-wp")
    assert out.response_text == "a"
    assert len(provider.divergences) == 1
    div = provider.divergences[0]
    assert div.prompt_kind == "initial-wp"
    assert div.expected_hash != div.actual_hash


def test_replay_matching_prompt_has_no_divergence(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript(path, [recorded_entry("same", "a")])
    provider = ReplayProvider(path, strict=True)
    provider.complete(user_message("same"), program_id="p")
    assert provider.divergences == []


def test_recording_produces_a_replayable_transcript(tmp_path):
    path = tmp_path / "rec.jsonl"
    inner = ScriptedProvider(["first", "second"])
    recorder = RecordingProvider(inner, path)
    recorder.complete(user_message("q1"), program_id="p",
                      prompt_kind="initial-wp")
    recorder.complete(user_message("q2"), program_id="p",
                      prompt_kind="repair-validity")
    replay = ReplayProvider(path, strict=True)
    assert replay.complete(user_message("q1"),
                           program_id="p").response_text == "first"
    assert replay.complete(user_message("q2"),
                           program_id="p").response_text == "second"


# --- provider spec parsing ---

def test_parse_provider_spec(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript(path, [recorded_entry("q", "a")])
    assert isinstance(parse_provider_spec("http"), HttpProvider)
    assert isinstance(parse_provider_spec(f"replay:{path}"), ReplayProvider)
    assert isinstance(parse_provider_spec(f"scripted:{path}"),
                      ScriptedProvider)
    with pytest.raises(ProviderError):
        parse_provider_spec("carrier-pigeon")


# --- http ---

class FakeResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body or {}

    def json(self):
        return self._body


class FakeRequests(types.ModuleType):
    """Stand-in for the requests module; scripts status codes per call."""

    class RequestException(Exception):
        pass

    def __init__(self, outcomes):
        super().__init__("requests")
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, timeout=None, headers=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_body(text="response text"):
    return {"choices": [{"message": {"content": text}}],
            "usage": {"prompt_tokens": 12, "completion_tokens": 34}}


@pytest.fixture
def http_env(monkeypatch):
    def install(outcomes):
        fake = FakeRequests(outcomes)
        monkeypatch.setitem(sys.modules, "requests", fake)
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        monkeypatch.delenv(API_KEY_OVERRIDE_ENV, raising=False)
        monkeypatch.setattr("time.sleep", lambda s: None)
        return fake
    return install


def test_http_success(http_env):
    fake = http_env([FakeResponse(200, ok_body())])
    provider = HttpProvider(model="test-model", base_url="https://api.test/v1")
    exchange = provider.complete(MSG)
    assert exchange.response_text == "response text"
    assert exchange.prompt_tokens == 12
    call = fake.calls[0]
    assert call["url"] == "https://api.test/v1/chat/completions"
    assert call["json"]["model"] == "test-model"
    assert call["headers"]["Authorization"] == "Bearer sk-test"


def test_http_auth_failure_never_retries(http_env):
    fake = http_env([FakeResponse(401)])
    provider = HttpProvider(max_retries=3)
    with pytest.raises(ProviderError) as exc:
        provider.complete(MSG)
    assert exc.value.kind == "auth"
    assert len(fake.calls) == 1


def test_http_retries_transient_errors(http_env):
    fake = http_env([FakeResponse(503), FakeResponse(429),
                     FakeResponse(200, ok_body("eventually"))])
    provider = HttpProvider(max_retries=3)
    assert provider.complete(MSG).response_text == "eventually"
    assert len(fake.calls) == 3


def test_http_gives_up_after_max_retries(http_env):
    fake = http_env([FakeResponse(500)] * 4)
    provider = HttpProvider(max_retries=3)
    with pytest.raises(ProviderError) as exc:
        provider.complete(MSG)
    assert exc.value.kind == "transport"
    assert len(fake.calls) == 4


def test_http_non_retriable_status_fails_fast(http_env):
    fake = http_env([FakeResponse(404)])
    provider = HttpProvider(max_retries=3)
    with pytest.raises(ProviderError):
        provider.complete(MSG)
    assert len(fake.calls) == 1


def test_http_transport_exception_retries(http_env):
    fake = http_env([FakeRequests.RequestException("reset"),
                     FakeResponse(200, ok_body())])

    # The provider catches requests.RequestException from the stub module.
    provider = HttpProvider(max_retries=1)
    assert provider.complete(MSG).response_text == "response text"
    assert len(fake.calls) == 2


def test_http_missing_key_is_config_error(http_env, monkeypatch):
    http_env([])
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with pytest.raises(ProviderError) as exc:
        HttpProvider().complete(MSG)
    assert exc.value.kind == "config"


def test_http_override_env_wins(http_env, monkeypatch):
    fake = http_env([FakeResponse(200, ok_body())])
    monkeypatch.setenv(API_KEY_OVERRIDE_ENV, "sk-override")
    HttpProvider().complete(MSG)
    assert fake.calls[0]["headers"]["Authorization"] == "Bearer sk-override"


class NonJsonResponse(FakeResponse):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


MALFORMED_200 = {
    "non-json": NonJsonResponse(200),
    "no-choices": FakeResponse(200, {"id": "cmpl-1"}),
    "empty-choices": FakeResponse(200, {"choices": []}),
    "null-content": FakeResponse(
        200, {"choices": [{"message": {"role": "assistant", "content": None}}]}),
    "not-an-object": FakeResponse(200, ["choices"]),
}


@pytest.mark.parametrize("name", MALFORMED_200)
def test_http_malformed_200_is_a_response_error(http_env, name):
    fake = http_env([MALFORMED_200[name]])
    with pytest.raises(ProviderError) as exc:
        HttpProvider(max_retries=3).complete(MSG)
    assert exc.value.kind == "response"
    assert len(fake.calls) == 1


def test_http_malformed_200_ends_the_run_malformed(http_env, sorting_copy_ast):
    from fuzzfeed.orchestrator import FgConfig, Malformed, fg_generate

    http_env([MALFORMED_200["null-content"]])
    outcome = fg_generate(sorting_copy_ast, HttpProvider(), FgConfig(),
                          program_id="p")
    assert isinstance(outcome, Malformed)
    assert "provider failure" in outcome.reason
