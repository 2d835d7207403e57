"""Completion providers: live HTTP, recorded replay, and scripted lists.

Transcript files are JSON Lines with fields
{program_id, prompt_kind, prompt_hash, request, response}; a trace file that
embeds exchange records in the same shape is itself a usable transcript.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

API_KEY_ENV = "OPENAI_API_KEY"
API_KEY_OVERRIDE_ENV = "FUZZFEED_API_KEY"

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_MODEL = "gpt-4o"


class ProviderError(Exception):
    def __init__(self, message: str, kind: str = "provider"):
        super().__init__(message)
        # "auth" | "transport" | "response" | "exhausted" | "divergence" | "config"
        self.kind = kind


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[dict, ...]
    model: Optional[str] = None
    temperature: float = 0.0


@dataclass(frozen=True)
class ChatExchange:
    request: ChatRequest
    response_text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    timestamp: float = field(default=0.0, compare=False)


def prompt_hash(messages) -> str:
    """Stable digest of the rendered prompt; used to detect replay drift."""
    canonical = json.dumps([{"role": m["role"], "content": m["content"]}
                            for m in messages],
                           separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def user_message(prompt: str) -> tuple[dict, ...]:
    return ({"role": "user", "content": prompt},)


def exchange_record(exchange: ChatExchange, program_id: str,
                    prompt_kind: str) -> dict:
    """Transcript line for one exchange. Never includes credentials."""
    return {
        "program_id": program_id,
        "prompt_kind": prompt_kind,
        "prompt_hash": prompt_hash(exchange.request.messages),
        "request": {
            "messages": [dict(m) for m in exchange.request.messages],
            "model": exchange.request.model,
            "temperature": exchange.request.temperature,
        },
        "response": exchange.response_text,
    }


_RETRIABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}


def _read_completion(resp) -> tuple[str, dict]:
    """The reply text and token usage of a 200 response. A body that is not
    a chat completion with string content is a ProviderError, which ends
    the run as malformed."""
    try:
        body = resp.json()
        text = body["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError) as exc:
        raise ProviderError(f"malformed response body: {exc!r}",
                            kind="response") from exc
    if not isinstance(text, str):
        raise ProviderError(
            f"response content is {type(text).__name__}, not text",
            kind="response")
    usage = body.get("usage")
    return text, usage if isinstance(usage, dict) else {}


class HttpProvider:
    """Chat-completions-compatible endpoint. Transient failures retry with
    exponential backoff; auth failures do not retry."""

    def __init__(self, model: str = DEFAULT_MODEL, base_url: str = DEFAULT_BASE_URL,
                 temperature: float = 0.0, max_retries: int = 3,
                 timeout_s: float = 120.0, api_key: Optional[str] = None):
        self.model = model
        self.base_url = base_url.rstrip("/")
        self.temperature = temperature
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self._api_key = api_key

    def _key(self) -> str:
        key = self._api_key or os.environ.get(API_KEY_OVERRIDE_ENV) \
            or os.environ.get(API_KEY_ENV)
        if not key:
            raise ProviderError(
                f"no API key: set {API_KEY_ENV} or {API_KEY_OVERRIDE_ENV}",
                kind="config")
        return key

    def complete(self, messages, program_id: str = "",
                 prompt_kind: str = "") -> ChatExchange:
        import requests

        key = self._key()
        payload = {
            "model": self.model,
            "temperature": self.temperature,
            "messages": [dict(m) for m in messages],
        }
        url = f"{self.base_url}/chat/completions"
        delay = 1.0
        last_err = None
        for attempt in range(self.max_retries + 1):
            try:
                resp = requests.post(
                    url, json=payload, timeout=self.timeout_s,
                    headers={"Authorization": f"Bearer {key}"})
            except requests.RequestException as exc:
                last_err = ProviderError(f"transport failure: {exc}", kind="transport")
            else:
                if resp.status_code in (401, 403):
                    raise ProviderError(
                        f"authentication rejected (HTTP {resp.status_code})",
                        kind="auth")
                if resp.status_code == 200:
                    text, usage = _read_completion(resp)
                    return ChatExchange(
                        request=ChatRequest(tuple(dict(m) for m in messages),
                                            self.model, self.temperature),
                        response_text=text,
                        prompt_tokens=usage.get("prompt_tokens", 0),
                        completion_tokens=usage.get("completion_tokens", 0),
                        timestamp=time.time())
                last_err = ProviderError(
                    f"HTTP {resp.status_code} from provider", kind="transport")
                if resp.status_code not in _RETRIABLE_STATUS:
                    raise last_err
            if attempt < self.max_retries:
                time.sleep(delay)
                delay *= 2
        raise last_err


def _load_jsonl(path: Path) -> list[dict]:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


class ScriptedProvider:
    """Serves a fixed list of responses in order; errors when exhausted."""

    def __init__(self, responses: list[str]):
        self._responses = list(responses)
        self._next = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedProvider":
        entries = _load_jsonl(Path(path))
        responses = []
        for e in entries:
            if isinstance(e, str):
                responses.append(e)
            elif "response" in e:
                responses.append(e["response"])
        if not responses:
            raise ProviderError(f"no responses in {path}", kind="config")
        return cls(responses)

    def complete(self, messages, program_id: str = "",
                 prompt_kind: str = "") -> ChatExchange:
        if self._next >= len(self._responses):
            raise ProviderError(
                f"scripted responses exhausted after {self._next}",
                kind="exhausted")
        text = self._responses[self._next]
        self._next += 1
        return ChatExchange(
            request=ChatRequest(tuple(dict(m) for m in messages)),
            response_text=text, timestamp=time.time())


@dataclass
class Divergence:
    index: int
    program_id: str
    prompt_kind: str
    expected_hash: str
    actual_hash: str


class ReplayProvider:
    """Replays a recorded transcript, consuming each program's exchanges in
    recorded order. A rendered prompt whose hash differs from the recording
    is a divergence: fatal when strict, collected otherwise."""

    def __init__(self, path: str | Path, strict: bool = True):
        entries = [e for e in _load_jsonl(Path(path)) if "response" in e]
        if not entries:
            raise ProviderError(f"no exchanges in {path}", kind="config")
        self._queues: dict[str, list[tuple[int, dict]]] = {}
        for i, e in enumerate(entries):
            self._queues.setdefault(e.get("program_id", ""), []).append((i, e))
        self.strict = strict
        self.divergences: list[Divergence] = []

    def complete(self, messages, program_id: str = "",
                 prompt_kind: str = "") -> ChatExchange:
        queue = self._queues.get(program_id)
        if not queue:
            # Fall back to unattributed entries for bare transcripts.
            queue = self._queues.get("")
        if not queue:
            raise ProviderError(
                f"transcript exhausted for program {program_id!r}",
                kind="exhausted")
        index, entry = queue.pop(0)
        actual = prompt_hash(messages)
        expected = entry.get("prompt_hash")
        if expected and expected != actual:
            div = Divergence(index, program_id, prompt_kind, expected, actual)
            if self.strict:
                raise ProviderError(
                    f"replay divergence at exchange {index} "
                    f"({prompt_kind or 'unknown kind'}): prompt hash "
                    f"{actual[:12]} != recorded {expected[:12]}",
                    kind="divergence")
            self.divergences.append(div)
        return ChatExchange(
            request=ChatRequest(tuple(dict(m) for m in messages)),
            response_text=entry["response"], timestamp=time.time())


class RecordingProvider:
    """Wraps another provider and appends each exchange to a transcript."""

    def __init__(self, inner, path: str | Path):
        self.inner = inner
        self.path = Path(path)

    def complete(self, messages, program_id: str = "",
                 prompt_kind: str = "") -> ChatExchange:
        exchange = self.inner.complete(messages, program_id=program_id,
                                       prompt_kind=prompt_kind)
        record = exchange_record(exchange, program_id, prompt_kind)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        return exchange


def parse_provider_spec(spec: str, model: str = DEFAULT_MODEL,
                        base_url: str = DEFAULT_BASE_URL):
    """CLI provider syntax: 'http', 'replay:<path>' (strict), or
    'scripted:<path>'."""
    if spec == "http":
        return HttpProvider(model=model, base_url=base_url)
    if spec.startswith("replay:"):
        return ReplayProvider(spec.split(":", 1)[1])
    if spec.startswith("scripted:"):
        return ScriptedProvider.from_file(spec.split(":", 1)[1])
    raise ProviderError(f"unknown provider spec {spec!r} "
                        "(use http, replay:<path>, or scripted:<path>)",
                        kind="config")
