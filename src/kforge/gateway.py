"""Uniform LLM access for every pipeline stage.

Provides the request/retry contract, a token-bucket rate limiter with an
in-flight cap, a fully deterministic mock backend (the basis of all golden
tests), and a generic HTTP backend speaking the common chat-completions
wire shape. Any object with a ``complete(request, prompt) -> str`` method
can serve as a backend; ``name`` and ``close`` are optional. The HTTP
backend uses only the standard library: one pool of keep-alive connections
shared by every thread and stage, proxies read once from the environment,
HTTPS verified against the system trust store. Timeouts, 429s, 5xx replies
and connections dropped before a reply is complete are retried with backoff.
``Gateway.complete`` is the one reply path: it checks each reply against
its template's contract (see ``prompts.CONTRACTS``), re-asks at most once
and returns the checked value. With a ``ReplyStore`` attached, a request
answered before is read back from the store and not sent again.
"""
from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import os
import select
import socket
import ssl
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import unquote, urlsplit, urlunsplit
from urllib.request import getproxies, proxy_bypass

from kforge.errors import BackendError, ConfigInvalid, KforgeError, ValidationError
from kforge.prompts import CONTRACTS, REGISTRY, PromptTemplate, render_prompt
from kforge.textnorm import distinct_content_words, tokenize

logger = logging.getLogger(__name__)

# the reply store is fsynced at most this often; each reply reaches the
# kernel at once
SYNC_INTERVAL_S = 1.0

TEMPERATURE = 0.0
MAX_OUTPUT_TOKENS = 1024


@dataclass(frozen=True)
class LlmRequest:
    """One model call, sampled with ``TEMPERATURE`` and ``MAX_OUTPUT_TOKENS``."""
    template_id: str
    bindings: dict
    image_uris: tuple[str, ...] = ()


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


class TokenBucket:
    """Blocking token bucket; ``rate`` is requests per second, None disables it."""

    def __init__(self, rate: float | None):
        self.rate = rate
        self.capacity = float(max(1, int(rate or 1)))
        self.tokens = self.capacity
        self.updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        if self.rate is None:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate
            time.sleep(wait)


# ---------------------------------------------------------------------------
# Mock backend
#
# Output is a deterministic function of (template_id, rendered prompt,
# bindings): choice points are driven by the SHA-256 digest of the prompt,
# content comes from the bound values. Identical requests give identical
# text, in any process.
# ---------------------------------------------------------------------------

MOCK_THEMES = [
    "nature and environment", "people and society", "virtual and art",
    "academic problem", "knowledge introduction", "screenshot or interface",
]
MOCK_DOMAINS = [
    "natural science", "business and economics", "education and training",
    "history and culture", "information technology", "sports and recreation",
]
MOCK_SUBCATS = [
    "coastal landforms", "technology company introduction",
    "quadratic function evaluation", "renaissance painting",
    "street food culture", "mountain wildlife", "home cooking dishes",
    "city transit maps",
]
MOCK_OBJECTS = [
    "lighthouse", "bridge", "market stall", "notebook", "bicycle", "kettle",
    "mural", "staircase", "greenhouse", "fountain", "locomotive", "telescope",
    "drumkit", "bookshelf", "sailboat", "windmill",
]
MOCK_CONCEPTS = [
    "erosion", "symmetry", "migration", "fermentation", "navigation",
    "commerce", "perspective", "insulation",
]
MOCK_ROLES = ["education", "reference", "entertainment", "documentation"]
MOCK_KEYS = [
    "red roof", "stone arch", "double mast", "tiled floor", "spiral stair",
    "iron gate", "glass dome", "wooden deck", "brass bell", "rope ladder",
    "copper pipe", "slate path", "round window", "carved door", "clay pot",
    "steel frame", "woven basket", "painted sign", "marble column",
    "canvas awning", "pebble wall", "reed fence", "chalk line", "velvet rope",
]
MOCK_SURFACE = [
    "warm lighting", "slight blur", "pale background", "high angle",
    "faded colors", "narrow margin", "heavy vignette", "grainy texture",
]
MOCK_ADJECTIVES = [
    "weathered", "narrow", "polished", "crooked", "sunlit", "quiet",
    "ornate", "sturdy", "slender", "faded", "angular", "broad",
]

_DETAIL_QUESTIONS = [
    "What object does the description explicitly mention",
    "Which element appears in the scene",
    "What detail is stated in the description",
    "Which item is noted in the image",
]


def _digest(prompt: str) -> bytes:
    return hashlib.sha256(prompt.encode("utf-8")).digest()


def _pick_distinct(pool: list[str], digest: bytes, salt: int, k: int) -> list[str]:
    """k distinct pool entries chosen by successive digest bytes."""
    out: list[str] = []
    i = salt
    while len(out) < k and len(out) < len(pool):
        item = pool[digest[i % len(digest)] % len(pool)]
        if item not in out:
            out.append(item)
        i += 1
        if i > salt + 4 * len(pool):
            for item in pool:
                if item not in out:
                    out.append(item)
                    break
    return out


class MockBackend:
    """Deterministic offline backend; see module notes."""

    name = "mock"

    def complete(self, request: LlmRequest, prompt: str) -> str:
        d = _digest(prompt)
        handler = getattr(self, "_" + request.template_id, None)
        if handler is None:
            raise ValidationError("template_id", f"mock backend has no handler for {request.template_id!r}")
        return handler(d, request.bindings)

    def _single_caption(self, d: bytes, bindings: dict) -> str:
        adj = _pick_distinct(MOCK_ADJECTIVES, d, 0, 2)
        objs = _pick_distinct(MOCK_OBJECTS, d, 2, 3)
        keys = _pick_distinct(MOCK_KEYS, d, 5, 2)
        return (
            f"A {adj[0]} {objs[0]} stands beside a {adj[1]} {objs[1]}, "
            f"with a {keys[0]} and a {keys[1]} clearly visible, "
            f"while a {objs[2]} occupies the background."
        )

    def _caption_to_vqa(self, d: bytes, bindings: dict) -> str:
        cap = str(bindings.get("cap", ""))
        words = cap.split() or ["item"]
        content = distinct_content_words(cap) or tokenize(cap) or ["item"]
        n = 5 + d[0] % 11

        answer_words: list[str] = []
        for w in words:
            answer_words.append(w)
            if len(" ".join(answer_words)) >= 0.35 * len(cap):
                break
        global_answer = " ".join(answer_words)
        items = [{
            "question": "What kind of scene does this image show overall?",
            "answer": global_answer,
        }]
        for i in range(1, n):
            word = content[d[(i * 2) % len(d)] % len(content)]
            stem = _DETAIL_QUESTIONS[i % len(_DETAIL_QUESTIONS)]
            items.append({"question": f"{stem} (detail {i})?", "answer": word})
        return json.dumps(items, ensure_ascii=False)

    def _hier_semantic(self, d: bytes, bindings: dict) -> str:
        inner = {
            "type_theme": MOCK_THEMES[d[1] % len(MOCK_THEMES)],
            "domain_direction": MOCK_DOMAINS[d[2] % len(MOCK_DOMAINS)],
            "semantic_subcategory": MOCK_SUBCATS[d[3] % len(MOCK_SUBCATS)],
            "core_objects": _pick_distinct(MOCK_OBJECTS, d, 4, 2 + d[4] % 2),
            "core_concepts": _pick_distinct(MOCK_CONCEPTS, d, 7, 2 + d[5] % 2),
            "function_or_role": MOCK_ROLES[d[6] % len(MOCK_ROLES)],
            "distinguishing_key_information": _pick_distinct(MOCK_KEYS, d, 10, 3),
            "low_value_surface_information": _pick_distinct(MOCK_SURFACE, d, 14, 2),
        }
        return json.dumps({"hierarchical_semantic_information": inner}, ensure_ascii=False)

    def _pair_caption(self, d: bytes, bindings: dict) -> str:
        return (
            f"Both images concern {bindings['shared']}. "
            f"One shows {bindings['left']}. "
            f"The other shows {bindings['right']}. "
            f"They differ in {bindings['differing']}."
        )

    def _pair_filter(self, d: bytes, bindings: dict) -> str:
        if d[0] % 2 == 0:
            return "PASS: the images share one clear theme and differ in concrete, explainable details."
        return "FAIL: the relationship between the images is incidental and hard to explain simply."

    def _knowledge_extract(self, d: bytes, bindings: dict) -> str:
        toks = distinct_content_words(str(bindings.get("text", "")))
        facts = [{"fact": t, "level": "L1"} for t in toks[0::2]]
        abstracts = toks[1::2]
        return json.dumps({"Fact": facts, "Abstract": abstracts}, ensure_ascii=False)

    def _interleave(self, d: bytes, bindings: dict) -> str:
        lines = [ln for ln in str(bindings.get("group", "")).splitlines() if ln.strip()]
        n = max(1, len(lines))
        objs = _pick_distinct(MOCK_OBJECTS, d, 0, 3)
        concepts = _pick_distinct(MOCK_CONCEPTS, d, 3, 2)
        paragraphs = [
            f"This group of scenes traces a single theme of {concepts[0]} "
            f"through {n} closely related views."
        ]
        for k in range(1, n + 1):
            key = MOCK_KEYS[d[(k * 3) % len(d)] % len(MOCK_KEYS)]
            paragraphs.append(
                f"View {k} centers on a {objs[k % len(objs)]} marked by a {key}, "
                f"extending the shared thread of {concepts[k % len(concepts)]}. <Image_{k}>"
            )
        paragraphs.append(
            f"Taken together, the views show how {concepts[0]} connects each scene to the next."
        )
        return "\n\n".join(paragraphs)


class HttpBackend:
    """Minimal chat-completions client on the standard library.

    Sends ``POST endpoint`` with ``{"model", "messages", "temperature",
    "max_tokens"}`` (the last two fixed) where messages is a single user
    turn; image URIs ride as ``image_url`` content parts. Reads the reply from
    ``choices[0].message.content``.

    Keep-alive connections are pooled: a call takes the most recently used
    idle one or opens a new one, and returns it after a complete response of
    any status, so no more are open than calls were ever in flight at once.
    One the server closed while idle is reopened before the next request,
    and one that failed in transport is closed. Proxies come from the
    environment (``http_proxy``, ``https_proxy``, ``no_proxy``), read once
    here: plain HTTP goes to the proxy with the absolute URL as the target,
    HTTPS through a CONNECT tunnel. HTTPS verifies against the system trust
    store (``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` are honoured).

    Failures become ``BackendError``: a socket timeout ``timeout``; a
    connection refused, reset or closed before a reply is complete, the
    headers read or not, ``connection``; 429 ``rate_limited``; any other
    status >= 400, a failed certificate check, or a reply of the wrong shape
    (content that is not text, or holds an unpaired surrogate)
    ``http_status``.
    """

    def __init__(self, endpoint: str, model: str, api_key: str | None = None,
                 timeout: float = 60.0):
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigInvalid(f"endpoint is not an http(s) URL: {endpoint!r}")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.name = f"http:{model}"
        host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._address = (host, port)
        self._tunnel: tuple[str, int, dict] | None = None
        proxy = getproxies().get(url.scheme)
        if proxy and not proxy_bypass(host):
            proxy_url = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if proxy_url.scheme != "http" or not proxy_url.hostname:
                raise ConfigInvalid(f"unsupported {url.scheme} proxy: {proxy!r}")
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            proxy_headers = {}
            if proxy_url.username is not None:
                credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii"))
            if url.scheme == "https":
                self._tunnel = (host, port, proxy_headers)
            else:
                self._target = urlunsplit(url._replace(fragment=""))
                self._headers.update(proxy_headers)
        self._ssl = ssl.create_default_context() if url.scheme == "https" else None
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        """The most recently used idle connection, or a new one that
        http.client connects on first use."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            host, port = self._address
            if self._ssl is not None:
                conn = http.client.HTTPSConnection(host, port, timeout=self.timeout,
                                                   context=self._ssl)
            else:
                conn = http.client.HTTPConnection(host, port, timeout=self.timeout)
            if self._tunnel is not None:
                tunnel_host, tunnel_port, tunnel_headers = self._tunnel
                conn.set_tunnel(tunnel_host, tunnel_port, headers=tunnel_headers)
        elif conn.sock is not None and _readable(conn.sock):
            # an idle keep-alive socket reads as ready only once the server
            # has closed it; drop it so http.client reconnects
            conn.close()
        return conn

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def complete(self, request: LlmRequest, prompt: str) -> str:
        if request.image_uris:
            content: object = [{"type": "text", "text": prompt}] + [
                {"type": "image_url", "image_url": {"url": uri}}
                for uri in request.image_uris
            ]
        else:
            content = prompt
        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": content}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }).encode("utf-8")
        conn = self._connection()
        resp = None
        try:
            conn.request("POST", self._target, body, self._headers)
            resp = conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            if resp is not None:
                resp.close()
            if isinstance(exc, TimeoutError):
                kind = "timeout"
            elif isinstance(exc, ssl.SSLCertVerificationError):
                kind = "http_status"
            else:
                kind = "connection"
            raise BackendError(kind, message=f"{type(exc).__name__}: {exc}") from exc
        with self._lock:
            self._idle.append(conn)
        if resp.status == 429:
            raise BackendError("rate_limited", 429)
        if resp.status >= 400:
            raise BackendError("http_status", resp.status)
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
            content.encode("utf-8")  # text, with no unpaired surrogate
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise BackendError("http_status", resp.status,
                               f"unexpected response shape: {exc}") from exc
        return content


def _readable(sock: socket.socket) -> bool:
    """Whether ``sock`` has data or EOF waiting, without blocking."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


_RETRYABLE = ("timeout", "rate_limited", "connection")


class ReplyStore:
    """Append-only log of model replies, one ``<key hex> <reply JSON>`` line
    each. A stored reply reaches the kernel at once, so a killed process
    loses none, and the file is fsynced at most once per ``SYNC_INTERVAL_S``.
    The first lookup opens the file and indexes it as key -> offset and
    length, cut at its first torn or undecodable line; a hit is read back
    with ``os.pread``, so memory grows with the number of replies, not with
    their text. A line read back must begin with the key looked up: one
    that does not (the log was changed by another writer) is a miss, logged
    once, and never another key's reply. Nothing is removed: deleting the
    file forces fresh calls."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None
        self._index: dict[bytes, int] = {}  # key -> offset << 32 | line length
        self._synced_at = 0.0
        self._foreign_logged = False
        self._lock = threading.Lock()

    def __enter__(self) -> ReplyStore:
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()

    def _file(self):
        """The open log; the first call opens and indexes it. Hold the lock."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a+b")
            self._fh.seek(0)
            end = 0
            for raw in self._fh:
                try:
                    if not raw.endswith(b"\n") or raw[64:65] != b" ":
                        break
                    key = bytes.fromhex(raw[:64].decode("ascii"))
                    json.loads(raw[65:])
                except ValueError:
                    break
                self._index[key] = end << 32 | len(raw)
                end += len(raw)
            self._fh.truncate(end)
            self._synced_at = time.monotonic()
        return self._fh

    def _stored(self, key: bytes) -> bytes | None:
        """The reply JSON stored under ``key``, or None; an entry whose line
        begins with another key is dropped. Hold the lock."""
        fh = self._file()
        entry = self._index.get(key)
        if entry is None:
            return None
        raw = os.pread(fh.fileno(), entry & 0xFFFFFFFF, entry >> 32)
        if raw[:65] != key.hex().encode("ascii") + b" ":
            del self._index[key]
            if not self._foreign_logged:
                self._foreign_logged = True
                logger.warning("reply store %s: a line holds another key than its index "
                               "entry; the log was changed by another writer, so such "
                               "lookups are misses", self.path)
            return None
        return raw[65:]

    def get(self, key: bytes):
        """The reply stored under ``key``, or None."""
        with self._lock:
            raw = self._stored(key)
        return None if raw is None else json.loads(raw)

    def put(self, key: bytes, reply: str) -> str:
        """Store ``reply`` under ``key`` and return it; when the same request
        was answered meanwhile, the reply stored first is kept and returned.
        A line's offset is the file's end after its append, so lines that
        other writers appended before it do not shift it."""
        line = f"{key.hex()} {json.dumps(reply)}\n".encode("ascii")
        with self._lock:
            raw = self._stored(key)
            if raw is None:
                fh = self._fh
                fh.write(line)
                fh.flush()
                self._index[key] = (fh.tell() - len(line)) << 32 | len(line)
                now = time.monotonic()
                if now - self._synced_at >= SYNC_INTERVAL_S:
                    os.fsync(fh.fileno())
                    self._synced_at = now
                return reply
        return json.loads(raw)


@dataclass
class GatewayStats:
    llm_calls: int = 0
    retries: int = 0
    reasks: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def bump(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {"llm_calls": self.llm_calls, "retries": self.retries,
                    "reasks": self.reasks}


class Gateway:
    """Thread-safe front door to one backend.

    Applies the retry policy to transport failures, enforces the in-flight
    cap (``semaphore``, ``in_flight`` slots unless a pipeline run installs
    its own; a slot is held only for the backend call, not in a retry's
    backoff) and rate limit, and checks each reply once: a reply that breaks
    its contract is re-asked at most once before failing, and the checked reply
    is returned parsed, so nothing decodes it again. With a ``store``, a
    request is first looked up there, keyed on the backend, its model and all
    it sends, the fixed sampling settings included: a hit takes no token,
    slot or ``llm_calls`` count, and a successful reply is stored before it
    is checked (a re-ask is a new key).
    """

    def __init__(self, backend, retry: RetryPolicy | None = None,
                 rps: float | None = None, in_flight: int = 8):
        if in_flight < 1:
            raise ValueError("in_flight must be >= 1")
        self.backend = backend
        self.in_flight = in_flight
        self.retry = retry or RetryPolicy()
        self.bucket = TokenBucket(rps)
        self.semaphore = threading.BoundedSemaphore(in_flight)
        self.stats = GatewayStats()
        self.store: ReplyStore | None = None

    def __enter__(self) -> Gateway:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the backend's connections, if it holds any."""
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    @property
    def backend_id(self) -> str:
        return getattr(self.backend, "name", type(self.backend).__name__)

    def _template(self, request: LlmRequest) -> PromptTemplate:
        template = REGISTRY.get(request.template_id)
        if template is None:
            raise ValidationError("template_id", f"unknown template {request.template_id!r}")
        lo, hi = template.image_arity
        n = len(request.image_uris)
        if n < lo or (hi is not None and n > hi):
            if hi == lo:
                bound = str(lo)
            elif hi is None:
                bound = f"{lo} or more"
            else:
                bound = f"{lo}..{hi}"
            raise ValidationError(
                "image_uris",
                f"template {request.template_id} requires {bound} images, got {n}")
        return template

    def _attempt(self, request: LlmRequest, prompt: str) -> str:
        store = self.store
        if store is not None:
            key = hashlib.sha256((
                f"{self.backend_id}\0{getattr(self.backend, 'model', None)}\0{request.template_id}"
                f"\0{request.image_uris!r}\0{TEMPERATURE!r}\0{MAX_OUTPUT_TOKENS}"
                f"\0{prompt}").encode("utf-8", "surrogatepass")).digest()
            reply = store.get(key)
            if reply is not None:
                return reply
        last: BackendError | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.stats.bump("retries")
                time.sleep(self.retry.backoff_base * self.retry.backoff_factor ** (attempt - 1))
            self.bucket.acquire()
            with self.semaphore:
                self.stats.bump("llm_calls")
                try:
                    reply = self.backend.complete(request, prompt)
                except BackendError as exc:
                    retryable = exc.kind in _RETRYABLE or (
                        exc.kind == "http_status" and (exc.status or 0) >= 500)
                    last = exc
                    if not retryable:
                        raise
                    logger.debug("backend failure (attempt %d): %s", attempt + 1, exc)
                    continue
            return reply if store is None else store.put(key, reply)
        assert last is not None
        raise last

    def complete(self, request: LlmRequest):
        """Send one request and return its reply as the check of its
        template's contract (``prompts.CONTRACTS``) returns it. A reply that
        fails the check is asked for once more, with the contract's re-ask
        line appended, and the second reply's error propagates."""
        template = self._template(request)
        prompt = render_prompt(template, request.bindings)
        check, reask = CONTRACTS[template.expected_output]
        n_images = len(request.image_uris)
        text = self._attempt(request, prompt)
        try:
            return check(template, text, n_images)
        except KforgeError:
            self.stats.bump("reasks")
        text = self._attempt(request, prompt + reask.replace("{n}", str(n_images)))
        return check(template, text, n_images)


def mock_gateway(**kwargs) -> Gateway:
    """Gateway over the deterministic mock backend (tests, offline runs)."""
    return Gateway(MockBackend(), **kwargs)
