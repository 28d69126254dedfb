"""Error taxonomy shared by every pipeline stage.

Each exception carries a machine-readable ``code`` so quarantined records
can be audited without parsing prose messages.
"""
from __future__ import annotations


class KforgeError(Exception):
    """Base class for all toolkit errors."""

    code = "error"

    def to_dict(self) -> dict:
        return {"code": self.code, "message": str(self)}


class ShardIoError(KforgeError):
    code = "io"


class ParseError(KforgeError):
    """A shard line is not valid JSON."""

    code = "parse"

    def __init__(self, line: int, cause: str):
        super().__init__(f"line {line}: {cause}")
        self.line = line
        self.cause = cause


class ValidationError(KforgeError):
    """A record violates the schema or an arity/content invariant."""

    code = "validation"

    def __init__(self, field: str, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{field}: {message}")
        self.field = field
        self.line = line


class MissingBinding(KforgeError):
    code = "missing_binding"

    def __init__(self, name: str):
        super().__init__(f"unbound placeholder: {name}")
        self.name = name


class BackendError(KforgeError):
    """Transport-level failure talking to an LLM backend.

    ``kind`` is one of ``timeout``, ``connection`` (refused, reset or closed
    before any response), ``http_status`` (``status`` is None when the reply
    broke off), ``rate_limited``. The gateway retries ``timeout``,
    ``connection``, ``rate_limited`` and ``http_status`` of 500 or more.
    """

    code = "backend"

    def __init__(self, kind: str, status: int | None = None, message: str = ""):
        detail = message or kind
        if status is not None:
            detail = f"{detail} ({status})"
        super().__init__(detail)
        self.kind = kind
        self.status = status


class MalformedOutput(KforgeError):
    code = "malformed_output"


class NoJsonFound(KforgeError):
    code = "no_json"


class WrongShape(KforgeError):
    code = "wrong_shape"

    def __init__(self, found: str):
        super().__init__(f"found a JSON {found} where the other shape was expected")
        self.found = found


class JsonSyntax(KforgeError):
    code = "json_syntax"

    def __init__(self, offset: int, cause: str = ""):
        super().__init__(f"invalid JSON at offset {offset}: {cause}")
        self.offset = offset


class SchemaMismatch(KforgeError):
    code = "schema_mismatch"

    def __init__(self, field: str, reason: str = "missing or wrong type"):
        super().__init__(f"{field}: {reason}")
        self.field = field


class DuplicateImageId(KforgeError):
    code = "duplicate_image_id"

    def __init__(self, image_id: str):
        super().__init__(f"duplicate image id: {image_id}")
        self.image_id = image_id


class EmptyGeneration(KforgeError):
    code = "empty_generation"


class MarkerViolation(KforgeError):
    """Interleaved text does not reference every image exactly once."""

    code = "marker_violation"

    def __init__(self, missing: list[int] | None = None, duplicated: list[int] | None = None,
                 out_of_range: list[int] | None = None):
        self.missing = sorted(missing or [])
        self.duplicated = sorted(duplicated or [])
        self.out_of_range = sorted(out_of_range or [])
        parts = []
        if self.missing:
            parts.append(f"missing={self.missing}")
        if self.duplicated:
            parts.append(f"duplicated={self.duplicated}")
        if self.out_of_range:
            parts.append(f"out_of_range={self.out_of_range}")
        super().__init__(", ".join(parts) or "marker violation")


class PolicyViolation(KforgeError):
    """A synthesized QA set breaks the validation policy.

    ``reason`` is one of ``count_out_of_range``, ``missing_global``, ``ratio``.
    """

    code = "policy_violation"

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}{': ' + detail if detail else ''}")
        self.reason = reason


class GroundingFailure(KforgeError):
    code = "grounding_failure"


class FilterNotPassed(KforgeError):
    code = "filter_not_passed"


class SpecInvalid(KforgeError):
    code = "spec_invalid"


class AllPoolsEmpty(KforgeError):
    code = "all_pools_empty"


class PoolRecordMissing(KforgeError):
    code = "pool_record_missing"


class EmptyGroup(KforgeError):
    code = "empty_group"

    def __init__(self, source: str):
        super().__init__(f"no profiles for source: {source}")
        self.source = source


class ConfigInvalid(KforgeError):
    code = "config_invalid"
