"""Hierarchical semantic descriptors: the pairing key material for images.

An annotator model returns one eight-field JSON descriptor per image;
this module renders the prompt, validates the reply against the schema,
and canonicalizes list fields for matching.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

from kforge.corpus import json_line, read_jsonl, validate_record_id
from kforge.errors import SchemaMismatch
from kforge.gateway import Gateway, LlmRequest
from kforge.textnorm import canonicalize

WRAPPER_KEY = "hierarchical_semantic_information"

_REQUIRED_STR = ("type_theme", "domain_direction", "semantic_subcategory", "function_or_role")
_LIST_FIELDS = ("core_objects", "core_concepts", "distinguishing_key_information",
                "low_value_surface_information")


@dataclass(frozen=True)
class SemanticDescriptor:
    image_id: str
    type_theme: str
    domain_direction: str
    semantic_subcategory: str
    core_objects: tuple[str, ...]
    core_concepts: tuple[str, ...]
    function_or_role: str
    distinguishing_key_information: tuple[str, ...]
    low_value_surface_information: tuple[str, ...]

    def summary(self) -> str:
        """One-line digest used in pair prompts. Never exposes low-value surface info."""
        return (
            f"{self.semantic_subcategory} ({self.domain_direction}); "
            f"objects: {', '.join(self.core_objects) or 'none'}; "
            f"concepts: {', '.join(self.core_concepts) or 'none'}; "
            f"key details: {', '.join(self.distinguishing_key_information) or 'none'}"
        )


def canonical_list(values) -> tuple[str, ...]:
    """Trim, collapse whitespace, lowercase, dedupe preserving order."""
    seen: set[str] = set()
    out: list[str] = []
    for v in values:
        c = canonicalize(str(v))
        if c and c not in seen:
            seen.add(c)
            out.append(c)
    return tuple(out)


def validate_descriptor(raw: dict, image_id: str = "") -> SemanticDescriptor:
    """Build a descriptor from model output.

    Accepts either the wrapped form ``{"hierarchical_semantic_information":
    {...}}`` or the bare inner object; both map to the same value.
    """
    if not isinstance(raw, dict):
        raise SchemaMismatch("descriptor", "not a JSON object")
    inner = raw.get(WRAPPER_KEY, raw)
    if not isinstance(inner, dict):
        raise SchemaMismatch(WRAPPER_KEY, "wrapper does not contain an object")

    values: dict = {}
    for name in _REQUIRED_STR:
        v = inner.get(name)
        if not isinstance(v, str) or not v.strip():
            raise SchemaMismatch(name)
        values[name] = v.strip()
    for name in _LIST_FIELDS:
        v = inner.get(name)
        if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
            raise SchemaMismatch(name, "must be a list of strings")
        values[name] = canonical_list(v)

    image_id = image_id or str(inner.get("image_id", ""))
    validate_record_id(image_id)
    return SemanticDescriptor(image_id=image_id, **values)


def annotate_image(image_id: str, image_uri: str, gateway: Gateway) -> SemanticDescriptor:
    """Run the semantic analysis prompt for one image and validate the reply."""
    validate_record_id(image_id)
    request = LlmRequest(
        template_id="hier_semantic",
        bindings={"image": f"{image_id} {image_uri}"},
        image_uris=(image_uri,),
    )
    return validate_descriptor(gateway.complete(request), image_id=image_id)


def descriptor_to_json(descriptor: SemanticDescriptor) -> str:
    obj = {}
    for f in fields(SemanticDescriptor):
        v = getattr(descriptor, f.name)
        obj[f.name] = list(v) if isinstance(v, tuple) else v
    return json_line(obj)


def descriptor_from_obj(obj: dict) -> SemanticDescriptor:
    return validate_descriptor(obj, image_id=str(obj.get("image_id", "")))


def read_descriptors(path: str | Path) -> Iterator[SemanticDescriptor]:
    return read_jsonl(path, descriptor_from_obj)
