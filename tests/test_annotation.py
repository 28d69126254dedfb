from __future__ import annotations

import json

import pytest

from kforge.annotation import (SemanticDescriptor, annotate_image,
                               canonical_list, descriptor_from_obj,
                               descriptor_to_json, read_descriptors,
                               validate_descriptor)
from kforge.corpus import publish
from kforge.errors import SchemaMismatch
from kforge.gateway import mock_gateway

from conftest import make_descriptor, replay_gateway

_INNER = {
    "type_theme": "Nature and Environment",
    "domain_direction": "Natural Science",
    "semantic_subcategory": "Coastal Landforms",
    "core_objects": ["Cliff", "beach"],
    "core_concepts": ["Erosion"],
    "function_or_role": "Education",
    "distinguishing_key_information": ["white cliffs", "low tide"],
    "low_value_surface_information": ["warm light"],
}


def _wrapped():
    return {"hierarchical_semantic_information": json.loads(json.dumps(_INNER))}


def test_wrapped_form_accepted():
    d = validate_descriptor(_wrapped(), image_id="img-1")
    assert d.type_theme == "Nature and Environment"
    assert d.core_objects == ("cliff", "beach")


def test_bare_form_maps_to_same_value():
    wrapped = validate_descriptor(_wrapped(), image_id="img-1")
    bare = validate_descriptor(json.loads(json.dumps(_INNER)), image_id="img-1")
    assert wrapped == bare


def test_missing_field_named():
    raw = _wrapped()
    del raw["hierarchical_semantic_information"]["semantic_subcategory"]
    with pytest.raises(SchemaMismatch) as err:
        validate_descriptor(raw, image_id="img-1")
    assert err.value.field == "semantic_subcategory"


def test_empty_required_field_rejected():
    raw = _wrapped()
    raw["hierarchical_semantic_information"]["type_theme"] = "   "
    with pytest.raises(SchemaMismatch) as err:
        validate_descriptor(raw, image_id="img-1")
    assert err.value.field == "type_theme"


def test_wrong_list_type_rejected():
    raw = _wrapped()
    raw["hierarchical_semantic_information"]["core_objects"] = "cliff"
    with pytest.raises(SchemaMismatch) as err:
        validate_descriptor(raw, image_id="img-1")
    assert err.value.field == "core_objects"


def test_list_canonicalization():
    raw = _wrapped()
    raw["hierarchical_semantic_information"]["core_objects"] = ["Cat", " cat ", "dog"]
    d = validate_descriptor(raw, image_id="img-1")
    assert d.core_objects == ("cat", "dog")


def test_canonicalization_idempotent():
    values = ["White  Cliffs ", "low tide", "white cliffs"]
    once = canonical_list(values)
    assert canonical_list(once) == once


def test_annotate_deterministic_under_mock():
    gw = mock_gateway()
    a = annotate_image("img-9", "file:///9.jpg", gw)
    b = annotate_image("img-9", "file:///9.jpg", gw)
    assert a == b
    assert isinstance(a, SemanticDescriptor)


def test_annotate_missing_field_from_backend():
    inner = json.loads(json.dumps(_INNER))
    del inner["semantic_subcategory"]
    gw = replay_gateway([json.dumps({"hierarchical_semantic_information": inner})])
    with pytest.raises(SchemaMismatch) as err:
        annotate_image("img-1", "file:///1.jpg", gw)
    assert err.value.field == "semantic_subcategory"


def test_descriptor_roundtrip(tmp_path):
    gw = mock_gateway()
    descriptors = [annotate_image(f"img-{i}", f"file:///{i}.jpg", gw) for i in range(6)]
    path = tmp_path / "d.jsonl"
    publish(path, [descriptor_to_json(d) + "\n" for d in descriptors])
    assert list(read_descriptors(path)) == descriptors


def test_serialize_parse_roundtrip():
    d = make_descriptor("img-1", "reef", "geography", concepts=("depth",),
                        keys=("key1", "key2"))
    assert descriptor_from_obj(json.loads(descriptor_to_json(d))) == d
