from __future__ import annotations

import pytest

from kforge.errors import MissingBinding
from kforge.prompts import REGISTRY, render_prompt


def test_registry_has_expected_templates():
    assert set(REGISTRY) == {
        "single_caption", "caption_to_vqa", "hier_semantic", "pair_caption",
        "knowledge_extract", "pair_filter", "interleave",
    }


def test_all_placeholders_declared_and_present():
    for template in REGISTRY.values():
        for name in template.placeholders:
            assert "{" + name + "}" in template.body


def test_render_substitutes_binding():
    template = REGISTRY["caption_to_vqa"]
    out = render_prompt(template, {"cap": "A red car."})
    assert "A red car." in out
    assert "{cap}" not in out
    # the literal sentence lands in the image-description slot
    assert "[Image Description]\n\nA red car." in out


def test_render_missing_binding():
    with pytest.raises(MissingBinding) as err:
        render_prompt(REGISTRY["caption_to_vqa"], {})
    assert err.value.name == "cap"


def test_render_deterministic():
    template = REGISTRY["pair_filter"]
    bindings = {"left": "a: stuff", "right": "b: other"}
    assert render_prompt(template, bindings) == render_prompt(template, bindings)


def test_render_preserves_literal_braces():
    out = render_prompt(REGISTRY["hier_semantic"], {"image": "img-1"})
    assert '"hierarchical_semantic_information"' in out
    assert "{" in out  # JSON format block intact


def test_vqa_prompt_carries_range_and_format_rules():
    body = REGISTRY["caption_to_vqa"].body
    assert "between 5 and 15" in body
    assert '"question"' in body and '"answer"' in body


def test_extraction_prompt_names_both_kinds():
    body = REGISTRY["knowledge_extract"].body
    assert "Fact" in body and "Abstract" in body
    assert '"level": "L1"' in body


def test_image_arities():
    arity = {tid: t.image_arity for tid, t in REGISTRY.items()}
    assert arity["hier_semantic"] == (1, 1)
    assert arity["single_caption"] == (1, 1)
    assert arity["pair_caption"] == (2, 2)
    assert arity["pair_filter"] == (2, 2)
    assert arity["caption_to_vqa"] == (0, 0)
    assert arity["knowledge_extract"] == (0, 0)
    assert arity["interleave"] == (3, None)


def test_render_leaves_placeholders_inside_values():
    # the value bound to left was searched for {right}, which was replaced
    out = render_prompt(REGISTRY["pair_filter"], {"left": "a {right} b", "right": "RIGHT"})
    assert "a {right} b" in out
    assert "a RIGHT b" not in out


def _replace_each(template, bindings: dict[str, str]) -> str:
    """Reference rendering: one ``str.replace`` per declared placeholder."""
    body = template.body
    for name in template.placeholders:
        body = body.replace("{" + name + "}", str(bindings[name]))
    return body


def test_render_matches_replacing_each_placeholder():
    for template in REGISTRY.values():
        bindings = {name: f"value of {name}: <Image_1> {{json}} line\nnext"
                    for name in template.placeholders}
        assert render_prompt(template, bindings) == _replace_each(template, bindings)
