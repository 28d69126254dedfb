"""Prompt template registry, rendering and reply contracts.

Templates carry named placeholders in ``{name}`` form. Only declared
placeholders are substituted, so literal braces in prompt bodies (JSON
format examples and the like) pass through untouched.

Each template's ``expected_output`` names its reply contract in
``CONTRACTS``: the check that turns a reply into its value, and the line a
re-ask appends to the prompt.
"""
from __future__ import annotations

from dataclasses import dataclass

from kforge import jsonx
from kforge.corpus import marker_problems
from kforge.errors import (EmptyGeneration, MalformedOutput, MarkerViolation, MissingBinding,
                           NoJsonFound)
from kforge.jsonx import JSON_LIST, JSON_OBJECT

FREE_TEXT = "free_text"
VERDICT = "verdict"
MARKED_TEXT = "marked_text"


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str
    placeholders: tuple[str, ...]
    expected_output: str
    # (min images, max images or None)
    image_arity: tuple[int, int | None]


SINGLE_CAPTION_BODY = """\
Please generate an objective and complete English caption for the input image, focusing on the main content.

[Scope and Priority of Information]

Focus the description on the main content area that conveys the core information in the image, such as text, main titles, key data, or critical information blocks.

For web pages or interface screenshots, do not describe or mention the following areas unless they themselves constitute the main information:

- top navigation bar or menu bar
- footer area
- record-filing information, copyright notices, or legal terms
- auxiliary functional areas, statistical information, or decorative elements
- entry statistics at the bottom of the page, such as view count or edit count
- bottom links such as "Getting Started," "I have questions," or "Feedback and Complaints"
- links such as "Deregistration Information" or "National Enterprise Credit Information Publicity System"

[Mandatory Requirements]

Within the main content area, describe all identifiable information as completely as possible, including text, objects, structures, and their relationships.

For text in the main content area, transcribe it verbatim. Do not use generalized or omitted expressions such as "for example," "including," or "etc."

Clearly describe spatial relationships among core elements, such as "on the left," "at the top right," "in front of," "behind," "adjacent to," "surrounding," or "located above."

Clearly describe hierarchical relationships or correspondences among elements.

If there are interactions or actions, describe who is doing what to what.

If the image is a map, describe directions, orientations, and positional relationships among landmarks.

[Prohibited]

Do not infer unseen information such as identity, emotions, or intentions.

Do not evaluate the value or quality of the content.

Do not describe areas explicitly listed above as ignored by default.

Output a continuous and natural English paragraph describing only the objective facts in the main content area of the image. Do not mention auxiliary areas and do not provide a summary at the end.

Please output the English caption:

[Image]

{image}
"""

CAPTION_TO_VQA_BODY = """\
Please generate high-quality English Visual Question Answering (VQA) data based on the given [Image Description]. All questions and answers must be strictly grounded in the explicit, objective information provided in the image description. Do not introduce any subjective judgments, speculative content, or information not present in the description.

[General Constraints (Applicable to All Q&A)]

1. All questions must be answerable with a single, clear, and unambiguous answer that can be directly derived from the image description, without relying on common-sense supplementation or implicit reasoning.

2. The only allowed information types are:

-- explicitly mentioned objects

-- directly observable attributes (such as color, shape, material, state, etc.)

-- explicitly stated quantities, positional relationships, spatial relationships, or interaction relationships (e.g., "next to ...", "in front of ...")

3. The following content is strictly prohibited:

-- emotions, atmosphere, or aesthetic evaluations

-- intentions, psychological states, or future behaviors

-- uncertain expressions (such as "may," "seems," "speculates," etc.)

4. For web pages or interface screenshots, do not answer questions about the following information by default, unless they themselves constitute the main content:

-- top navigation bar or menu bar

-- footer area

-- registration information, copyright notices, or legal disclaimers

-- auxiliary function areas, statistics, or decorative elements

-- the "entry statistics" area at the bottom of the page, such as "view count" and "edit count"

-- links at the bottom of the page, such as "Getting Started," "I have a question," "Complaints and Suggestions"

-- link contents such as "Registration Information" or "National Enterprise Credit Information Publicity System"

-- reference links or reference dates

-- entry galleries or entry metadata

-- buttons such as "Broadcast," "Discuss," or "Upload Video"

-- interactive icons such as "Favorite," "Share," or "Like"

-- editing prompt content such as "This entry lacks an information section. Add relevant content to make the entry more complete and quickly level up. Start editing now!"

[Number and Structure Requirements]

1. The total number of Q&A pairs should be controlled between 5 and 15, prioritizing quality over quantity.

2. Questions must include both global questions and detail-oriented questions, with detail-oriented questions significantly outnumbering global questions.

[Global Question Requirements]

1. Include at least one global question that prompts an overall description of the main content of the entire image.

2. The questions should be general and summarizing, with answers that can be understood as a concise version of the image description.

3. Answers should be one natural paragraph, shorter than the original description but significantly longer than a single-sentence summary, avoiding bullet-point or itemized format.

[Detail Question Requirements]

1. Detail questions should target specific and explicit details in the image description, such as:

-- attributes, states, or quantities of individual objects

-- clearly described spatial positions or relative relationships

-- explicitly appearing interactions between people or objects

2. Detail questions should aim to cover different key information points in the image description, without requiring exhaustive coverage of all details.

3. Detail questions should prioritize information that is valuable for understanding the image content and avoid unnecessary or low training-value details. For page-like images, focus on the main text or core information rather than layout or decorative elements.

4. Different detail questions should correspond to different information points or attribute dimensions, avoiding repetition or high overlap.

5. Answers to detail questions must be accurate and concise, mainly consisting of nouns, quantities, or explicit relationships, without additional explanation, modification, or inference.

6. Avoid generating the following types of detail questions:

-- repetitive or highly similar questions

-- low-value questions generated merely to increase quantity

[Output Format]

Please output a JSON list in which each element contains "question" and "answer" fields:

[{"question": "specific question", "answer": "corresponding answer"}]
Please return only the JSON list, without any additional explanation, title, or commentary.

[Image Description]

{cap}

[Example]

Image description:

"A cactus approximately 60 centimeters tall, with a green cylindrical stem covered in prominent spines. At the top, three small pink flowers are blooming, with petals spreading outward and yellow stamens. The cactus grows in a vast desert, where the sand is light yellow and scattered with rocks of varying sizes. A rock near the cactus is gray, with a rough surface and visible cracks. In the distance, gently rolling sand dunes can be seen under a light blue sky. Sunlight shines from the upper left, casting long shadows. The entire environment is dry and open, with no other vegetation, while tiny grains of sand can be seen floating in the air, creating a typical desert landscape."

Output:

[

    {"question": "What kind of natural environment and overall landscape does this image show?", "answer": "The image shows a dry and open desert environment featuring a green cactus about 60 centimeters tall with three pink flowers on top, surrounded by gray rocks, gently rolling sand dunes in the distance, a light blue sky, and sunlight shining from the upper left, forming a typical desert landscape."},

    {"question": "What are the height and shape of the cactus in the image?", "answer": "Approximately 60 centimeters tall, with a green cylindrical stem"},

    {"question": "What features are present at the top of the cactus?", "answer": "Three pink flowers with outward-spreading petals and yellow stamens"},

    {"question": "What features are present on the surface of the cactus?", "answer": "Prominent spines"},

    {"question": "What is the color and surface characteristic of the rock near the cactus?", "answer": "Gray, with a rough surface and cracks"},

    {"question": "What is the terrain in the distance?", "answer": "Gently rolling sand dunes"},

    {"question": "What color is the sand in the desert environment?", "answer": "Light yellow"},

    {"question": "From which direction does the sunlight shine?", "answer": "From the upper left"},

    {"question": "What visible phenomenon is present in the air?", "answer": "Tiny grains of sand floating in the air"}

]
"""

HIER_SEMANTIC_BODY = """\
Please conduct an in-depth analysis of the input image, extract hierarchical semantic information from its "static" content, and ultimately output a strict JSON object.

[Hierarchical Semantic Structure Analysis (Content Understanding)]

1. Core Objective:

Extract key information at the conceptual, categorical, and functional levels from the image, to support the construction of a semantically related image database.

2. General Rules:

(1) Understand first, then abstract:

Fully understand the image content (including any text), then summarize and abstract concrete content into concepts, categories, and functions.

(2) Concept first:

Always focus on:

-- what it is (theme/object)

-- what it is about (concept/knowledge)

-- why it exists (function/purpose)

(3) Avoid surface features:

Colors, angles, backgrounds, specific fonts, decorative layouts, and non-essential visual styles should not be treated as core content in the first six fields. These belong to low-value surface information.

3. Fields and Instructions:

(1) Type Theme (required):

The macro-level presentation form.

Examples: Nature and Environment; People and Society; Virtual and Art; Academic Problem; Knowledge Introduction/Document; Screenshot/Interface; Others.

(2) Domain Direction (required):

The broader discipline, industry, or application domain.

Examples: Natural Science/Geography; Business and Economics; Education and Training/Mathematics; History and Culture; Information Technology.

(3) Semantic Subcategory (required):

A specific topic, problem type, or content theme under the Domain Direction.

Examples: Coastal Landforms; Technology Company Introduction; Quadratic Function Evaluation; Renaissance Painting.

(4) Core Objects:

The main entities or key information items that act as information carriers in the image.
Use nouns or noun phrases.

(5) Core Concepts:

Abstract knowledge, principles, or ideas conveyed through the core objects.

(6) Function or Role:

The primary static purpose or role of the image.

(7) Distinguishing Key Information:

Content features used to differentiate images within the same Semantic Subcategory.

(8) Low-Value Surface Information:

Visual or surface-level features that should not be used as matching criteria.

[Overall Output JSON Format]
{
    "hierarchical_semantic_information": {
    "type_theme": "",
    "domain_direction": "",
    "semantic_subcategory": "",
    "core_objects": [],
    "core_concepts": [],
    "function_or_role": "",
    "distinguishing_key_information": [],
    "low_value_surface_information": []
  }
}

Now, please analyze the given image and output the complete JSON result in English.
Strictly follow the format above and do not include any additional explanations.

[Image]

{image}
"""

PAIR_CAPTION_BODY = """\
You will be given two images. Please generate a single, complete, logically coherent English caption that provides a joint description of both images.

[Core Principles and Scope of Information]

Your task is to conduct a high-level comparative and relational analysis of the two images while ensuring extremely high information density and completeness.

1. Focus on the core; ignore non-essential elements:

The description must focus entirely on the primary content that conveys core information, such as main text, titles, key data, central arguments, or critical facts.

For webpage or interface screenshots, strictly ignore and never mention:

-- navigation bars, menus, footer areas

-- registration records, copyright notices, auxiliary modules

-- statistical or interactive elements (e.g., view counts, edit counts, feedback links)

-- layout features such as "Table of Contents," "Gallery," or "References"

It is strictly forbidden to treat superficial structural similarities (e.g., similar page layout) as meaningful content similarities. All comparisons must be based on substantive content.

2. Detailed informational grounding:

-- Provide detailed transcription of key textual information; avoid vague expressions such as "for example" or "etc."

-- Clearly describe logical relationships among core elements, without referencing container-like section names

3. Objective description:

Only describe observable facts. Do not speculate or evaluate.

[Caption Generation Structure Requirements]

1. High-level overview:

Identify the macro-level theme, field, or concept shared by both images.

2. Description of Image A:

Introduce naturally (e.g., "One of the materials involves...") and provide a complete and detailed description of:

-- core subject or theme

-- key textual content

-- main aspects of the content

-- (if applicable) its role or significance

3. Description of Image B:

Introduce similarly (e.g., "The other material involves...") and provide an equally detailed description.

4. Comparative and relational analysis:

-- Core similarities: identify shared subject matter or conceptual domain

-- Key differences: analyze differences in subject, context, roles, themes, or audience, grounded in content

-- Complementarity: explain how differences together form a richer structure or understanding

5. Conclusion:

Briefly state the significance of the comparison for understanding the broader theme.

[Language and Output]

-- Use objective, concise, and information-dense English

-- Do not refer to "first image" or "second image"

-- Do not mention layout, colors, or formatting

-- Output a single coherent paragraph only

Note: Output only the generated caption. Do not add any explanation.

[Image A]

{left}

[Image B]

{right}

[Shared Theme]

{shared}

[Observed Differences]

{differing}
"""

KNOWLEDGE_EXTRACT_BODY = """\
You are a strict text-based knowledge extraction expert.

Task:
You will be given a piece of text (either an image description or multi-turn question--answer content). You must extract information strictly from this text only.

Do not add any information that is not explicitly stated in the text.

Do not infer from the image.

Do not use any background knowledge.

You need to extract two types of knowledge: Fact and Abstract.

Definitions:

Fact:

-- Objectively verifiable information explicitly described in the text

-- Includes: existence of objects, attributes (such as color, size, position), actions, quantities, and relationships

-- Characteristics: concrete, objective, directly observable

Examples:

"The cat is black"

"The cat is sitting on the windowsill"

"There is sunlight outside the window"

Abstract:

-- Subjective feelings, emotions, atmosphere, evaluations, or background information explicitly expressed in the text

-- Includes: emotional states (e.g., relaxed, happy), atmosphere (e.g., warm, peaceful), evaluations (e.g., beautiful, comfortable), speculation (e.g., "might be ..."), purpose (e.g., "suitable for ...")

-- Characteristics: abstract, subjective, requires contextual understanding

Examples:

"The cat looks relaxed"

"It gives a warm and cozy feeling"

"It might be a residence"

Rules:

1. Fact:

-- Must be explicitly stated in the text; no inference is allowed

-- Do not include any attributes, objects, or scenes that are not mentioned in the text

-- Each Fact should be a JSON object with:

   "fact": atomic fact (short description)

   "level": "L1"

2. Abstract:

-- Must be explicitly expressed in the text

-- Do not add any emotions, atmosphere, or interpretations that are not present in the text

-- Do not generate inferred abstract information

-- Output as a list of short sentences

Important Constraints:

-- If an attribute (e.g., color, shape, position) is not mentioned, do not add it

-- Do not perform visual inference

-- Do not add common-sense knowledge

-- Only extract information explicitly present in the text

Output Format:

-- Output JSON only; do not include any explanation

-- The JSON must contain two keys: "Fact" and "Abstract"

-- If either is empty, output an empty list

[Text]

{text}
"""

PAIR_FILTER_BODY = """\
You will be given two images together with a short semantic summary of each. Decide whether the relationship between the two images forms a coherent and informative comparison: could the relationship be clearly explained to a young child in simple terms?

[Image A]

{left}

[Image B]

{right}

[Output Format]

Answer on a single first line with either "PASS: <reason>" or "FAIL: <reason>". For PASS, <reason> briefly names the shared theme and the key distinction. For FAIL, <reason> states why the relationship is weak, trivial, or accidental. Do not add any other text.
"""

INTERLEAVE_BODY = """\
You will be given a numbered group of related images with a short semantic summary of each. Write a single coherent, long-form English description that integrates information across all images: synthesize the shared theme, the relationships among the images, and the complementary details each one contributes.

[Images]

{group}

[Mandatory Requirements]

Reference every image exactly once by placing the marker <Image_k> (where k is the image number) immediately after the sentences describing that image. Every marker from <Image_1> up to the last image number must appear exactly once; do not skip or repeat any marker.

Write flowing paragraphs, not a list. Do not mention that summaries were provided. Output only the description.
"""

REGISTRY: dict[str, PromptTemplate] = {
    t.template_id: t
    for t in (
        PromptTemplate("single_caption", SINGLE_CAPTION_BODY, ("image",), FREE_TEXT, (1, 1)),
        PromptTemplate("caption_to_vqa", CAPTION_TO_VQA_BODY, ("cap",), JSON_LIST, (0, 0)),
        PromptTemplate("hier_semantic", HIER_SEMANTIC_BODY, ("image",), JSON_OBJECT, (1, 1)),
        PromptTemplate("pair_caption", PAIR_CAPTION_BODY,
                       ("left", "right", "shared", "differing"), FREE_TEXT, (2, 2)),
        PromptTemplate("knowledge_extract", KNOWLEDGE_EXTRACT_BODY, ("text",), JSON_OBJECT, (0, 0)),
        PromptTemplate("pair_filter", PAIR_FILTER_BODY, ("left", "right"), VERDICT, (2, 2)),
        PromptTemplate("interleave", INTERLEAVE_BODY, ("group",), MARKED_TEXT, (3, None)),
    )
}


def _text(template: PromptTemplate, reply: str, n_images: int) -> str:
    text = reply.strip()
    if not text:
        raise EmptyGeneration(f"{template.template_id}: empty reply")
    return text


def _json(template: PromptTemplate, reply: str, n_images: int):
    shape = template.expected_output
    try:
        return jsonx.extract_json(reply, shape)
    except NoJsonFound as exc:
        raise MalformedOutput(f"{template.template_id}: output not valid {shape}") from exc


def _verdict(template: PromptTemplate, reply: str, n_images: int) -> tuple[bool, str]:
    """``(passed, rationale)`` from a first line starting PASS or FAIL."""
    lines = reply.strip().splitlines() or [""]
    first = lines[0].strip()
    if not first.startswith(("PASS", "FAIL")):
        raise MalformedOutput(f"{template.template_id}: reply did not answer PASS or FAIL")
    rationale = first[4:].lstrip(" :").strip()
    if not rationale:
        rationale = " ".join(ln.strip() for ln in lines[1:] if ln.strip()) or "unspecified"
    return first.startswith("PASS"), rationale


def _marked_text(template: PromptTemplate, reply: str, n_images: int) -> str:
    """The text, when it cites each ``<Image_k>`` of its images exactly once."""
    text = reply.strip()
    problems = marker_problems(text, n_images)
    if any(problems):
        raise MarkerViolation(*problems)
    return text


# expected_output -> (check(template, reply, number of images) -> value or a
# KforgeError, re-ask line, where {n} stands for the number of images)
CONTRACTS = {
    FREE_TEXT: (_text, "\nReply with the requested text; the reply must not be empty."),
    JSON_LIST: (_json, "\nReturn only valid JSON."),
    JSON_OBJECT: (_json, "\nReturn only valid JSON."),
    VERDICT: (_verdict, '\nAnswer with a single line starting with "PASS:" or "FAIL:".'),
    MARKED_TEXT: (_marked_text,
                  "\nEvery marker <Image_1> through <Image_{n}> must appear exactly once."),
}


def _check_registry() -> None:
    for t in REGISTRY.values():
        for name in t.placeholders:
            if "{" + name + "}" not in t.body:
                raise AssertionError(f"{t.template_id}: placeholder {name} not in body")


_check_registry()


def render_prompt(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Substitute declared placeholders; raise MissingBinding for unbound ones."""
    body = template.body
    for name in template.placeholders:
        if name not in bindings:
            raise MissingBinding(name)
        body = body.replace("{" + name + "}", str(bindings[name]))
    return body
