"""The cascade: UA defaults, specificity, importance, inline, inheritance."""

from repro.css.cascade import StyleResolver
from repro.css.parser import parse_stylesheet
from repro.html.parser import parse_html


def resolve(html, css=""):
    document = parse_html(html)
    sheets = [parse_stylesheet(css)] if css else []
    resolver = StyleResolver(sheets)
    return document, resolver


def test_ua_defaults_give_display_types():
    document, resolver = resolve("<div>x</div><span>y</span>")
    div = document.get_elements_by_tag("div")[0]
    span = document.get_elements_by_tag("span")[0]
    assert resolver.computed_style(div).display == "block"
    assert resolver.computed_style(span).display == "inline"


def test_table_display_types():
    document, resolver = resolve("<table><tr><td>x</td></tr></table>")
    table = document.get_elements_by_tag("table")[0]
    td = document.get_elements_by_tag("td")[0]
    assert resolver.computed_style(table).display == "table"
    assert resolver.computed_style(td).display == "table-cell"


def test_head_content_display_none():
    document, resolver = resolve("<script>x()</script><p>y</p>")
    script = document.get_elements_by_tag("script")[0]
    assert resolver.computed_style(script).display == "none"
    assert not resolver.computed_style(script).visible


def test_author_overrides_ua():
    document, resolver = resolve(
        "<div>x</div>", "div { display: inline }"
    )
    div = document.get_elements_by_tag("div")[0]
    assert resolver.computed_style(div).display == "inline"


def test_specificity_decides():
    document, resolver = resolve(
        '<p id="a" class="b">x</p>',
        "p { color: red } .b { color: green } #a { color: blue }",
    )
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color") == "blue"


def test_source_order_breaks_ties():
    document, resolver = resolve(
        '<p class="a b">x</p>',
        ".a { color: red } .b { color: green }",
    )
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color") == "green"


def test_important_beats_specificity():
    document, resolver = resolve(
        '<p id="a" class="b">x</p>',
        ".b { color: green !important } #a { color: blue }",
    )
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color") == "green"


def test_inline_style_beats_author():
    document, resolver = resolve(
        '<p style="color: purple">x</p>', "p { color: red }"
    )
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color") == "purple"


def test_important_author_beats_inline_normal():
    document, resolver = resolve(
        '<p style="color: purple">x</p>', "p { color: red !important }"
    )
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color") == "red"


def test_color_inherits():
    document, resolver = resolve(
        "<div><p><span>x</span></p></div>", "div { color: teal }"
    )
    span = document.get_elements_by_tag("span")[0]
    assert resolver.computed_style(span).get("color") == "teal"


def test_margin_does_not_inherit():
    document, resolver = resolve(
        "<div><span>x</span></div>", "div { margin-left: 40px }"
    )
    span = document.get_elements_by_tag("span")[0]
    assert resolver.computed_style(span).get("margin-left") is None


def test_explicit_inherit_keyword():
    document, resolver = resolve(
        "<div><p>x</p></div>",
        "div { color: maroon } p { color: inherit }",
    )
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color") == "maroon"


def test_margin_shorthand_expansion():
    document, resolver = resolve("<div>x</div>", "div { margin: 1px 2px 3px 4px }")
    style = resolver.computed_style(document.get_elements_by_tag("div")[0])
    assert style.get("margin-top") == "1px"
    assert style.get("margin-right") == "2px"
    assert style.get("margin-bottom") == "3px"
    assert style.get("margin-left") == "4px"


def test_margin_shorthand_two_values():
    document, resolver = resolve("<div>x</div>", "div { margin: 8px 0 }")
    style = resolver.computed_style(document.get_elements_by_tag("div")[0])
    assert style.get("margin-top") == "8px"
    assert style.get("margin-left") == "0"


def test_padding_shorthand_one_value():
    document, resolver = resolve("<div>x</div>", "div { padding: 6px }")
    style = resolver.computed_style(document.get_elements_by_tag("div")[0])
    assert all(
        style.get(f"padding-{side}") == "6px"
        for side in ("top", "right", "bottom", "left")
    )


def test_border_shorthand_width():
    document, resolver = resolve("<div>x</div>", "div { border: 2px solid red }")
    style = resolver.computed_style(document.get_elements_by_tag("div")[0])
    assert style.get("border-top-width") == "2px"


def test_border_keyword_widths():
    document, resolver = resolve("<div>x</div>", "div { border: thin solid }")
    style = resolver.computed_style(document.get_elements_by_tag("div")[0])
    assert style.get("border-top-width") == "1px"


def test_visibility_hidden_not_visible():
    document, resolver = resolve(
        "<div>x</div>", "div { visibility: hidden }"
    )
    style = resolver.computed_style(document.get_elements_by_tag("div")[0])
    assert not style.visible
    assert style.display == "block"


def test_memoization_and_invalidate():
    document, resolver = resolve("<p>x</p>", "p { color: red }")
    paragraph = document.get_elements_by_tag("p")[0]
    first = resolver.computed_style(paragraph)
    assert resolver.computed_style(paragraph) is first
    resolver.invalidate()
    assert resolver.computed_style(paragraph) is not first


def test_add_stylesheet_clears_cache():
    document, resolver = resolve("<p>x</p>")
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color", "#000") in (
        "#000", "#000000"
    )
    resolver.add_stylesheet(parse_stylesheet("p { color: lime }"))
    assert resolver.computed_style(paragraph).get("color") == "lime"


# -- the rule hash: every bucket, and what it must not change -------------------


def test_comma_group_takes_its_highest_matching_specificity():
    # Both alternatives of the first rule match; the rule competes at
    # #a's specificity, so the later, weaker .b rule loses.
    document, resolver = resolve(
        '<p id="a" class="b">x</p>',
        "p, #a { color: red } .b { color: green }",
    )
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color") == "red"


def test_source_order_breaks_ties_across_buckets():
    # Three equal-specificity rules filed under three different keys
    # (class, attribute -> universal, class): the last in the source wins
    # whichever bucket is read first.
    document, resolver = resolve(
        '<p class="a b" lang="en">x</p>',
        ".b { color: red } [lang] { color: blue } .a { color: green }",
    )
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color") == "green"


def test_universal_attribute_and_pseudo_rules_reach_every_element():
    document, resolver = resolve(
        '<ul><li>a</li><li lang="en">b</li></ul><a href="/x">l</a>',
        "* { margin: 1px } [lang] { color: red } :first-child { padding: 2px }"
        " :link { color: green }",
    )
    first, second = document.get_elements_by_tag("li")
    link = document.get_elements_by_tag("a")[0]
    assert resolver.computed_style(first).get("margin-top") == "1px"
    assert resolver.computed_style(first).get("padding-top") == "2px"
    assert resolver.computed_style(second).get("color") == "red"
    assert resolver.computed_style(second).get("padding-top") is None
    assert resolver.computed_style(link).get("color") == "green"


def test_rule_is_filed_under_its_rightmost_compound_only():
    document, resolver = resolve(
        '<div id="d" class="c"><p>in</p></div><p>out</p>',
        "#d p { color: red } .c > p { padding: 3px } div + p { width: 5px }",
    )
    inside, outside = document.get_elements_by_tag("p")
    div = document.get_elements_by_tag("div")[0]
    assert resolver.computed_style(inside).get("color") == "red"
    assert resolver.computed_style(inside).get("padding-top") == "3px"
    assert resolver.computed_style(inside).get("width") is None
    assert resolver.computed_style(outside).get("width") == "5px"
    assert resolver.computed_style(outside).get("padding-top") is None
    assert resolver.computed_style(div).get("padding-top") is None


def test_add_stylesheet_after_a_lookup_rebuilds_the_rule_hash():
    document, resolver = resolve('<p class="k">x</p>', "p { color: red }")
    paragraph = document.get_elements_by_tag("p")[0]
    assert resolver.computed_style(paragraph).get("color") == "red"
    resolver.add_stylesheet(parse_stylesheet(".k { color: lime }"))
    assert resolver.computed_style(paragraph).get("color") == "lime"
