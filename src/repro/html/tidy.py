"""HTML Tidy analog: normalize tag soup into well-formed XHTML.

The paper compiles HTML Tidy into the proxy and applies it at the filter
phase so that the wide array of strict XML/DOM tools can parse the page
(§3.2).  Our analog routes the soup through the tolerant parser and
re-serializes it as XHTML, reporting what it had to repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dom.document import Document
from repro.dom.element import Element
from repro.html.parser import parse_html
from repro.html.serializer import serialize_xhtml


@dataclass
class TidyReport:
    """What the normalizer repaired, for administrator diagnostics."""

    added_doctype: bool = False
    added_html_scaffold: bool = False
    repaired_elements: int = 0
    notes: list[str] = field(default_factory=list)


def tidy_to_xhtml(html: str) -> tuple[str, TidyReport]:
    """Normalize ``html`` to well-formed XHTML.

    Returns the XHTML source plus a :class:`TidyReport`.  The output always
    parses as strict XML: every element closed, attributes quoted, raw text
    escaped.
    """
    report = TidyReport()
    document = parse_html(html)
    if document.doctype is None:
        from repro.dom.node import Doctype

        document.insert_child(0, Doctype("html"))
        report.added_doctype = True
        report.notes.append("inserted missing doctype")
    lowered = html.lower()
    if "<html" not in lowered:
        report.added_html_scaffold = True
        report.notes.append("wrapped content in html/head/body scaffold")
    report.repaired_elements = _count_unclosed(html, document)
    return serialize_xhtml(document), report


def tidy_document(html: str) -> Document:
    """Parse-and-normalize, returning the repaired document tree."""
    document = parse_html(html)
    if document.doctype is None:
        from repro.dom.node import Doctype

        document.insert_child(0, Doctype("html"))
    return document


def _count_unclosed(html: str, document: Document) -> int:
    """Estimate how many elements had no explicit close tag.

    Compares the number of non-void elements in the tree against the number
    of end tags present in the source; the shortfall approximates Tidy's
    'missing </...>' warnings.
    """
    import re

    end_tags = len(re.findall(r"</\s*[a-zA-Z]", html))
    non_void = sum(
        1
        for element in document.all_elements()
        if not element.is_void and element.tag not in ("html", "head", "body")
    )
    return max(0, non_void - end_tags)
