"""A stored bundle is its own decode.

``fastpath.store_bundle`` hands the cache the bundle itself, so a local
replay reads that object, while a replay on a peer or from the disk
tier reads ``FastpathBundle.from_bytes`` of the container.  The two
must be the same bundle: every bundle stored while the golden pins and
the delta differential fixtures are produced round-trips through its
bytes, equal field for field and type for type, the entry page and
each file's payload a ``bytes``; and ``encoded_size()``, what the
cache's byte budget counts, is the container's length.
"""

import dataclasses

import pytest

from repro.core.fastpath import FastpathBundle
from tests.core import test_golden_pins as pins
from tests.delta import test_differential as differential
from tests.fastpath.test_replay_sharing import _recording_stores


#: The cases whose pages discover AJAX actions: never stored
#: (``fastpath._storable``), so there is nothing to round-trip.
UNSTORED = {"hierarchical_navigation", "news_mobilization"}


@pytest.fixture()
def stored(monkeypatch) -> list:
    return _recording_stores(monkeypatch)


def _assert_round_trips(name, bundles) -> None:
    assert bool(bundles) is (name not in UNSTORED)
    for bundle in bundles:
        raw = bundle.to_bytes()
        assert bundle.encoded_size() == len(raw)
        decoded = FastpathBundle.from_bytes(raw)
        assert decoded == bundle
        for field in dataclasses.fields(FastpathBundle):
            assert type(getattr(decoded, field.name)) is type(
                getattr(bundle, field.name)
            ), field.name
        assert type(bundle.entry_body) is bytes
        assert all(type(item.data) is bytes for item in bundle.files)


@pytest.mark.parametrize(
    "name,factory", pins.CASES, ids=[name for name, _ in pins.CASES]
)
def test_every_bundle_stored_for_the_pins_is_its_own_decode(
    name, factory, stored
):
    pins.capture_case(name, factory)
    _assert_round_trips(name, stored)


@pytest.mark.parametrize(
    "name,factory,script",
    differential.CASES,
    ids=[name for name, *_ in differential.CASES],
)
def test_every_bundle_the_delta_fixtures_store_is_its_own_decode(
    name, factory, script, stored
):
    differential.test_delta_deployment_is_byte_identical_to_full_replay(
        name, factory, script
    )
    _assert_round_trips(name, stored)
