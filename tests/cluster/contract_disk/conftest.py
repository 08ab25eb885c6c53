"""The cache contract over the ``[memory, disk]`` tier list.

The modules beside this file define no tests of their own: each
re-collects one contract suite (the same function objects, not copies)
from where it pins ``[memory]``.  The only difference is these two
fixtures, which put a snapshot-store tier below memory.
"""

import shutil
import tempfile

import pytest

from repro.cluster.sharedcache import InProcessSharedCache
from repro.cluster.snapshotstore import SnapshotStore
from repro.core.cache import PrerenderCache


@pytest.fixture()
def snapshot_roots():
    """Hands out fresh snapshot directories and closes whatever was
    built over them (stopping the write-behind flushers) at teardown."""
    roots, closers = [], []

    def new_root(register_close):
        roots.append(tempfile.mkdtemp(prefix="msite-contract-"))
        closers.append(register_close)
        return roots[-1]

    yield new_root, closers
    for close in closers:
        close()
    for root in roots:
        shutil.rmtree(root, ignore_errors=True)


@pytest.fixture()
def make_cache(snapshot_roots):
    new_root, closers = snapshot_roots

    def build(**kwargs):
        holder = []
        root = new_root(lambda: holder[0].close())
        store = SnapshotStore(root, clock=kwargs.get("clock"))
        holder.append(PrerenderCache(store=store, **kwargs))
        return holder[0]

    return build
