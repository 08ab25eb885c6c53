"""The virtual filesystem."""

import pytest

from repro.core.storage import VirtualFileSystem


@pytest.fixture()
def fs():
    return VirtualFileSystem()


def test_write_and_read(fs):
    fs.write("/a/b.txt", "hello", content_type="text/plain", now=5.0)
    stored = fs.read("/a/b.txt")
    assert stored.data == b"hello"
    assert stored.content_type == "text/plain"
    assert stored.created_at == 5.0
    assert stored.size == 5


def test_write_creates_parent_dirs(fs):
    fs.write("/sessions/u1/images/x.jpg", b"data")
    assert fs.is_dir("/sessions")
    assert fs.is_dir("/sessions/u1")
    assert fs.is_dir("/sessions/u1/images")


def test_read_missing_raises(fs):
    with pytest.raises(FileNotFoundError):
        fs.read("/nope")


def test_exists(fs):
    assert not fs.exists("/f")
    fs.write("/f", b"x")
    assert fs.exists("/f")


def test_paths_normalized(fs):
    fs.write("a//b.txt", b"x")
    assert fs.exists("/a/b.txt")
    assert fs.read("/a//b.txt").data == b"x"


def test_overwrite_replaces(fs):
    fs.write("/f", b"one")
    fs.write("/f", b"two")
    assert fs.read("/f").data == b"two"


def test_delete(fs):
    fs.write("/f", b"x")
    assert fs.delete("/f")
    assert not fs.exists("/f")
    assert not fs.delete("/f")


def test_delete_tree(fs):
    fs.write("/sessions/u1/index.html", b"1")
    fs.write("/sessions/u1/images/a.jpg", b"2")
    fs.write("/sessions/u2/index.html", b"3")
    removed = fs.delete_tree("/sessions/u1")
    assert removed == 2
    assert not fs.exists("/sessions/u1/index.html")
    assert fs.exists("/sessions/u2/index.html")
    assert not fs.is_dir("/sessions/u1")


def test_listdir(fs):
    fs.write("/d/a.txt", b"1")
    fs.write("/d/b.txt", b"2")
    fs.write("/d/sub/c.txt", b"3")
    assert fs.listdir("/d") == ["a.txt", "b.txt", "sub"]


def test_total_bytes_and_count(fs):
    fs.write("/a/x", b"12345")
    fs.write("/a/y", b"123")
    fs.write("/b/z", b"1")
    assert fs.total_bytes("/a") == 8
    assert fs.total_bytes() == 9
    assert fs.file_count("/a") == 2
    assert fs.bytes_written == 9


def test_string_payload_utf8(fs):
    fs.write("/u", "héllo")
    assert fs.read("/u").data.decode("utf-8") == "héllo"


def _listing(fs, root="/"):
    tree = {root: fs.listdir(root)}
    for name in tree[root]:
        child = f"{root.rstrip('/')}/{name}"
        if fs.is_dir(child):
            tree.update(_listing(fs, child))
    return tree


def _state(fs):
    return _listing(fs), sorted(fs._dirs), fs._files, fs.bytes_written


@pytest.mark.parametrize("directory", ["/sessions/u1", "sessions//u1/", "/"])
def test_write_files_is_the_same_writes_under_one_lock_hold(directory):
    """Differential: one ``write_files`` against a ``write`` per item —
    same ``StoredFile``s, same directories, same ``bytes_written``."""
    items = [
        ("index.html", "text/html; charset=utf-8", b"<html>entry</html>"),
        ("login.html", "text/html", b"<p>login</p>"),
        ("images/snapshot.jpg", "image/jpeg", bytes(range(256))),
        ("images//thumb/a.jpg", "image/jpeg", b""),
        ("nav/fragment.html", "text/html", "héllo".encode("utf-8")),
        ("index.html", "text/html", b"written twice: the last one wins"),
    ]
    one_by_one, at_once = VirtualFileSystem(), VirtualFileSystem()
    for fs in (one_by_one, at_once):
        fs.write("/sessions/u1/stale.html", b"from an earlier run", now=1.0)
    for relpath, content_type, data in items:
        one_by_one.write(
            f"{directory}/{relpath}", data, content_type=content_type, now=7.0
        )
    at_once.write_files(directory, items, now=7.0)
    assert _state(at_once) == _state(one_by_one)
    assert at_once.bytes_written == 19 + sum(len(d) for _, _, d in items)


def test_write_files_of_nothing_changes_nothing(fs):
    fs.write_files("/sessions/u1", [], now=3.0)
    assert _state(fs) == _state(VirtualFileSystem())
