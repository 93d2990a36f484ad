"""The ``/dev/shm`` leak check the serve smoke tests and CI keep.

``repro.search.shm`` creates no segment; it only lists entries that
carry the project's prefix, so the fleet tests, the serve smoke script
and the serve benchmark can assert that nothing was left behind.
"""

from __future__ import annotations

from repro.search import shm


class TestLeakCheck:
    def test_matches_only_the_prefix(self, tmp_path):
        for name in ("amped-12-1-sweep", "psm_1a2b", "sem.lock",
                     "xamped-3", "AMPED-4"):
            (tmp_path / name).write_bytes(b"")
        assert shm.leaked_segment_names(str(tmp_path)) \
            == ["amped-12-1-sweep"]

    def test_names_come_back_sorted(self, tmp_path):
        for name in ("amped-9-2", "amped-10-1", "amped-1-7"):
            (tmp_path / name).write_bytes(b"")
        assert shm.leaked_segment_names(str(tmp_path)) \
            == ["amped-1-7", "amped-10-1", "amped-9-2"]

    def test_unreadable_root_reads_as_no_leak(self, tmp_path):
        assert shm.leaked_segment_names(str(tmp_path / "absent")) == []

    def test_default_root_is_dev_shm(self, monkeypatch):
        seen = []

        def listdir(root):
            seen.append(root)
            return [shm.SHM_NAME_PREFIX + "1-1", "other"]

        monkeypatch.setattr(shm.os, "listdir", listdir)
        assert shm.leaked_segment_names() == ["amped-1-1"]
        assert seen == ["/dev/shm"]
