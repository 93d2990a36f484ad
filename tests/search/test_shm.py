"""Shared-memory transport tests: lifecycle, crash-safety, parity.

Covers the ``repro.search.shm`` registry (publish/attach/refcount/
cleanup, generation-tagged names), the guarantee that no ``/dev/shm``
segment survives a drain, a SIGINT unwind or a SIGKILL'd publisher,
and the bit-exactness contract: a shipped compiled sweep must evaluate
identically to its pickled counterpart, and the pickle fallback (no
``shared_memory``) must return the compiled sweep itself.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import AMPeD
from repro.hardware.catalog import A100
from repro.hardware.interconnect import IB_HDR, NVLINK3
from repro.hardware.node import NodeSpec
from repro.hardware.system import SystemSpec
from repro.parallelism.mapping import enumerate_mappings
from repro.search import shm
from repro.search.compiler import compile_sweep
from repro.transformer.zoo import MODELS

GLOBAL_BATCH = 256
SRC_DIR = Path(__file__).resolve().parents[2] / "src"

needs_shm = pytest.mark.skipif(
    not shm.HAVE_SHM, reason="multiprocessing.shared_memory unavailable")


@pytest.fixture(scope="module")
def system() -> SystemSpec:
    node = NodeSpec(accelerator=A100, n_accelerators=4,
                    intra_link=NVLINK3, inter_link=IB_HDR, n_nics=4)
    return SystemSpec(node=node, n_nodes=4)


@pytest.fixture(scope="module")
def template(system):
    amped = AMPeD.for_mapping(MODELS["megatron-145b"], system,
                              dp=system.n_accelerators)
    return replace(amped, evaluation_path="compiled")


@pytest.fixture(scope="module")
def mappings(system, template):
    return enumerate_mappings(system, template.model)


@pytest.fixture()
def compiled(template):
    return compile_sweep(template, GLOBAL_BATCH)


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must leave the registry and ``/dev/shm`` clean."""
    before = set(shm.leaked_segment_names())
    yield
    shm.cleanup_all_segments()
    after = set(shm.leaked_segment_names())
    assert after - before == set(), (
        f"test leaked shared-memory segments: {sorted(after - before)}")


@needs_shm
class TestSegmentLifecycle:
    def test_publish_attach_roundtrip(self):
        arrays = {"a": np.arange(12, dtype=np.float64).reshape(3, 4),
                  "b": np.array([2.5, -2.5, 0.0])}
        blobs = {"meta": b"\x00\x01payload"}
        handle = shm.publish_segment("test", arrays=arrays, blobs=blobs)
        assert handle.name.startswith(shm.SHM_NAME_PREFIX)
        assert handle.name in shm.active_segments()
        attachment = handle.attach()
        try:
            for key, array in arrays.items():
                np.testing.assert_array_equal(attachment.arrays[key],
                                              array)
            assert attachment.blobs["meta"] == blobs["meta"]
        finally:
            attachment.close()
        assert shm.release_segment(handle.name)
        assert handle.name not in shm.active_segments()
        assert handle.name not in shm.leaked_segment_names()

    def test_names_carry_pid_and_generation(self):
        first = shm.publish_segment("gen", blobs={"x": b"1"})
        second = shm.publish_segment("gen", blobs={"x": b"1"})
        try:
            assert first.name != second.name  # generation-tagged
            assert f"{os.getpid():x}" in first.name
        finally:
            shm.release_segment(first.name)
            shm.release_segment(second.name)

    def test_refcount_delays_unlink(self):
        handle = shm.publish_segment("ref", blobs={"x": b"1"})
        assert shm.retain_segment(handle.name)
        assert shm.release_segment(handle.name)  # refs 2 -> 1
        assert handle.name in shm.active_segments()
        assert shm.release_segment(handle.name)  # refs 1 -> 0: unlink
        assert handle.name not in shm.active_segments()
        # Over-release and unknown names are tolerated no-ops.
        assert not shm.release_segment(handle.name)
        assert not shm.retain_segment(handle.name)

    def test_cleanup_all_segments_drains_everything(self):
        names = [shm.publish_segment("drain", blobs={"x": b"1"}).name
                 for _ in range(3)]
        assert shm.cleanup_all_segments() >= 3
        assert shm.active_segments() == []
        for name in names:
            assert name not in shm.leaked_segment_names()

    def test_stats_track_publish_and_unlink(self):
        before = shm.shm_stats()
        handle = shm.publish_segment("stats", blobs={"x": b"abc"})
        during = shm.shm_stats()
        assert during["published"] == before["published"] + 1
        assert during["active"] == before["active"] + 1
        assert during["bytes_published"] > before["bytes_published"]
        shm.release_segment(handle.name)
        after = shm.shm_stats()
        assert after["unlinked"] == during["unlinked"] + 1
        assert after["available"] == 1

    def test_attacher_survives_creator_unlink(self):
        # POSIX keeps the pages mapped after unlink — the driver may
        # release as soon as every consumer has attached.
        array = np.linspace(0.0, 1.0, 101)
        handle = shm.publish_segment("posix", arrays={"v": array})
        attachment = handle.attach()
        try:
            shm.release_segment(handle.name)
            assert handle.name not in shm.leaked_segment_names()
            np.testing.assert_array_equal(attachment.arrays["v"], array)
        finally:
            attachment.close()


@needs_shm
class TestCrashSafety:
    def _segment_from_subprocess(self, tail: str) -> tuple:
        script = (
            "import os, signal, sys\n"
            "from repro.search import shm\n"
            "handle = shm.publish_segment('crash', blobs={'x': b'1'})\n"
            "print(handle.name, flush=True)\n" + tail)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        name = proc.stdout.split()[0]
        assert name.startswith(shm.SHM_NAME_PREFIX)
        return proc, name

    def _await_gone(self, name: str, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if name not in shm.leaked_segment_names():
                return
            time.sleep(0.1)
        pytest.fail(f"segment {name} still present after {timeout} s")

    def test_clean_exit_unlinks_via_atexit(self):
        proc, name = self._segment_from_subprocess("sys.exit(0)\n")
        assert proc.returncode == 0
        self._await_gone(name)

    def test_sigint_unwind_unlinks(self):
        proc, name = self._segment_from_subprocess(
            "raise KeyboardInterrupt\n")
        assert proc.returncode != 0
        self._await_gone(name)

    def test_sigkill_leaves_no_leak(self):
        # SIGKILL skips atexit entirely; the resource tracker (a
        # separate process) unlinks the registered segment once the
        # publisher is gone.
        proc, name = self._segment_from_subprocess(
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        assert proc.returncode == -signal.SIGKILL
        self._await_gone(name)



@needs_shm
class TestCompiledShipment:
    def test_shipment_attaches_bit_exact(self, template, compiled,
                                         mappings):
        shipped = shm.ship_compiled(compiled)
        try:
            assert isinstance(shipped, shm.CompiledShipment)
            # The wire form is the handle: a few dozen bytes.
            assert len(pickle.dumps(shipped)) < 512
            clone = pickle.loads(pickle.dumps(shipped)).attach_compiled()
            for spec in mappings[:8]:
                assert clone.batch_time(spec) \
                    == compiled.batch_time(spec)  # bit-exact
        finally:
            shm.release_shipment(shipped)
        shm.release_shipment(shipped)  # idempotent

    def test_attach_compiled_segment_by_name(self, compiled, mappings):
        shipped = shm.ship_compiled(compiled)
        try:
            clone = shm.attach_compiled_segment(shipped.handle.name)
            spec = mappings[0]
            assert clone.batch_time(spec) == compiled.batch_time(spec)
        finally:
            shm.release_shipment(shipped)

    def test_fallback_returns_compiled_itself(self, compiled,
                                              monkeypatch):
        monkeypatch.setattr(shm, "HAVE_SHM", False)
        assert shm.ship_compiled(compiled) is compiled
        shm.release_shipment(compiled)  # no-op, must not raise

