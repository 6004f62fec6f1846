"""Unit tests of the shared-memory arena."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster.shm import ArenaSpec, ShmArena

#: Keeps an arena's array past ``close`` and reads it.
_KEEP_PAST_CLOSE = """
import numpy as np
from repro.cluster.shm import ShmArena
arena = ShmArena()
kept = arena.create("v", (4,), "float64", initial=np.arange(4.0))
arena.close()
print(kept[3])
"""


class TestShmArena:
    def test_create_and_read_back(self):
        with ShmArena() as arena:
            arr = arena.create("vec", (8,), "float64", initial=np.arange(8.0))
            np.testing.assert_allclose(arena["vec"], np.arange(8.0))
            arr[3] = 42.0
            assert arena["vec"][3] == 42.0

    def test_zero_fill_by_default(self):
        with ShmArena() as arena:
            arena.create("z", (4, 3), "int64")
            assert arena["z"].sum() == 0

    def test_duplicate_name_rejected(self):
        with ShmArena() as arena:
            arena.create("a", (2,))
            with pytest.raises(ValueError):
                arena.create("a", (2,))

    def test_attach_sees_owner_writes(self):
        owner = ShmArena()
        try:
            owner.create("shared", (5,), "float64")
            spec = owner.spec()
            assert isinstance(spec, ArenaSpec)
            attached = ShmArena.attach(spec)
            try:
                owner["shared"][2] = 7.0
                assert attached["shared"][2] == 7.0
                attached["shared"][4] = -1.0
                assert owner["shared"][4] == -1.0
            finally:
                attached.close()
        finally:
            owner.close()

    def test_spec_is_picklable(self):
        import pickle

        with ShmArena() as arena:
            arena.create("x", (3,), "int32")
            spec = pickle.loads(pickle.dumps(arena.spec()))
            attached = ShmArena.attach(spec)
            try:
                assert attached["x"].dtype == np.int32
            finally:
                attached.close()

    def test_contains(self):
        with ShmArena() as arena:
            arena.create("present", (1,))
            assert "present" in arena
            assert "absent" not in arena

    def test_array_kept_past_close_stays_readable(self):
        """Run in a fresh process: a read through a dangling view would end
        it with SIGSEGV instead of printing the value."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _KEEP_PAST_CLOSE],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "3.0"
