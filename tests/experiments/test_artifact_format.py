"""The artifact formats: format 2 is written, format 1 still loads and serves.

``data/format1/`` holds one artifact written by release 2.0.0 (format 1,
weights as a JSON float list) with::

    python -m repro run --dataset news20_smoke --solver sgd --epochs 2 --seed 0 \
        --store tests/experiments/data/format1

That release's default kernel was ``vectorized``, so :data:`SPEC` names it:
the fixture's key is the key of a ``vectorized`` run.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.configs import RunSpec
from repro.experiments.runner import run_single
from repro.experiments.store import FORMAT_VERSION, ArtifactStore, identity_key, run_key
from repro.serving import ScoringModel
from repro.utils.arrays import decode_array

FORMAT1_STORE = Path(__file__).parent / "data" / "format1"
FORMAT1_KEY = "47ccb418d6b03d986b64d5a102debebfc007134832f904f78e4a7dc7045e1469"
SPEC = RunSpec(dataset="news20_smoke", solver="sgd", num_workers=1,
               step_size=0.5, epochs=2, seed=0, solver_kwargs=(("kernel", "vectorized"),))


def _format1_weights() -> np.ndarray:
    """The fixture's float list, parsed straight from the file."""
    entry = json.loads((FORMAT1_STORE / f"{FORMAT1_KEY}.json").read_text())
    return np.array(entry["record"]["info"]["weights"], dtype=np.float64)


class TestFormat1:
    def test_fixture_is_format_1_under_an_unchanged_key(self):
        entry = json.loads((FORMAT1_STORE / f"{FORMAT1_KEY}.json").read_text())
        assert entry["format_version"] == 1
        assert "arrays" not in entry["record"]
        assert run_key(SPEC) == identity_key(entry["identity"]) == FORMAT1_KEY

    def test_loads_through_the_store(self):
        record = ArtifactStore(FORMAT1_STORE).load(FORMAT1_KEY)
        assert (record.solver, record.dataset, len(record.curve)) == ("sgd", "news20_smoke", 2)
        weights = np.asarray(record.info["weights"], dtype=np.float64)
        assert weights.size == 500
        assert weights.tobytes() == _format1_weights().tobytes()

    def test_serves_the_stored_weights_bit_for_bit(self):
        model = ScoringModel.from_artifact(ArtifactStore(FORMAT1_STORE), FORMAT1_KEY)
        assert model.weights.tobytes() == _format1_weights().tobytes()
        assert model.meta["key"] == FORMAT1_KEY

    def test_resave_writes_format_2_under_the_same_key(self, tmp_path):
        old = ArtifactStore(FORMAT1_STORE)
        identity = old.load_entry(FORMAT1_KEY)["identity"]
        path = ArtifactStore(tmp_path).save(FORMAT1_KEY, old.load(FORMAT1_KEY), identity)
        assert path.name == f"{FORMAT1_KEY}.json"
        entry = json.loads(path.read_text())
        assert entry["format_version"] == FORMAT_VERSION == 2
        assert entry["identity"] == identity
        fresh = ArtifactStore(tmp_path)
        model = ScoringModel.from_artifact(fresh, FORMAT1_KEY)
        assert model.weights.tobytes() == _format1_weights().tobytes()
        assert fresh.load(FORMAT1_KEY).curve.as_dict() == old.load(FORMAT1_KEY).curve.as_dict()

    def test_resave_stores_the_weights_as_base64(self, tmp_path):
        old = ArtifactStore(FORMAT1_STORE)
        identity = old.load_entry(FORMAT1_KEY)["identity"]
        path = ArtifactStore(tmp_path).save(FORMAT1_KEY, old.load(FORMAT1_KEY), identity)
        record = json.loads(path.read_text())["record"]
        assert "weights" not in record["info"]
        weights = decode_array(record["arrays"]["weights"])
        assert weights.dtype == np.float64
        assert weights.tobytes() == _format1_weights().tobytes()


class TestFormat2:
    @pytest.fixture(scope="class")
    def trained(self):
        return run_single(SPEC)

    def test_weights_are_stored_as_base64_and_load_bit_exact(self, tmp_path, trained):
        store = ArtifactStore(tmp_path)
        path = store.save(FORMAT1_KEY, trained, {"solver": "sgd"})
        record = json.loads(path.read_text())["record"]
        assert "weights" not in record["info"]
        stored = record["arrays"]["weights"]
        assert (stored["dtype"], stored["shape"]) == ("float64", [500])
        weights = ArtifactStore(tmp_path).load(FORMAT1_KEY).info["weights"]
        assert weights.tobytes() == trained.info["weights"].tobytes()
        model = ScoringModel.from_artifact(ArtifactStore(tmp_path), FORMAT1_KEY)
        assert model.weights.tobytes() == trained.info["weights"].tobytes()

    def test_every_load_decodes_a_fresh_array(self, tmp_path, trained):
        store = ArtifactStore(tmp_path)
        store.save(FORMAT1_KEY, trained)
        first = store.load(FORMAT1_KEY).info["weights"]
        first[:] = 0.0  # the parsed entry is cached; the decoded array is not
        second = store.load(FORMAT1_KEY).info["weights"]
        assert second.tobytes() == trained.info["weights"].tobytes()

    @pytest.mark.parametrize("version", [0, 3, None, "2"])
    def test_other_format_versions_raise(self, tmp_path, trained, version):
        store = ArtifactStore(tmp_path)
        path = store.save(FORMAT1_KEY, trained)
        entry = json.loads(path.read_text())
        entry["format_version"] = version
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match=f"format_version {version!r}"):
            ArtifactStore(tmp_path).load(FORMAT1_KEY)
