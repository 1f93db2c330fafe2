"""Mutated bytes of every file the package reads end in a result or a
NeurodecodeError, never in another exception.

Each file kind is read through the reader the commands use: epoch files
through ``data.load_epochs``, raw recordings through ``data.load_raw``,
checkpoints through ``models.load_model`` and the run-directory records
through ``analysis.collect_runs``.  The examples are derandomized, so a
run is repeatable and needs no example database.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodecode import analysis, data, models, training
from neurodecode.errors import DataError, NeurodecodeError
from neurodecode.pipeline import RawRecording

# A position is drawn near the start, where every header lies, or anywhere;
# it is taken modulo the file's length.
_POSITION = st.one_of(st.integers(0, 63), st.integers(0, 2**31))
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), _POSITION, st.integers(1, 255)),
    st.tuples(st.just("truncate"), _POSITION),
    st.tuples(st.just("insert"), _POSITION, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=8)),
)


def _mutate(raw: bytes, mutation: tuple) -> bytes:
    kind, *args = mutation
    if kind == "append":
        return raw + args[0]
    pos = args[0] % (len(raw) + 1)
    if kind == "truncate":
        return raw[:pos]
    if kind == "insert":
        return raw[:pos] + args[1] + raw[pos:]
    if not raw:
        return raw
    pos = args[0] % len(raw)
    return raw[:pos] + bytes([raw[pos] ^ args[1]]) + raw[pos + 1 :]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small valid file of each kind, by name, and the read that checks it."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = data.SynthConfig(mode="linear", n_trials=8)
    full = data.split(data.generate_synthetic(cfg), data.TEST_FRAC, 0)
    epochs = data.EpochSet(full.tensor[:, :2], full.meta)  # two channels keep the files small
    data.save_epochs(root / "epochs.eegb", data.EpochSet(epochs.tensor[:4, :, :5], epochs.meta[:4]))
    rec = RawRecording(
        data=np.random.default_rng(0).standard_normal((2, 300)),
        channel_names=("Cz", "E01"),
        sample_rate=100,
        event_onsets=((20, full.meta[0].trial_id), (150, full.meta[1].trial_id)),
    )
    data.save_raw(root / "raw.eegb", rec, full.meta[:2])
    model = models.build_model("eegnet", "small", n_channels=2)
    training.train(model, epochs, training.TrainConfig(epochs=1), run_dir=root / "run")
    run = root / "run"
    readers = {
        "epochs.eegb": lambda: data.load_epochs(root / "epochs.eegb"),
        "epochs.eegb.jsonl": lambda: data.load_epochs(root / "epochs.eegb"),
        "raw.eegb": lambda: data.load_raw(root / "raw.eegb"),
        "raw.eegb.jsonl": lambda: data.load_raw(root / "raw.eegb"),
        "run/model.ckpt": lambda: models.load_model(run / "model.ckpt"),
        "run/manifest.json": lambda: analysis.collect_runs([run]),
        "run/history.jsonl": lambda: analysis.collect_runs([run]),
        "run/predictions.csv": lambda: analysis.collect_runs([run]),
    }
    for read in readers.values():
        read()  # every original reads back
    return root, readers


# the containers account for every byte, so bytes appended to one are an error
_CONTAINERS = {"epochs.eegb", "raw.eegb", "run/model.ckpt"}


@pytest.mark.parametrize("name", [
    "epochs.eegb", "epochs.eegb.jsonl", "raw.eegb", "raw.eegb.jsonl",
    "run/model.ckpt", "run/manifest.json", "run/history.jsonl", "run/predictions.csv",
])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_file_reads_or_raises_a_package_error(files, name, mutations):
    root, readers = files
    path = root / name
    original = path.read_bytes()
    raw = original
    for mutation in mutations:
        raw = _mutate(raw, mutation)
    path.write_bytes(raw)
    try:
        if name in _CONTAINERS and all(m[0] == "append" for m in mutations):
            with pytest.raises(DataError, match="trailing bytes"):
                readers[name]()
        else:
            try:
                readers[name]()
            except NeurodecodeError:
                pass
    finally:
        path.write_bytes(original)
