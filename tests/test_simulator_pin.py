"""The simulator's output, pinned byte for byte.

``tests/data/golden.*`` pin the two file formats over a hand-made dataset;
they say nothing about the random streams.  This test pins what the
simulator draws: the SHA-256 of the ``.rcol`` bytes of one small campaign
that runs driving, static and app ticks.  Every optimisation of the
simulator (tick tables, identity-hashed enums, the columnar passive walk)
must leave it unchanged.

The pin changes only with a deliberate change to a random stream (a new
draw, a reordered draw, a different formula), and such a change must bump
``ENGINE_CHECKPOINT_VERSION`` so that shard caches filled by the old code
are not replayed.  A store format change (a ``STORE_FORMAT_VERSION`` bump)
changes the bytes hashed, not the dataset: re-take the pin then, and check
that the dataset's JSON-lines save is unchanged.  Regenerate with::

    PYTHONPATH=src python -m tests.test_simulator_pin

The pin must not depend on the host CPU: pinned paths use libm for exp,
log, log10 and asin (DESIGN.md §6), and CI runs this test a second time
with numpy's AVX512 dispatch disabled.

No output may depend on the iteration order of a set of enum members:
their hashes are memory addresses.  This test cannot catch such a slip:
addresses do not follow ``PYTHONHASHSEED`` and are stable enough from run
to run that the pin keeps passing, so loops over member sets are reviewed
by hand (DESIGN.md §7).
"""

from __future__ import annotations

import hashlib
import pathlib
import tempfile

from repro.campaign.runner import generate_dataset
from repro.engine.checkpoint import ENGINE_CHECKPOINT_VERSION
from repro.store.format import write_dataset

#: SHA-256 of ``write_dataset(pinned_dataset())`` (store format 3).
PINNED_SHA256 = "a6aa3e99d8dc1163ac5ead77e3653669e22c08b0be68983a39476f700e9489da"
#: The checkpoint version the pin was taken at.
PINNED_CHECKPOINT_VERSION = 6


def pinned_dataset():
    """Seed 7 at scale 0.004 with app and static tests (about 2.5 s)."""
    return generate_dataset(
        seed=7, scale=0.004, include_apps=True, include_static=True
    )


def dataset_sha256(dataset) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "pinned.rcol"
        write_dataset(dataset, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulator_output_is_pinned():
    assert ENGINE_CHECKPOINT_VERSION == PINNED_CHECKPOINT_VERSION, (
        "checkpoint version bumped: re-take the pin"
    )
    assert dataset_sha256(pinned_dataset()) == PINNED_SHA256


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(dataset_sha256(pinned_dataset()))
