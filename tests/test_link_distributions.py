"""The link kernel's output distributions, held to captured quantiles.

Byte parity with ``tests/row_oracle`` cannot catch a change that moves the
kernel and its oracle together (a new stream layout moves both).  This
guard holds each (operator, technology) quantile of three driving-only
campaigns to the values in ``tests/data/link_quantiles.json``, within the
tolerance captured with it (see :mod:`tests.link_quantiles`).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests import link_quantiles


@pytest.fixture(scope="module")
def captured():
    return json.loads(link_quantiles.DATA_PATH.read_text())


@pytest.fixture(scope="module")
def current(captured):
    return link_quantiles.capture(tuple(captured["seeds"]))


def test_capture_settings_are_the_modules(captured):
    assert captured["seeds"] == list(link_quantiles.SEEDS)
    assert captured["scale"] == link_quantiles.SCALE
    assert captured["percentiles"] == list(link_quantiles.QUANTILES)


def test_every_held_group_is_still_produced(captured, current):
    held = {k for k, g in captured["groups"].items() if g["n"] >= link_quantiles.MIN_SAMPLES}
    assert held
    assert held <= set(current["groups"])


def test_quantiles_within_captured_tolerance(captured, current):
    misses = []
    for key, old in sorted(captured["groups"].items()):
        new = current["groups"].get(key)
        if old["n"] < link_quantiles.MIN_SAMPLES or new is None:
            continue
        delta = np.abs(np.subtract(new["quantiles"], old["quantiles"]))
        over = delta > np.asarray(old["tolerance"])
        misses += [
            f"{key} p{p}: {n:.4g} vs {o:.4g} (tolerance {t:.3g})"
            for p, n, o, t, bad in zip(
                captured["percentiles"], new["quantiles"], old["quantiles"],
                old["tolerance"], over,
            )
            if bad
        ]
    assert not misses, "\n".join(misses)
