"""Unit tests for utility modules (rng, tables, timing)."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, random_permutation, spawn_rngs, weighted_choice
from repro.utils.tables import Table, format_float, format_series


def test_ensure_rng_accepts_all_forms():
    assert isinstance(ensure_rng(None), np.random.Generator)
    assert isinstance(ensure_rng(7), np.random.Generator)
    generator = np.random.default_rng(1)
    assert ensure_rng(generator) is generator
    with pytest.raises(TypeError):
        ensure_rng("seed")


def test_seeded_rng_reproducible():
    a = ensure_rng(42).random(3)
    b = ensure_rng(42).random(3)
    assert np.allclose(a, b)


def test_spawn_rngs():
    children = spawn_rngs(0, 3)
    assert len(children) == 3
    values = [child.random() for child in children]
    assert len(set(values)) == 3
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)


def test_random_permutation_and_weighted_choice():
    items = list(range(10))
    shuffled = random_permutation(3, items)
    assert sorted(shuffled) == items
    choice = weighted_choice(0, ["a", "b"], [0.0, 5.0])
    assert choice == "b"
    with pytest.raises(ValueError):
        weighted_choice(0, ["a"], [1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_choice(0, [], [])
    with pytest.raises(ValueError):
        weighted_choice(0, ["a"], [0.0])


def test_format_float():
    assert format_float(3.0) == "3"
    assert format_float(3.14159) == "3.142"
    assert format_float(None) == "-"
    assert format_float("x") == "x"
    assert "e" in format_float(123456.789)


def test_format_series():
    assert format_series([1.0, 2.5]) == "1, 2.500"


def test_table_rendering():
    table = Table(headers=["a", "b"], title="demo")
    table.add_row(1, "x")
    table.add_row(2.5, "yy")
    text = table.render()
    assert "demo" in text
    assert "a" in text and "yy" in text
    assert str(table) == text
    with pytest.raises(ValueError):
        table.add_row(1)


def test_stopwatch_measures_block():
    import time

    from repro.utils.timing import Stopwatch

    with Stopwatch() as watch:
        time.sleep(0.01)
        assert watch.elapsed > 0.0  # live while running
    elapsed = watch.elapsed
    assert elapsed >= 0.01
    assert watch.elapsed == elapsed  # frozen after exit
