import tracemalloc

import numpy as np
import pytest

from mvsapce.errors import require


class Found(Exception):
    pass


def first_bad(valid):
    """The position ``require`` reports for ``valid``, or None when every entry holds."""
    try:
        require(valid, lambda *position: Found(position))
    except Found as exc:
        return exc.args[0]
    return None


def reference(valid):
    """First False entry in row-major order, by ``np.argwhere``'s C-order listing."""
    bad = np.argwhere(~np.asarray(valid))
    return tuple(int(i) for i in bad[0]) if len(bad) else None


def with_bad_entries(shape, seed, count):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    flat = values.reshape(-1)
    for k, spot in enumerate(rng.choice(flat.size, size=min(count, flat.size), replace=False)):
        flat[spot] = (np.nan, np.inf, -np.inf)[k % 3]
    return values


class TestRequire:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_0d(self, bad):
        assert first_bad(np.isfinite(np.float64(bad))) == ()
        assert first_bad(np.isfinite(np.array(bad))) == ()
        assert first_bad(np.isfinite(np.float64(1.0))) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_one_bad_entry(self, bad):
        values = np.zeros(7)
        values[4] = bad
        assert first_bad(np.isfinite(values)) == (4,)
        matrix = np.zeros((3, 5))
        matrix[2, 1] = bad
        assert first_bad(np.isfinite(matrix)) == (2, 1)
        assert first_bad(np.isfinite(matrix.T)) == (1, 2)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", [(1,), (9,), (1, 6), (6, 1), (5, 7), (4, 3, 5)])
    def test_first_in_row_major_order(self, shape, seed):
        values = with_bad_entries(shape, seed, count=3)
        for view in (values, values.T, np.asfortranarray(values), values[::-1]):
            valid = np.isfinite(view)
            assert first_bad(valid) == reference(valid)

    def test_transposed_view_reads_in_its_own_order(self):
        values = np.zeros((2, 3))
        values[0, 2] = np.inf
        values[1, 0] = np.nan
        assert first_bad(np.isfinite(values)) == (0, 2)
        # values.T is F-ordered in memory; its first row is values' first column.
        assert not values.T.flags.c_contiguous
        assert first_bad(np.isfinite(values.T)) == (0, 1)

    def test_all_valid_and_empty_raise_nothing(self):
        assert first_bad(np.ones((4, 3), dtype=bool)) is None
        assert first_bad(np.ones((0, 3), dtype=bool)) is None
        assert first_bad(np.ones(0, dtype=bool)) is None

    def test_error_receives_positions_as_ints(self):
        valid = np.ones((3, 4), dtype=bool)
        valid[1, 2] = False
        position = first_bad(valid)
        assert position == (1, 2) and all(type(i) is int for i in position)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("bad", [None, (999, 0), (0, 999), (517, 411)], ids=["none", "last-row", "last-col", "inner"])
    def test_allocates_at_most_one_mask(self, layout, bad):
        # The check is the caller's mask plus require; together they may hold
        # one boolean array of the checked shape, not a copy of it besides.
        values = np.zeros((1000, 1000), order=layout)
        if bad is not None:
            values[bad] = np.inf
        tracemalloc.start()
        try:
            found = first_bad(np.isfinite(values))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == (None if bad is None else bad)
        assert peak < values.size + values.size // 4, peak
