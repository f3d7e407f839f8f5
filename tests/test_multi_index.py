import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsapce.errors import ConfigError, DataError
from mvsapce.multi_index import MultiIndexSet, total_degree_set, zero_set


class TestSetConstruction:
    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            MultiIndexSet([(0, 0), (1, 0), (0, 0)])

    def test_rejects_negative_entries(self):
        with pytest.raises(DataError):
            MultiIndexSet([(0, -1)])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(DataError):
            MultiIndexSet([(0, 0), (1,)])

    def test_empty_set_needs_dimension(self):
        with pytest.raises(DataError):
            MultiIndexSet([])
        assert len(MultiIndexSet([], dim=3)) == 0

    def test_insertion_order_preserved(self):
        s = MultiIndexSet([(2, 0), (0, 0), (1, 1)])
        assert s.indices == ((2, 0), (0, 0), (1, 1))
        assert s.union([(1, 1), (0, 1)]).indices == ((2, 0), (0, 0), (1, 1), (0, 1))

    def test_without_index(self):
        s = MultiIndexSet([(0, 0), (1, 0), (0, 1)])
        assert s.without_index((1, 0)).indices == ((0, 0), (0, 1))
        with pytest.raises(DataError):
            s.without_index((5, 5))


class TestDownwardClosed:
    def test_zero_set(self):
        assert MultiIndexSet([(0, 0)]).is_downward_closed()

    def test_missing_backward_neighbor(self):
        assert not MultiIndexSet([(0, 0), (1, 0), (1, 1)]).is_downward_closed()

    def test_full_square(self):
        assert MultiIndexSet([(0, 0), (1, 0), (0, 1), (1, 1)]).is_downward_closed()


class TestForwardNeighbors:
    def test_from_zero(self):
        assert zero_set(2).forward_neighbors().indices == ((0, 1), (1, 0))

    def test_two_member_set(self):
        s = MultiIndexSet([(0, 0), (1, 0)])
        assert set(s.forward_neighbors()) == {(2, 0), (1, 1), (0, 1)}

    def test_one_dimensional_chain(self):
        s = MultiIndexSet([(0,), (1,), (2,)])
        assert s.forward_neighbors().indices == ((3,),)

    def test_lexicographic_output(self):
        s = MultiIndexSet([(0, 0), (1, 0), (0, 1)])
        out = s.forward_neighbors().indices
        assert out == tuple(sorted(out))


class TestAdmissibleNeighbors:
    def test_from_zero(self):
        assert set(zero_set(2).admissible_forward_neighbors()) == {(1, 0), (0, 1)}

    def test_excludes_unreachable_pair(self):
        s = MultiIndexSet([(0, 0), (1, 0)])
        assert set(s.admissible_forward_neighbors()) == {(2, 0), (0, 1)}

    def test_three_dimensional_case(self):
        s = MultiIndexSet([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        expected = {(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)}
        assert set(s.admissible_forward_neighbors()) == expected

    def test_brute_force_agreement(self):
        # Independent definition: forward neighbors whose union with the set
        # stays downward-closed.
        s = MultiIndexSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
        brute = {
            k
            for k in s.forward_neighbors()
            if s.with_index(k).is_downward_closed()
        }
        assert set(s.admissible_forward_neighbors()) == brute

    def test_requires_downward_closed_input(self):
        with pytest.raises(ConfigError):
            MultiIndexSet([(0, 0), (1, 1)]).admissible_forward_neighbors()

    def test_union_stays_downward_closed(self):
        s = MultiIndexSet([(0, 0), (1, 0), (0, 1)])
        assert s.union(s.admissible_forward_neighbors()).is_downward_closed()


class TestGeneratedSets:
    def test_total_degree_2_2(self):
        assert total_degree_set(2, 2).indices == (
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        )

    def test_total_degree_1d(self):
        assert total_degree_set(1, 3).indices == ((0,), (1,), (2,), (3,))

    def test_total_degree_cardinality(self):
        # C(N + p, p) members
        assert len(total_degree_set(20, 2)) == 231
        assert len(total_degree_set(5, 4)) == 126

    def test_generated_sets_downward_closed(self):
        for dim in range(1, 6):
            for degree in range(0, 7):
                assert total_degree_set(dim, degree).is_downward_closed()

    def test_admissible_equals_forward_on_total_degree(self):
        for dim, degree in [(2, 2), (3, 3), (4, 1)]:
            s = total_degree_set(dim, degree)
            assert s.admissible_forward_neighbors() == s.forward_neighbors()

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            total_degree_set(0, 2)
        with pytest.raises(ConfigError):
            total_degree_set(2, -1)


class TestRandomGrowth:
    def test_fifty_random_admissible_additions_stay_closed(self):
        rng = np.random.default_rng(2024)
        s = zero_set(3)
        for _ in range(50):
            candidates = s.admissible_forward_neighbors().indices
            s = s.with_index(candidates[rng.integers(len(candidates))])
            assert s.is_downward_closed()

    @given(
        dim=st.integers(min_value=1, max_value=4),
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_growth_invariants(self, dim, picks):
        s = zero_set(dim)
        for pick in picks:
            admissible = s.admissible_forward_neighbors()
            forward = s.forward_neighbors()
            assert set(admissible).issubset(set(forward))
            assert s.union(admissible).is_downward_closed()
            s = s.with_index(admissible.indices[pick % len(admissible)])
            assert s.is_downward_closed()


class TestSerialization:
    def test_round_trip_preserves_order(self):
        s = MultiIndexSet([(1, 0), (0, 0), (0, 2)])
        assert MultiIndexSet(s.to_json()) == s
        assert s.to_json() == [[1, 0], [0, 0], [0, 2]]
