import decimal
import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chipfire import bounds
from chipfire.bounds import _descending_parts


def alternating_permutation_count(n):
    """Brute-force count of up-down permutations (oracle for euler_zigzag)."""
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        if all((perm[i] < perm[i + 1]) == (i % 2 == 0) for i in range(n - 1)):
            total += 1
    return total


def branch_split_count(ell):
    """Brute-force oracle for ballot_split_count.

    Counts vote sequences of length 2^ell - 2 with equal votes per side,
    forced LL start and RR end, and no prefix where the right side leads.
    """
    total_votes = 2**ell - 2
    per_side = 2 ** (ell - 1) - 1
    free = total_votes - 4
    count = 0
    for lefts in itertools.combinations(range(free), per_side - 2):
        picked = set(lefts)
        votes = [1, 1] + [1 if i in picked else -1 for i in range(free)] + [-1, -1]
        running = 0
        ok = True
        for vote in votes:
            running += vote
            if running < 0:
                ok = False
                break
        count += ok
    return count


class TestPrimitives:
    def test_factorial_and_binomial(self):
        assert bounds.factorial(0) == 1
        assert bounds.factorial(11) == 39916800
        assert bounds.binomial(13, 4) == 715
        assert bounds.binomial(2, -2) == 0
        assert bounds.binomial(5, 9) == 0

    def test_binomial_negative_upper_is_error(self):
        with pytest.raises(ValueError):
            bounds.binomial(-1, 0)

    @given(st.integers(min_value=0, max_value=600), st.integers(min_value=-20, max_value=620))
    def test_binomial_matches_comb_in_range(self, n, k):
        expected = math.comb(n, k) if 0 <= k <= n else 0
        assert bounds.binomial(n, k) == expected

    def test_multinomial(self):
        assert bounds.multinomial(9, [6, 2, 1]) == 252
        assert bounds.multinomial(7, [5, 1, 1]) == 42
        assert bounds.multinomial(0, []) == 1

    def test_multinomial_matches_factorial_ratio(self):
        for parts in ([3, 3, 3], [1, 2, 3, 4], [10], [0, 5, 0]):
            n = sum(parts)
            expected = math.factorial(n) // math.prod(math.factorial(p) for p in parts)
            assert bounds.multinomial(n, parts) == expected

    def test_multinomial_part_sum_mismatch(self):
        with pytest.raises(ValueError):
            bounds.multinomial(9, [6, 2, 2])
        with pytest.raises(ValueError):
            bounds.multinomial(3, [4, -1])

    def test_catalan(self):
        assert [bounds.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
        assert bounds.catalan(7) == bounds.binomial(14, 7) // 8

    @pytest.mark.parametrize(
        "function,argument,message",
        [
            (bounds.factorial, -1, "factorial of a negative number"),
            (bounds.catalan, -1, "catalan of a negative number"),
            (bounds.euler_zigzag, -1, "euler_zigzag of a negative number"),
            (bounds.zigzag_subtree_factor, 3, "zigzag factors need ell >= 4"),
            (bounds.ballot_split_count, 2, "ballot split count needs ell >= 3"),
            (bounds.sci, -1, "sci expects a nonnegative integer"),
        ],
    )
    def test_input_guards(self, function, argument, message):
        with pytest.raises(ValueError, match=message):
            function(argument)


class TestEulerZigzag:
    def test_examples(self):
        assert bounds.euler_zigzag(1) == 1
        assert bounds.euler_zigzag(4) == 5
        assert bounds.euler_zigzag(6) == 61

    @pytest.mark.parametrize("n", range(8))
    def test_against_brute_force(self, n):
        assert bounds.euler_zigzag(n) == alternating_permutation_count(n)

    def test_below_factorial(self):
        for n in range(2, 31):
            assert bounds.euler_zigzag(n) < bounds.factorial(n)


class TestNaiveBounds:
    def test_examples(self):
        t_bound, z_bound = bounds.naive_bounds(4)
        assert z_bound == 39916800
        assert t_bound == bounds.factorial(12)
        assert bounds.naive_bounds(3)[1] == 6

    def test_needs_three_layers(self):
        with pytest.raises(ValueError):
            bounds.naive_bounds(2)


class TestZigzagBound:
    def test_level_factors(self):
        assert bounds.zigzag_subtree_factor(4) == 900900
        assert bounds.zigzag_tree_factor(4) == 69300

    def test_part_lists_sum_to_their_tops(self):
        for ell in range(4, 21):
            assert sum(_descending_parts(ell, 2)) == 2**ell - 3 - ell
            assert sum(_descending_parts(ell, 3)) == 2**ell - 5 - ell

    def test_four_layers(self):
        assert bounds.zigzag_bound(4) == (9009000, 693000)

    def test_table_magnitudes(self):
        assert bounds.sci(bounds.zigzag_bound(5)[1]) == "2.9e22"
        assert bounds.sci(bounds.zigzag_bound(7)[1]) == "1.5e170"

    def test_recursion_consistency(self):
        # closed form vs the level recursion: next bound is 10 times the
        # new level factor times the product of all previous bounds
        for ell in range(4, 11):
            t_next = bounds.zigzag_bound(ell + 1)[0]
            product = math.prod(bounds.zigzag_bound(i)[0] for i in range(4, ell + 1))
            assert t_next == 10 * bounds.zigzag_subtree_factor(ell + 1) * product

    def test_needs_four_layers(self):
        with pytest.raises(ValueError):
            bounds.zigzag_bound(3)


class TestBallotBound:
    def test_base_cases(self):
        assert bounds.ballot_bound(3) == (10, 20)
        assert bounds.ballot_bound(4)[1] == 186300
        assert bounds.ballot_bound(5)[0] == 71940918415766400000

    def test_split_count(self):
        assert bounds.ballot_split_count(3) == 2
        assert bounds.ballot_split_count(4) == 207

    @pytest.mark.parametrize("ell", [3, 4])
    def test_split_count_against_brute_force(self, ell):
        assert bounds.ballot_split_count(ell) == branch_split_count(ell)

    def test_recursion_consistency(self):
        for ell in range(3, 11):
            t_next = bounds.ballot_bound(ell + 1)[0]
            here = bounds.ballot_bound(ell)[0]
            assert t_next == (2 ** (ell + 1) - 4) * bounds.catalan(2**ell - 1) * here**2

    def test_needs_three_layers(self):
        with pytest.raises(ValueError):
            bounds.ballot_bound(2)


class TestComparisons:
    def test_table_row_for_four_layers(self):
        row = bounds.compare_table([4])[0]
        assert {name: z for name, (_, z) in row.values.items()} == {
            "naive": 39916800,
            "zigzag": 693000,
            "ballot": 186300,
        }

    def test_rows_follow_the_methods_by_name(self, monkeypatch):
        reversed_methods = dict(reversed(bounds.METHODS.items()))
        monkeypatch.setattr(bounds, "METHODS", reversed_methods)
        row = bounds.compare_table([5])[0]
        assert list(row.values) == list(reversed_methods)
        for name, bound in reversed_methods.items():
            assert row.values[name] == bound(5), name

    def test_orderings_hold_exactly(self):
        for row in bounds.compare_table(range(4, 13)):
            assert all(row.flags().values()), row.ell

    def test_t_bounds_also_beat_restricted_factorial(self):
        for ell in range(5, 13):
            reference = bounds.factorial(2**ell - 7)
            assert bounds.zigzag_bound(ell)[0] < reference
            assert bounds.ballot_bound(ell)[0] < reference

    def test_bounds_dominate_known_counts(self):
        assert bounds.zigzag_bound(4)[1] >= 36220
        assert bounds.ballot_bound(4)[1] >= 36220
        assert bounds.ballot_bound(3)[0] >= 10

    def test_rows_below_four_are_errors(self):
        with pytest.raises(ValueError):
            bounds.compare_table([3])


class TestSci:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (39916800, "4.0e7"),
            (693000, "6.9e5"),
            (186300, "1.9e5"),
            (6, "6.0e0"),
            (95, "9.5e1"),
            (995, "1.0e3"),   # carry after rounding
            (1050, "1.0e3"),  # tie rounds to even
            (1150, "1.2e3"),
            (0, "0.0e0"),
        ],
    )
    def test_rendering(self, value, expected):
        assert bounds.sci(value) == expected

    def test_rendering_past_the_digit_limit(self):
        # Python >= 3.11 refuses str() of ints over 4,300 digits
        assert bounds.sci(10**5000 - 1) == "1.0e5000"
        assert bounds.sci(10**5000) == "1.0e5000"
        assert bounds.sci(10**5000 + 5 * 10**4998) == "1.0e5000"
        assert bounds.sci(10**5000 + 5 * 10**4998 + 1) == "1.1e5000"

    def test_matches_decimal_half_even_at_eleven_layers(self):
        row = bounds.compare_table([11])[0]
        context = decimal.Context(prec=2, rounding=decimal.ROUND_HALF_EVEN)
        for value in (*row.values["naive"], *row.values["zigzag"], row.values["ballot"][1]):
            _, digits, exponent = context.create_decimal(value).as_tuple()
            assert bounds.sci(value) == f"{digits[0]}.{digits[1]}e{exponent + 1}"

    def test_matches_float_reference_on_moderate_values(self):
        for value in range(1, 100000, 37):
            mantissa, exponent = bounds.sci(value).split("e")
            assert abs(float(mantissa) * 10 ** int(exponent) - value) <= value * 0.06
