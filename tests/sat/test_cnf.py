"""Tests for the CNF container and its whole-formula preprocessing."""

import pytest

from repro.sat import CNF, extend_model, neg, preprocess, sign_of, solve, var_of


class TestLiterals:
    def test_negation(self):
        assert neg(3) == -3
        assert neg(-7) == 7

    def test_var_and_sign(self):
        assert var_of(5) == 5
        assert var_of(-5) == 5
        assert sign_of(5) is True
        assert sign_of(-5) is False


class TestCNFContainer:
    def test_new_vars_are_sequential(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.new_vars(3) == [3, 4, 5]
        assert cnf.num_vars == 5

    def test_add_clause_grows_variable_space(self):
        cnf = CNF()
        cnf.add_clause([4, -9])
        assert cnf.num_vars == 9
        assert cnf.num_clauses == 1

    def test_literal_zero_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([1, 0])

    def test_copy_is_independent(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        clone = cnf.copy()
        clone.add_clause([3])
        assert cnf.num_clauses == 1
        assert clone.num_clauses == 2

    def test_extend_merges_clauses(self):
        a = CNF()
        a.add_clause([1])
        b = CNF()
        b.add_clause([2, 3])
        a.extend(b)
        assert a.num_clauses == 2
        assert a.num_vars == 3

    def test_evaluate(self):
        cnf = CNF()
        cnf.add_clause([1, -2])
        assert cnf.evaluate([False, True, True])
        assert not cnf.evaluate([False, False, True])


class TestDimacs:
    def test_round_trip(self):
        cnf = CNF()
        cnf.add_clause([1, -3])
        cnf.add_clause([2])
        text = cnf.to_dimacs()
        parsed = CNF.from_dimacs(text)
        assert parsed.num_vars == cnf.num_vars
        assert parsed.clauses == cnf.clauses

    def test_parse_with_comments(self):
        text = "c a comment\np cnf 3 2\n1 -2 0\n3 0\n"
        cnf = CNF.from_dimacs(text)
        assert cnf.num_vars == 3
        assert cnf.clauses == [[1, -2], [3]]

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            CNF.from_dimacs("1 2 0\n")


def _reduced(cnf, result):
    """The preprocessed clauses as a CNF over the original variables."""
    reduced = CNF(cnf.num_vars)
    for clause in result.clauses:
        reduced.add_clause(clause)
    return reduced


class TestSimplify:
    """:func:`preprocess` on a whole formula, nothing frozen."""

    def test_unit_propagation_fixes_variables(self):
        cnf = CNF()
        cnf.add_clause([1])
        cnf.add_clause([-1, 2])
        cnf.add_clause([-2, 3, 4])
        result = preprocess(cnf.clauses)
        assert not result.unsat
        # Every fixed variable stays in the output as a unit clause.
        assert [1] in result.clauses
        assert [2] in result.clauses

    def test_conflict_detected(self):
        cnf = CNF()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        result = preprocess(cnf.clauses)
        assert result.unsat
        assert result.clauses == [[]]

    def test_simplified_equisatisfiable(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 2])
        cnf.add_clause([3, -2])
        simplified = _reduced(cnf, preprocess(cnf.clauses))
        assert solve(cnf).satisfiable == solve(simplified).satisfiable

    def test_extend_model_overlays_fixed_values(self):
        cnf = CNF()
        cnf.add_clause([1])
        cnf.add_clause([2, 3])
        result = preprocess(cnf.clauses)
        model = solve(_reduced(cnf, result)).model
        extended = extend_model(model, result.eliminated)
        assert extended[1] is True
        assert cnf.evaluate(extended)
