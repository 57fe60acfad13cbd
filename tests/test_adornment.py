"""Tests for binding patterns (adornments) and the names they mint."""

import pytest

from repro.datalog.adornment import Adornment, adorned_name, input_name
from repro.datalog.parser import parse_atom
from repro.datalog.term import Var


class TestAdornment:
    def test_from_atom_constants_bound(self):
        adornment = Adornment.from_atom(parse_atom('r("1", Y)'))
        assert adornment.pattern == "bf"

    def test_from_atom_with_bound_vars(self):
        atom = parse_atom("r(X, Y)")
        assert Adornment.from_atom(atom, [Var("X")]).pattern == "bf"
        assert Adornment.from_atom(atom, [Var("X"), Var("Y")]).pattern == "bb"

    def test_function_term_bound_when_vars_bound(self):
        atom = parse_atom("r(f(X), Y)")
        assert Adornment.from_atom(atom).pattern == "ff"
        assert Adornment.from_atom(atom, [Var("X")]).pattern == "bf"

    def test_ground_function_term_is_bound(self):
        assert Adornment.from_atom(parse_atom('r(f("c"), Y)')).pattern == "bf"

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            Adornment("bx")

    def test_positions(self):
        adornment = Adornment("bfb")
        assert adornment.bound_positions() == (0, 2)
        assert adornment.free_positions() == (1,)

    def test_select_bound(self):
        atom = parse_atom('r("1", Y, "2")')
        assert Adornment("bfb").select_bound(atom.args) == (atom.args[0], atom.args[2])

    def test_names(self):
        assert adorned_name("r", Adornment("bf")) == "r^bf"
        assert input_name("r", Adornment("bf")) == "in-r^bf"
