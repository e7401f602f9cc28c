"""Shift derivations, constraint operators, and their bracket algebra."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from pdc import virasoro
from pdc.cli import main
from pdc.descendents import (DescElement, gen, generator_degree, monomial,
                             normalize)
from pdc.virasoro import (Term, VirasoroOperator, acts_as_zero, apply_op,
                          apply_shift, bracket_check, build_constraint,
                          build_constraint_composed, build_quadratic,
                          commutator, generator_monomials,
                          multiplication_op, shift_weight)

from helpers import identity_op, shift_op


generators = st.builds(gen, st.integers(0, 6), st.integers(0, 4))
elements = st.dictionaries(
    st.lists(generators, max_size=3).map(tuple),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=4).map(DescElement)
# a factor the boundary conventions kill: any ch_1, or ch_0 of 1, H or L
killers = st.one_of(st.builds(gen, st.just(1), st.integers(0, 4)),
                    st.builds(gen, st.just(0), st.integers(0, 2)))
dead_terms = st.builds(
    lambda c, killer, rest: Term(c, monomial((killer,) + tuple(rest)), None),
    st.integers(-5, 5), killers, st.lists(generators, max_size=2))
# killers too: a derivation after a killer, R_-1 after ch_1(p) say, is live
any_terms = st.builds(
    lambda c, mult, deriv: Term(c, monomial(mult), deriv),
    st.integers(-5, 5), st.lists(st.one_of(generators, killers), max_size=2),
    st.one_of(st.none(), st.integers(-1, 3)))
# any operator: killers, R_-1..R_3, and Fraction coefficients
any_operators = st.builds(
    lambda terms, c: VirasoroOperator(terms).scale(c),
    st.lists(any_terms, max_size=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
# mostly operators of dead terms only, some with a live term mixed in
operators = st.builds(lambda dead, other: VirasoroOperator(dead + other),
                      st.lists(dead_terms, max_size=3),
                      st.lists(any_terms, max_size=1))


def raise_on_apply(op, e):
    raise AssertionError("apply_op was called")


def apply_op_reference(op, e):
    """apply_op term by term through the public element operations."""
    total = DescElement.zero()
    for coeff, mult, deriv in op.terms:
        x = e * DescElement({mult: 1})
        if deriv is not None:
            x = apply_shift(deriv, x)
        total = total + normalize(x).scale(coeff)
    return total


def bracket_check_reference(k, m, gen_bound):
    """bracket_check by comparing the actions of both sides on every
    monomial; reads build_quadratic through the module, so a patched
    operator reaches it too."""
    quadratic = virasoro.build_quadratic
    lhs = commutator(quadratic(k), quadratic(m))
    rhs = (VirasoroOperator(()) if k == m
           else quadratic(k + m).scale(m - k))
    for factors in generator_monomials(gen_bound, 2):
        e = DescElement({factors: 1})
        if apply_op(lhs, e) != apply_op(rhs, e):
            return False
    return True


def rising_factorial(x, k):
    w = 1
    for n in range(k + 1):
        w *= x + n
    return w


class TestShiftDerivation:
    def test_weight_is_rising_factorial(self):
        for i in range(7):
            for cls in range(5):
                g = gen(i, cls)
                x = generator_degree(g)
                for k in range(-1, 5):
                    assert shift_weight(k, g) == rising_factorial(x, k)

    def test_down_shift_weight_is_one(self):
        # k = -1: the empty rising factorial
        assert shift_weight(-1, gen(0, "1")) == 1
        assert shift_weight(-1, gen(9, "p")) == 1

    def test_product_rule_on_random_monomials(self):
        rng = random.Random(50)
        for _ in range(60):
            k = rng.randint(-1, 4)
            factors = monomial(gen(rng.randint(0, 6), rng.randint(0, 3))
                               for _ in range(rng.randint(1, 4)))
            got = apply_shift(k, DescElement({factors: 1}))
            expect = DescElement.zero()
            for idx, g in enumerate(factors):
                ni = g.i + k
                if ni < 0:
                    continue
                shifted = factors[:idx] + (gen(ni, g.cls),) + factors[idx + 1:]
                expect = expect + DescElement(
                    {monomial(shifted): shift_weight(k, g)})
            assert got == expect

    def test_scalars_die(self):
        assert apply_shift(2, DescElement.constant(5)).is_zero

    def test_truncation_below_zero(self):
        assert apply_shift(-1, DescElement.of(gen(0, "p"))).is_zero

    def test_k_validation(self):
        with pytest.raises(ValueError):
            apply_shift(-2, DescElement.of(gen(3, "p")))


class TestOperatorStructure:
    def test_terms_merge_and_cancel(self):
        t = Term(Fraction(1), monomial((gen(2, 1),)), None)
        s = Term(Fraction(-1), monomial((gen(2, 1),)), None)
        assert VirasoroOperator([t, s]).is_zero
        doubled = VirasoroOperator([t, t])
        assert doubled.terms == (Term(Fraction(2), monomial((gen(2, 1),)),
                                      None),)

    def test_permuted_multipliers_merge(self):
        a, b = gen(2, "H"), gen(3, "p")
        op = VirasoroOperator([Term(Fraction(1), (a, b), None),
                               Term(Fraction(2), (b, a), None)])
        assert op.terms == (Term(Fraction(3), monomial((a, b)), None),)
        assert VirasoroOperator([Term(Fraction(1), (a, b), 0),
                                 Term(Fraction(-1), (b, a), 0)]).is_zero

    def test_rejects_bad_derivation_index(self):
        with pytest.raises(ValueError):
            VirasoroOperator([Term(Fraction(1), (), -2)])

    def test_add_scale_eq(self):
        a = build_quadratic(1)
        assert a + a == a.scale(2)
        assert (a - a).is_zero
        assert a != build_quadratic(2)

    def test_identity_and_multiplication(self):
        e = DescElement.of(gen(3, "p"), coeff=Fraction(2, 3))
        assert apply_op(identity_op(), e) == e
        m = multiplication_op((gen(2, "H"),), 3)
        assert apply_op(m, e) == DescElement.of(gen(2, "H"), gen(3, "p"),
                                                coeff=2)

    def test_shift_op_matches_apply_shift(self):
        e = DescElement.of(gen(4, "1"), gen(3, "p"))
        assert apply_op(shift_op(2), e) == normalize(apply_shift(2, e))

    def test_str_forms(self):
        assert str(build_constraint(-1)) == "R_-1 + R_-1 ch0(p)"
        assert str(build_quadratic(0)) == ("ch0(p)*ch0(p) + 4*ch0(p)*ch2(H)"
                                           " - 2*ch1(L)*ch1(L) + R_0")
        assert str(VirasoroOperator(())) == "0"


class TestConstraintConstruction:
    def test_two_routes_agree_as_operators(self):
        for k in range(-1, 6):
            assert build_constraint(k) == build_constraint_composed(k)

    def test_two_routes_agree_in_action(self):
        probes = generator_monomials(4, 2)
        for k in range(-1, 4):
            direct, composed = build_constraint(k), build_constraint_composed(k)
            for factors in probes[:60]:
                e = DescElement({factors: 1})
                assert apply_op(direct, e) == apply_op(composed, e)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            build_quadratic(-2)

    def test_lowest_constraint_annihilates_samples(self):
        op = build_constraint(-1)
        rng = random.Random(51)
        pool = generator_monomials(7, 3)
        for factors in rng.sample(pool, 80):
            assert apply_op(op, DescElement({factors: 1})).is_zero


class TestBrackets:
    def test_quadratic_bracket_relation(self):
        for k in range(-1, 3):
            for m in range(-1, 3):
                assert bracket_check(k, m, 6)

    def test_agrees_with_two_sided_reference(self):
        for k in range(-1, 7):
            for m in range(-1, 7):
                assert bracket_check(k, m, 6) == bracket_check_reference(
                    k, m, 6), (k, m)

    def test_detects_a_broken_relation(self, monkeypatch):
        quadratic = virasoro.build_quadratic
        stray = VirasoroOperator([Term(1, (gen(3, "p"),), None)])

        def broken(k):
            return quadratic(k) + stray if k == 3 else quadratic(k)

        monkeypatch.setattr(virasoro, "build_quadratic", broken)
        assert not bracket_check(1, 2, 6)
        assert not bracket_check_reference(1, 2, 6)
        assert bracket_check(0, 1, 6) and bracket_check_reference(0, 1, 6)

    def test_dead_differences_apply_nothing(self, monkeypatch):
        monkeypatch.setattr(virasoro, "apply_op", raise_on_apply)
        for m in range(0, 5):
            assert bracket_check(-1, m, 8)

    def test_cli_dead_difference_at_a_large_bound(self, monkeypatch,
                                                  capsys):
        # a monomial sweep at bound 400 would mean about 1.3 million
        # apply_op calls
        monkeypatch.setattr(virasoro, "apply_op", raise_on_apply)
        assert main(["bracket-check", "--k", "-1", "--m", "4",
                     "--bound", "400"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_dead_difference_plus_live_term_fails(self, monkeypatch):
        # [L_-1, L_4] - 5 L_3 is a dead multiplication; an extra R_2 in
        # L_3 adds the live term -5 R_2, so the sweep must run and fail
        quadratic = virasoro.build_quadratic

        def broken(k):
            return quadratic(k) + shift_op(2) if k == 3 else quadratic(k)

        monkeypatch.setattr(virasoro, "build_quadratic", broken)
        diff = commutator(broken(-1), broken(4)) - broken(3).scale(5)
        assert not acts_as_zero(diff)
        assert Term(-5, (), 2) in diff.terms
        assert not bracket_check(-1, 4, 6)
        assert not bracket_check_reference(-1, 4, 6)

    def test_bracket_check_validation(self):
        with pytest.raises(ValueError):
            bracket_check(-2, 0, 4)

    def test_symbolic_bracket_on_derivations(self):
        got = commutator(shift_op(1), shift_op(3))
        assert got == shift_op(4).scale(2)
        assert commutator(shift_op(2), shift_op(2)).is_zero

    def test_derivation_past_multiplication(self):
        # [R_k, (mult by M)] acts as multiplication by R_k(M)
        k = 1
        mono = monomial((gen(3, "p"),))
        got = commutator(shift_op(k), multiplication_op(mono))
        w = shift_weight(k, gen(3, "p"))
        assert got == multiplication_op((gen(4, "p"),), w)

    def test_point_multiplication_bracket(self):
        # [L_n, k! (mult by ch_k(p))] = k (k+n)! (mult by ch_{k+n}(p))
        for n in range(-1, 3):
            for k in range(1, 4):
                lhs = commutator(build_quadratic(n),
                                 multiplication_op((gen(k, 3),),
                                                   factorial(k)))
                rhs = multiplication_op((gen(n + k, 3),),
                                        k * factorial(k + n))
                assert lhs == rhs, (n, k)


class TestActsAsZero:
    def test_examples(self):
        dead = (commutator(build_quadratic(-1), build_quadratic(4))
                - build_quadratic(3).scale(5))
        assert str(dead) == "-96*ch0(L)*ch5(L) + 96*ch1(H)*ch4(p)"
        assert acts_as_zero(dead)
        assert acts_as_zero(VirasoroOperator(()))
        assert acts_as_zero(multiplication_op((gen(1, "p0"), gen(3, "p"))))
        # ch_0(p) is the scalar -1 and ch_0(p0) is kept: both live
        assert not acts_as_zero(multiplication_op((gen(0, "p"),)))
        assert not acts_as_zero(multiplication_op((gen(0, "p0"),)))
        # R_-1 after ch_1(p) contributes ch_0(p), the scalar -1
        down = VirasoroOperator([Term(1, (gen(1, "p"),), -1)])
        assert not acts_as_zero(down)
        assert apply_op(down, DescElement.of(gen(3, "p"))) == (
            DescElement.of(gen(3, "p"), coeff=-1))
        assert not acts_as_zero(dead + shift_op(0))
        # R_-1 after 1 + ch_0(p): normal(1 + ch_0(p)) = 0, and R_-1 of
        # 1 and of ch_0(p) vanish, so the action is empty
        lowest = VirasoroOperator([Term(1, (), -1),
                                   Term(1, (gen(0, "p"),), -1)])
        assert lowest == build_constraint(-1)
        assert acts_as_zero(lowest)

    @settings(max_examples=150)
    @given(operators, elements)
    def test_dead_operators_kill_every_element(self, op, e):
        if acts_as_zero(op):
            assert apply_op(op, e).is_zero


class TestIntegerCoefficients:
    def test_constraint_action_stays_integral(self):
        probes = generator_monomials(4, 2)
        for k in range(-1, 5):
            op = build_constraint(k)
            assert all(type(t.coeff) is int for t in op.terms)
            for factors in probes:
                out = apply_op(op, DescElement({factors: Fraction(1)}))
                assert all(type(c) is int for c in out.terms.values())

    def test_scale_and_commutator_stay_integral(self):
        ops = [build_quadratic(1).scale(Fraction(6, 3)),
               commutator(build_quadratic(1), build_quadratic(2))]
        assert all(type(t.coeff) is int for op in ops for t in op.terms)
        half = build_quadratic(0).scale(Fraction(1, 2))
        assert [type(t.coeff) for t in half.terms] == [Fraction, int, int,
                                                       Fraction]


class TestGeneratorMonomials:
    def test_counts(self):
        # 1 + 28 + C(28+1, 2) for bound 6, classes 0..3, two slots
        singles = 4 * 7
        assert len(generator_monomials(6, 1)) == 1 + singles
        assert len(generator_monomials(6, 2)) == (1 + singles
                                                  + singles * (singles + 1) // 2)

    def test_includes_empty_and_respects_bounds(self):
        pool = generator_monomials(3, 2, classes=(3,), min_sub=1)
        assert () in pool
        for factors in pool:
            assert len(factors) <= 2
            for g in factors:
                assert 1 <= g.i <= 3 and g.cls == 3

    def test_monomials_are_canonical_and_unique(self):
        pool = generator_monomials(4, 3)
        assert len(set(pool)) == len(pool)
        for factors in pool:
            assert factors == monomial(factors)


class TestApplyOpReference:
    @settings(max_examples=150)
    @given(elements, st.integers(-1, 4), st.booleans())
    def test_matches_term_by_term_route(self, e, k, full):
        op = build_constraint(k) if full else build_quadratic(k)
        assert apply_op(op, e) == apply_op_reference(op, e)

    @settings(max_examples=300)
    @given(any_operators, elements)
    def test_matches_on_arbitrary_operators(self, op, e):
        got, expect = apply_op(op, e), apply_op_reference(op, e)
        assert got == expect
        assert str(got) == str(expect)


class TestAction:
    def test_built_once_per_operator(self, monkeypatch):
        op = build_constraint(1)
        e = DescElement.of(gen(3, "p"), gen(2, "H"), coeff=Fraction(1, 2))
        first = apply_op(op, e)
        action = op.action
        assert apply_op(op, e) == first and op.action is action
        # the lowest constraint has an empty action: once it is built, an
        # application normalizes nothing
        lowest = build_constraint(-1)
        assert apply_op(lowest, e).is_zero

        def no_normalizing(items):
            raise AssertionError("the action was rebuilt")

        monkeypatch.setattr(virasoro, "normal_terms", no_normalizing)
        assert apply_op(lowest, e).is_zero

    def test_derived_operators_get_their_own_action(self):
        op = build_quadratic(1)
        e = DescElement.of(gen(0, "p"), gen(4, "L"), gen(2, "p0"))
        apply_op(op, e)
        for other in (op.scale(2), op + shift_op(-1),
                      op.compose_mult((gen(1, "p"),))):
            assert other.action is not op.action
            assert apply_op(other, e) == apply_op_reference(other, e)

    def test_immutable_unhashable_and_equal_without_the_memo(self):
        op, fresh = build_quadratic(2), build_quadratic(2)
        op.action
        with pytest.raises(AttributeError):
            op.x = 1
        with pytest.raises(AttributeError):
            op._action = None
        with pytest.raises(TypeError):
            hash(op)
        assert op == fresh and fresh == op
        fresh.action
        assert op == fresh
