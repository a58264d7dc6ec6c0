import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infotheory as it

LN2 = np.log(2.0)


def joint_from(table):
    return it.DiscreteJoint(np.asarray(table, dtype=float))


def independent_bits():
    # y fair and independent of independent fair (ra, rc)
    return joint_from(np.full((2, 2, 2), 1 / 8))


@st.composite
def random_joints(draw):
    shape = tuple(draw(st.integers(min_value=2, max_value=4)) for _ in range(3))
    cells = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                          min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    table = np.array(cells).reshape(shape)
    return joint_from(table / table.sum())


class TestEntropy:
    def test_fair_coin(self):
        assert it.entropy(independent_bits(), ("y",)) == pytest.approx(LN2)

    def test_deterministic_variable(self):
        table = np.zeros((2, 2, 2))
        table[0, :, :] = 0.25  # y always 0
        assert it.entropy(joint_from(table), ("y",)) == 0.0

    def test_uniform_four_symbols(self):
        table = np.full((4, 2, 2), 1 / 16)
        assert it.entropy(joint_from(table), ("y",)) == pytest.approx(np.log(4.0))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            it.entropy(independent_bits(), ())


class TestMutualInfo:
    def test_independent_bits(self):
        assert it.mutual_info(independent_bits(), "ra", "rc") == pytest.approx(0.0, abs=1e-13)

    def test_identical_bits(self):
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 0.5
        table[1, 1, 1] = 0.5
        assert it.mutual_info(joint_from(table), "ra", "rc") == pytest.approx(LN2)

    def test_same_variable_rejected(self):
        with pytest.raises(ValueError):
            it.mutual_info(independent_bits(), "ra", "ra")


def brute_force_xor_table():
    # enumerate all (a, c) pairs of independent fair bits, y = a XOR c
    table = np.zeros((2, 2, 2))
    for a in (0, 1):
        for c in (0, 1):
            table[a ^ c, a, c] += 0.25
    return table


class TestXorJoint:
    """Expected values enumerated from the 8-cell table independently of the
    library's own marginalization code."""

    def setup_method(self):
        self.joint = joint_from(brute_force_xor_table())

    def test_inputs_independent(self):
        assert it.mutual_info(self.joint, "ra", "rc") == pytest.approx(0.0, abs=1e-13)

    def test_conditional_dependence_is_one_bit(self):
        # given y, ra determines rc: H(ra|y) = ln 2, H(ra|rc,y) = 0
        assert it.cond_mutual_info(self.joint, "ra", "rc", "y") == pytest.approx(LN2)

    def test_premise_gap_equals_cmi(self):
        gap = it.premise_gap(self.joint)
        assert gap == pytest.approx(LN2)
        assert abs(gap - it.cond_mutual_info(self.joint, "ra", "rc", "y")) < 1e-12

    def test_identities_hold(self):
        assert abs(it.chain_rule_residual(self.joint)) < 1e-10
        assert abs(it.theorem1_residual(self.joint)) < 1e-10


class TestConditionalMI:
    def test_independent_triple(self):
        assert it.cond_mutual_info(independent_bits(), "ra", "rc", "y") == pytest.approx(0.0, abs=1e-13)

    def test_constant_condition_reduces_to_mi(self):
        # y constant: I(ra;rc|y) == I(ra;rc); build a correlated (ra, rc)
        table = np.zeros((2, 2, 2))
        table[0] = np.array([[0.4, 0.1], [0.1, 0.4]])
        j = joint_from(table)
        assert it.cond_mutual_info(j, "ra", "rc", "y") == pytest.approx(
            it.mutual_info(j, "ra", "rc"))

    def test_overlapping_variables_rejected(self):
        with pytest.raises(ValueError):
            it.cond_mutual_info(independent_bits(), "ra", "ra", "y")


@given(random_joints())
@settings(max_examples=300, deadline=None)
def test_chain_rule_identity(joint):
    assert abs(it.chain_rule_residual(joint)) < 1e-10


@given(random_joints())
@settings(max_examples=300, deadline=None)
def test_theorem1_identity(joint):
    assert abs(it.theorem1_residual(joint)) < 1e-10


@given(random_joints())
@settings(max_examples=300, deadline=None)
def test_premise_gap_equals_conditional_mi(joint):
    assert abs(it.premise_gap(joint) - it.cond_mutual_info(joint, "ra", "rc", "y")) < 1e-12


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_conditionally_independent_joints_have_zero_gap(key):
    j = it.cond_independent_joint(key, (3, 2, 4))
    assert it.premise_gap(j) < 1e-10


class TestJointValidation:
    def test_negative_entry(self):
        table = np.full((2, 2, 2), 1 / 8)
        table[0, 0, 0] = -1 / 8
        table[1, 1, 1] = 3 / 8
        with pytest.raises(ValueError):
            joint_from(table)

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            joint_from(np.full((2, 2, 2), 1.0))

    def test_alphabet_cap(self):
        with pytest.raises(ValueError):
            joint_from(np.full((9, 2, 2), 1 / 36))
